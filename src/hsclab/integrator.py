"""Method-of-steps integration of the stem-cell delay equation.

The solver advances an embedded Runge-Kutta 5(4) pair (Dormand-Prince
tableau) with a quartic continuous extension.  Delayed values are always
read from the dense output of already-completed segments (or from the
initial history), never from raw mesh interpolation; the step size is capped
at the delay so the delayed argument can never land in the step being
computed.  Derivative discontinuities propagate from t=0 at multiples of the
delay, so k*tau (k = 1..6) are forced step boundaries, after which the
solution is smooth enough for the pair's order.

A History is data in one of two layouts, a cubic spline clipped at 0 or
base*(1 + amplitude*cos(w*t)) (a constant has amplitude 0); the solver and
trajectories read it through its one unchecked evaluation, ``History.at``.

Adaptive runs are stepped by a compiled port of the step loop
(``_kernel.c``), built with the system gcc on the first call into a cache
next to this file and loaded with ctypes.  It keeps every formula's order,
reads both history layouts natively, and gives the same knots and
coefficients bit for bit.  Fixed-step runs, and machines where the build,
the load or one of its load-time checks fails, use the Python loop, which
stays the oracle; ``kernel_status`` says which runs, and why.

Trajectories store one power-basis quartic per accepted step and evaluate
anywhere in [-tau, t_end].  Event detection (extrema, level crossings) roots
the dense polynomials themselves: the same kernel isolates every root in
[0, 1) of the candidate segments by their critical points and bisection,
and where it is not in use, its Python port does, with the same bits.
"""

from __future__ import annotations

import errno
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from .model import ModelParams, steady_state

__all__ = [
    "History",
    "Trajectory",
    "Event",
    "StepSizeUnderflow",
    "integrate",
    "detect_events",
    "find_extrema",
    "find_level_crossings",
    "history_from_trajectory",
    "kernel_status",
]

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# error weights (5th order minus embedded 4th order)
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
# dense-output weights
_D1 = -12715105075 / 11282082432
_D3 = 87487479700 / 32700410799
_D4 = -10690763975 / 1880347072
_D5 = 701980252875 / 199316789632
_D6 = -1453857185 / 822651844
_D7 = 69997945 / 29380423

_MAX_STEPS = 50_000_000  # guard against a step size stuck far below the delay
_CARRY_POINTS = 257  # samples of a carried history over one delay
_SMOOTHING_ROUNDS = 6  # forced step boundaries at k*tau, k = 1..6


class StepSizeUnderflow(RuntimeError):
    """Step control drove the step below representable resolution."""

    def __init__(self, t: float):
        super().__init__(f"step size underflow at t={t!r}")
        self.t = t


@dataclass(frozen=True, eq=False)
class History:
    """Nonnegative initial data on exactly [-tau, 0], in one of two layouts:
    a cubic spline with breaks ``x`` and (4, n) coefficients ``c`` (scipy's
    PPoly layout) clipped at 0, or, with ``x`` None,
    ``base*(1 + amplitude*cos(w*t))``; amplitude 0 gives exactly ``base``.
    """

    tau: float
    base: float = 0.0
    amplitude: float = 0.0
    w: float = 0.0
    x: np.ndarray | None = None
    c: np.ndarray | None = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -self.tau - 1e-9 * max(1.0, self.tau)) or np.any(t > 1e-12):
            raise ValueError("history queried outside [-tau, 0]")
        out = self.at(np.clip(t, -self.tau, 0.0))
        return float(out) if t.ndim == 0 else np.asarray(out, dtype=float)

    def at(self, t):
        """Values at times already known to lie in [-tau, 0] (unchecked)."""
        if self.x is None:
            return self.base * (1.0 + self.amplitude
                                * np.cos(self.w * np.asarray(t, float)))
        return np.maximum(PPoly.construct_fast(self.c, self.x)(t), 0.0)

    def check_delay(self, tau: float) -> None:
        """Raise ValueError unless this history spans the delay ``tau``."""
        if abs(self.tau - tau) > 1e-12 * max(1.0, tau):
            raise ValueError("history delay does not match the model delay")

    @classmethod
    def constant(cls, tau: float, value: float) -> "History":
        if value < 0:
            raise ValueError("history values must be nonnegative")
        return cls(float(tau), base=float(value))

    @classmethod
    def sampled(cls, ts, values) -> "History":
        """Cubic spline through (ts, values); ts must span [-tau, 0]."""
        ts = np.asarray(ts, dtype=float)
        values = np.asarray(values, dtype=float)
        if ts.ndim != 1 or ts.shape != values.shape or ts.size < 2:
            raise ValueError("need matching 1-d sample arrays")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("sample times must be strictly increasing")
        tau = -ts[0]
        if tau <= 0 or abs(ts[-1]) > 1e-9 * max(1.0, tau):
            raise ValueError("sample mesh must span [-tau, 0]")
        if np.any(values < 0):
            raise ValueError("history values must be nonnegative")
        spline = CubicSpline(ts, values)
        return cls(float(tau), x=spline.x, c=spline.c)

    @classmethod
    def steady_state_perturbation(cls, p: ModelParams, amplitude: float,
                                  mode: str = "constant") -> "History":
        """Nontrivial steady state scaled/modulated by a small perturbation.

        mode "constant": Q*(1 + amplitude) on the whole interval;
        mode "cosine":   Q*(1 + amplitude*cos(2 pi t / tau)).
        The amplitude must exceed -1, and in cosine mode be at most 1.
        """
        qs = steady_state(p).nontrivial
        if qs is None:
            raise ValueError("no nontrivial steady state to perturb")
        if amplitude <= -1.0 or (mode == "cosine" and amplitude > 1.0):
            raise ValueError("amplitude must keep the history nonnegative")
        if mode == "constant":
            return cls(float(p.tau), base=qs * (1.0 + amplitude))
        if mode == "cosine":
            return cls(float(p.tau), base=qs, amplitude=float(amplitude),
                       w=2.0 * math.pi / p.tau)
        raise ValueError(f"unknown perturbation mode {mode!r}")

    @classmethod
    def default(cls, p: ModelParams) -> "History":
        """The seed used when none is given: the steady state raised by 5%,
        or theta where there is no nontrivial steady state."""
        if steady_state(p).nontrivial is None:
            return cls.constant(p.tau, p.theta)
        return cls.steady_state_perturbation(p, 0.05)


@dataclass(frozen=True)
class Event:
    t: float
    kind: str  # "max" | "min" | "level"
    value: float
    level: float = math.nan
    direction: str = ""  # for levels: "up"/"down"/"degenerate"; extrema may be "degenerate"


class Trajectory:
    """Dense piecewise-quartic solution of one integration run.

    Immutable once built; evaluating is thread-safe.  Negative times are
    answered by the initial history.
    """

    def __init__(self, params: ModelParams, history: History,
                 knots: np.ndarray, coeffs: np.ndarray):
        self.params = params
        self.history = history
        self.knots = knots            # (n+1,) segment boundaries, knots[0] = 0
        self.coeffs = coeffs          # (n, 5) power-basis in theta
        self.widths = np.diff(knots)  # (n,)

    @property
    def t_end(self) -> float:
        return float(self.knots[-1])

    @property
    def n_segments(self) -> int:
        return len(self.widths)

    def _eval(self, t, deriv: bool):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t).astype(float)
        lo, hi = -self.params.tau, self.t_end
        tol = 1e-9 * max(1.0, hi)
        if np.any(tt < lo - tol) or np.any(tt > hi + tol):
            raise ValueError(f"time outside [{lo}, {hi}]")
        out = np.empty_like(tt)
        neg = tt < 0.0
        if neg.any():
            if deriv:
                raise ValueError("derivative not defined on the history interval")
            # the history's own delay may differ from the model's by roundoff
            out[neg] = self.history.at(
                np.clip(tt[neg], max(lo, -self.history.tau), 0.0))
        pos = ~neg
        if pos.any():
            tp = np.minimum(tt[pos], hi)
            idx = np.searchsorted(self.knots, tp, side="right") - 1
            idx = np.clip(idx, 0, self.n_segments - 1)
            th = (tp - self.knots[idx]) / self.widths[idx]
            C = self.coeffs[idx]
            if deriv:
                val = (C[:, 1] + th * (2.0 * C[:, 2] + th * (3.0 * C[:, 3]
                       + th * 4.0 * C[:, 4]))) / self.widths[idx]
            else:
                val = C[:, 0] + th * (C[:, 1] + th * (C[:, 2] + th * (C[:, 3]
                       + th * C[:, 4])))
            out[pos] = val
        return float(out[0]) if scalar else out

    def __call__(self, t):
        return self._eval(t, deriv=False)

    def derivative(self, t):
        return self._eval(t, deriv=True)

    def segment_range(self, t_start: float, t_end: float) -> tuple[int, int]:
        """Indices [i0, i1) of segments overlapping [t_start, t_end]."""
        i0 = int(np.searchsorted(self.knots, t_start, side="right") - 1)
        i1 = int(np.searchsorted(self.knots, t_end, side="left"))
        return max(i0, 0), min(i1, self.n_segments)


def integrate(p: ModelParams, history: History, t_end: float, *,
              rtol: float = 1e-9, atol: float = 1e-12,
              fixed_step: float | None = None) -> Trajectory:
    """Solve the delay equation forward from the given history.

    Local error per step is kept within rtol/atol (defaults beyond typical,
    chosen for multi-decade horizons).  The first ``_SMOOTHING_ROUNDS``
    multiples of the delay are mandatory step boundaries.  ``fixed_step``
    bypasses error control entirely (used for order measurements).
    Identical inputs produce bit-identical trajectories.

    Adaptive runs use the compiled step loop where it can be built (see
    ``_kernel``); ``fixed_step`` runs and machines without it use the Python
    loop, which gives the same knots and coefficients bit for bit.
    """
    lib = _kernel() if fixed_step is None else None
    if lib is None:
        return _python_loop(p, history, t_end, rtol, atol, fixed_step)
    return _compiled_loop(lib, p, history, t_end, rtol, atol)


def _stops(p: ModelParams, history: History, t_end: float, rtol: float,
           atol: float) -> list[float]:
    """Check integrate's inputs and return its mandatory stops: the
    propagated discontinuities k*tau, then the horizon."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if atol <= 0 or rtol < 0:
        raise ValueError("need atol > 0 and rtol >= 0")
    history.check_delay(p.tau)
    stops: list[float] = [k * p.tau for k in range(1, _SMOOTHING_ROUNDS + 1)
                          if k * p.tau < t_end * (1.0 - 1e-15)]
    stops.append(float(t_end))
    return stops


def _python_loop(p: ModelParams, history: History, t_end: float, rtol: float,
                 atol: float, fixed_step: float | None) -> Trajectory:
    """The step loop in Python: the fallback, and the oracle of the
    compiled loop in ``_kernel.c``."""
    stops = _stops(p, history, t_end, rtol, atol)
    kappa, tau, f, s = p.kappa, p.tau, p.f, p.s
    A = p.amplification
    ths = p.theta**s

    knots = [0.0]
    coefs: list[tuple] = []
    widths: list[float] = []
    state = {"ptr": 0}

    y = float(history(0.0))

    def ydel(tq: float) -> float:
        if tq <= 0.0:
            v = float(history.at(tq))
            return v if v > 0.0 else 0.0
        i = state["ptr"]
        n = len(coefs)
        if i >= n:
            i = n - 1
        while i < n - 1 and knots[i + 1] < tq:
            i += 1
        while i > 0 and knots[i] > tq:
            i -= 1
        state["ptr"] = i
        th = (tq - knots[i]) / widths[i]
        if th > 1.0:
            th = 1.0
        c = coefs[i]
        v = c[0] + th * (c[1] + th * (c[2] + th * (c[3] + th * c[4])))
        return v if v > 0.0 else 0.0

    def deriv(tq: float, yq: float) -> float:
        qn = yq if yq > 0.0 else 0.0
        qd = ydel(tq - tau)
        bn = f * ths / (ths + qn**s)
        bd = f * ths / (ths + qd**s)
        return -(kappa + bn) * qn + A * bd * qd

    hmax = min(tau, t_end)
    h = min(1e-3 * tau if fixed_step is None else fixed_step, hmax)

    t = 0.0
    k1 = deriv(0.0, y)
    stop_idx = 0
    rejected = False
    n_steps = 0

    while t < t_end:
        n_steps += 1
        if n_steps > _MAX_STEPS:
            raise RuntimeError(f"exceeded {_MAX_STEPS} steps at t={t}")
        s_next = stops[stop_idx]
        h_try = h if h < hmax else hmax
        landing = False
        if t + h_try >= s_next - 1e-12 * max(1.0, s_next):
            h_try = s_next - t
            landing = True
        if h_try < 1e-13 * max(1.0, t):
            raise StepSizeUnderflow(t)

        k2 = deriv(t + _C2 * h_try, y + h_try * (_A21 * k1))
        k3 = deriv(t + _C3 * h_try, y + h_try * (_A31 * k1 + _A32 * k2))
        k4 = deriv(t + _C4 * h_try, y + h_try * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = deriv(t + _C5 * h_try, y + h_try * (_A51 * k1 + _A52 * k2
                                                 + _A53 * k3 + _A54 * k4))
        k6 = deriv(t + h_try, y + h_try * (_A61 * k1 + _A62 * k2 + _A63 * k3
                                           + _A64 * k4 + _A65 * k5))
        ynew = y + h_try * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = deriv(t + h_try, ynew)

        if fixed_step is not None:
            err = 0.0
        else:
            e = h_try * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5
                         + _E6 * k6 + _E7 * k7)
            sc = atol + rtol * max(abs(y), abs(ynew))
            err = abs(e) / sc

        if err <= 1.0:
            dy = ynew - y
            bspl = h_try * k1 - dy
            c4 = dy - h_try * k7 - bspl
            c5 = h_try * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5
                          + _D6 * k6 + _D7 * k7)
            coefs.append((y, dy + bspl, -bspl + c4 + c5, -c4 - 2.0 * c5, c5))
            widths.append(h_try)
            if landing:
                t = s_next
                stop_idx += 1
                while stop_idx < len(stops) and stops[stop_idx] <= t:
                    stop_idx += 1
                if stop_idx >= len(stops):
                    stop_idx = len(stops) - 1  # only reachable once t == t_end
            else:
                t = t + h_try
            knots.append(t)
            y = ynew
            k1 = k7
            if fixed_step is None:
                fac = 10.0 if err == 0.0 else 0.9 * err**-0.2
                facmax = 1.0 if rejected else 5.0
                h = h_try * min(facmax, max(0.2, fac))
            rejected = False
        else:
            rejected = True
            h = h_try * max(0.1, 0.9 * err**-0.2)

    return Trajectory(params=p, history=history, knots=np.asarray(knots),
                      coeffs=np.asarray(coefs))


# ---------------------------------------------------------------------------
# the compiled step loop

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_KERNEL_CACHE = Path(__file__).with_name(".kernel_cache")
_CC = "gcc"
# IEEE arithmetic as written: no fused multiply-add, no flag that relaxes IEEE
# semantics or tunes for the build machine
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_UNTRIED = object()
_lib = _UNTRIED
_fallback = ""  # why the compiled kernel is not in use, once that is known


def _kernel():
    """The compiled kernel, built on the first call; None where it cannot be
    built or loaded, or where it fails its load-time checks."""
    global _lib
    if _lib is _UNTRIED:
        _lib = _load_kernel()
    return _lib


def kernel_status():
    """What steps adaptive runs and roots events in this process:
    "compiled", or {"python": why the compiled kernel is not in use}."""
    return "compiled" if _kernel() is not None else {"python": _fallback}


def _load_kernel():
    global _fallback
    import ctypes
    import hashlib
    import subprocess
    import tempfile

    cmd = [_CC, *_CFLAGS]
    try:
        source = _KERNEL_SOURCE.read_bytes()
        key = hashlib.sha256(source + "\0".join(cmd).encode()).hexdigest()
        path = _KERNEL_CACHE / f"kernel-{key[:16]}.so"
        if not path.exists():
            _KERNEL_CACHE.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=_KERNEL_CACHE)
            os.close(fd)
            try:
                subprocess.run(cmd + ["-o", tmp, str(_KERNEL_SOURCE), "-lm"],
                               check=True, capture_output=True,
                               stdin=subprocess.DEVNULL, timeout=300)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            # builds of earlier sources; another process may still use one
            for stale in _KERNEL_CACHE.glob("kernel-*.so"):
                if stale != path:
                    try:
                        stale.unlink()
                    except OSError:
                        pass
        lib = ctypes.CDLL(str(path))
    except FileNotFoundError as exc:
        _fallback = (f"no compiler: {_CC} not found" if exc.filename == _CC
                     else f"build error: {exc}")
        return None
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.decode(errors="replace").strip().splitlines()
        _fallback = "build error: " + (lines[-1] if lines else str(exc))
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        _fallback = f"build error: {exc}"
        return None
    ptr, dbl, n = ctypes.c_void_p, ctypes.c_double, ctypes.c_long
    out = ctypes.POINTER
    lib.hsc_history_at.restype = None
    lib.hsc_history_at.argtypes = [ptr, ptr, ptr, n, ptr, n, ptr]
    lib.hsc_integrate.restype = ctypes.c_int
    lib.hsc_integrate.argtypes = [
        ptr, ptr, ptr, ptr, n, ptr, n, dbl, dbl, dbl, dbl, dbl,
        ctypes.c_longlong, out(ptr), out(ptr), out(n), out(dbl)]
    lib.hsc_free.restype = None
    lib.hsc_free.argtypes = [ptr]
    lib.hsc_event_roots.restype = n
    lib.hsc_event_roots.argtypes = [ptr, n, ctypes.c_int, dbl, ptr, ptr]
    lib.hsc_lyapunov_block.restype = ctypes.c_int
    lib.hsc_lyapunov_block.argtypes = [n, n, n, n] + [ptr] * 10
    if not _reads_match(lib):
        _fallback = "failed load-time check: history reads differ from History.at"
        return None
    if not _roots_match(lib):
        _fallback = "failed load-time check: event roots differ from the Python port"
        return None
    return lib


def _history_args(history: History):
    """The cosine constants and the spline arrays (or None) of a history,
    as the compiled loop takes them."""
    cosine = np.array([history.base, history.amplitude, history.w], float)
    if history.x is None:
        return cosine, None, None, 0
    x = np.ascontiguousarray(history.x, dtype=float)
    c = np.ascontiguousarray(history.c, dtype=float)
    if x.ndim != 1 or x.size < 2 or c.shape != (4, x.size - 1):
        raise ValueError("a spline history needs n + 1 breaks and (4, n) "
                         "coefficients")
    return cosine, x, c, x.size


def _address(a):
    return None if a is None else a.ctypes.data


def _reads_match(lib) -> bool:
    """True when the compiled history read equals ``History.at`` bit for bit
    on a fixed spline history (its clip active) and a fixed cosine history,
    read one time at a time as the Python loop reads them."""
    tau = 2.8
    ts = np.linspace(-tau, 0.0, 17)
    t = np.concatenate([np.linspace(-tau, 0.0, 301), ts, [-tau - 1e-3, 1e-3]])
    for h in (History.sampled(ts, np.maximum(np.sin(4.0 * ts), 0.0)),
              History(tau, base=1.1, amplitude=0.5, w=2.0 * math.pi / tau)):
        cosine, x, c, nx = _history_args(h)
        got = np.empty_like(t)
        lib.hsc_history_at(cosine.ctypes.data, _address(x), _address(c), nx,
                           t.ctypes.data, t.size, got.ctypes.data)
        want = np.array([float(h.at(v)) for v in t])
        if got.tobytes() != want.tobytes():
            return False
    return True


def _roots_match(lib) -> bool:
    """True when the compiled event roots equal their Python port bit for
    bit, in both modes, on a fixed block of quartics: products of four
    roots in and around [0, 1), the rows of a double root, a triple root
    and degree drops, and flat rows."""
    rng = np.random.default_rng(3)
    rows = [[1.0, 0.3, -0.5, 0.1, 0.0], [1.0, 0.75, -1.5, 1.0, 0.0],
            [0.25, -1.0, 1.0, 0.0, 0.0], [-0.125, 0.75, -1.5, 1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0], [0.0] * 5]
    for roots in rng.uniform(-0.25, 1.25, (24, 4)):
        c = np.array([rng.uniform(-2.0, 2.0)])
        for r in roots:
            c = np.convolve(c, [-r, 1.0])
        rows.append(c)
    coefs = np.array(rows)
    for mode, level in ((_EXTREMA, 0.0), (_LEVEL, 0.0), (_LEVEL, 1.03)):
        got = _compiled_event_roots(lib, coefs, mode, level)
        want = _python_event_roots(coefs, mode, level)
        if any(a.tobytes() != b.tobytes() for a, b in zip(got, want)):
            return False
    return True


def _compiled_loop(lib, p: ModelParams, history: History, t_end: float,
                   rtol: float, atol: float) -> Trajectory:
    """``_python_loop`` for adaptive runs, stepped by ``_kernel.c``."""
    import ctypes

    stops = np.array(_stops(p, history, t_end, rtol, atol))
    ths = p.theta**p.s
    model = np.array([p.kappa, p.f * ths, ths, p.s, p.amplification, p.tau],
                     float)
    cosine, x, c, nx = _history_args(history)
    hmax = min(p.tau, t_end)
    h = min(1e-3 * p.tau, hmax)
    knots, coefs = ctypes.c_void_p(), ctypes.c_void_p()
    n, t_fail = ctypes.c_long(), ctypes.c_double()
    status = lib.hsc_integrate(
        model.ctypes.data, cosine.ctypes.data, _address(x), _address(c), nx,
        stops.ctypes.data, stops.size, t_end, rtol, atol, hmax, h, _MAX_STEPS,
        ctypes.byref(knots), ctypes.byref(coefs), ctypes.byref(n),
        ctypes.byref(t_fail))
    if status == 1:
        raise StepSizeUnderflow(t_fail.value)
    if status == 2:
        raise RuntimeError(f"exceeded {_MAX_STEPS} steps at t={t_fail.value}")
    if status == 3:  # as Python's float power reports it
        raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
    if status == 4:
        raise MemoryError("integrator output buffers")
    # copied by address: np.ctypeslib.as_array would cache a new ctypes
    # array type for every run length, and the process would keep growing
    out = np.empty(n.value + 1), np.empty((n.value, 5))
    for dst, src in zip(out, (knots, coefs)):
        ctypes.memmove(dst.ctypes.data, src, dst.nbytes)
        lib.hsc_free(src)
    return Trajectory(params=p, history=history, knots=out[0], coeffs=out[1])


# ---------------------------------------------------------------------------
# event detection on the dense output

_DEGENERATE_CURVATURE = 1e-12
_EXTREMA, _LEVEL = 0, 1  # the two modes of the event-root search
_EPS = sys.float_info.epsilon


def _event_roots(coefs: np.ndarray, mode: int, level: float = 0.0):
    """Segment (row of the (n, 5) quartics ``coefs``) and theta of every
    event root in [0, 1), ordered by segment, then theta: the roots of the
    derivative cubics for ``_EXTREMA``, of the quartics less ``level`` for
    ``_LEVEL``, on the candidate segments.  From the compiled kernel where
    it is in use, else from its Python port; the two agree bit for bit."""
    lib = _kernel()
    if lib is None:
        return _python_event_roots(coefs, mode, level)
    return _compiled_event_roots(lib, coefs, mode, level)


def _compiled_event_roots(lib, coefs, mode, level):
    coefs = np.ascontiguousarray(coefs, dtype=float)
    cap = (4 if mode == _LEVEL else 3) * len(coefs)
    seg, theta = np.empty(cap, np.int64), np.empty(cap)
    n = lib.hsc_event_roots(coefs.ctypes.data, len(coefs), mode, level,
                            seg.ctypes.data, theta.ctypes.data)
    return seg[:n], theta[:n]


def _python_event_roots(coefs, mode, level):
    """``hsc_event_roots`` of ``_kernel.c`` in Python: the fallback, and the
    load-time check of the compiled search."""
    C = np.asarray(coefs, dtype=float)
    scale = 1e-13 * np.maximum(1.0, np.abs(C[:, 0]))
    if mode == _EXTREMA:
        P = C[:, 1:] * np.array([1.0, 2.0, 3.0, 4.0])  # w * Q' in theta
        d1, d2, d3, d4 = np.abs(P).T
        # a flat segment (constant solution to roundoff) has no genuine extrema
        cand = (d1 <= d2 + d3 + d4) & ~(d1 + d2 + d3 + d4 < scale)
    else:
        P = C.copy()
        P[:, 0] -= level
        spread = np.abs(P[:, 1:]).sum(axis=1)
        # running exactly along the level is not a crossing
        cand = (np.abs(P[:, 0]) <= spread) & (spread >= scale)
    seg, theta = [], []
    for i, row in zip(np.nonzero(cand)[0].tolist(), P[cand].tolist()):
        for r in _unit_roots(row, len(row) - 1):
            seg.append(i)
            theta.append(r)
    return np.array(seg, np.int64), np.array(theta, float)


def _horner(c, d, x):
    v = c[d]
    for k in range(d - 1, -1, -1):
        v = c[k] + x * v
    return v


def _unit_roots(c, d):
    """Real roots in [0, 1) of c[0] + c[1]*x + ... + c[d]*x**d, ascending.

    Trailing zero coefficients lower the degree, and a constant has none.
    The critical points (the same search on the derivative, closed form for
    a linear one) cut [0, 1] into monotone pieces, and each sign change is
    bisected down to adjacent doubles.  A critical point where |p| is within
    Horner's rounding error (d*eps times the sum over |c[k]|*x**k) counts as
    a multiple root and is reported once.
    """
    while d > 0 and c[d] == 0.0:
        d -= 1
    if d == 0:
        return []
    if d == 1:
        r = -c[0] / c[1]
        return [0.0 if r == 0.0 else r] if 0.0 <= r < 1.0 else []
    x = [0.0]
    for r in _unit_roots([c[k] * k for k in range(1, d + 1)], d - 1):
        if r > x[-1]:
            x.append(r)
    x.append(1.0)
    v = [_horner(c, d, t) for t in x]
    size = [abs(a) for a in c]
    zero = [f == 0.0 or (0 < j < len(x) - 1
                         and abs(f) <= d * _EPS * _horner(size, d, x[j]))
            for j, f in enumerate(v)]
    out = []
    for j in range(len(x) - 1):
        if zero[j]:
            out.append(x[j])
        elif not zero[j + 1] and (v[j] < 0.0) != (v[j + 1] < 0.0):
            out.append(_bisect(c, d, x[j], v[j], x[j + 1], v[j + 1]))
    return out


def _bisect(c, d, a, fa, b, fb):
    """A root between a and b, where p(a) and p(b) are nonzero and of
    opposite sign: the end of the last bracket with the smaller |p|, below 1."""
    while True:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = _horner(c, d, m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return b if abs(fb) < abs(fa) and b < 1.0 else a


def _window_roots(traj: Trajectory, mode: int, level: float, t_start: float,
                  t_end: float):
    """Segment index, theta and time of the event roots that fall in the
    window."""
    i0, i1 = traj.segment_range(t_start, t_end)
    seg, th = _event_roots(traj.coeffs[i0:i1], mode, level)
    seg = seg + i0
    te = traj.knots[seg] + th * traj.widths[seg]
    inside = (te >= t_start - 1e-12) & (te <= t_end + 1e-12)
    return seg[inside], th[inside], te[inside]


def find_extrema(traj: Trajectory, t_start: float = 0.0,
                 t_end: float | None = None) -> list[Event]:
    """Local maxima/minima of the solution, located where Q' = 0 on each
    segment's derivative cubic, with a second-derivative sign test.
    Events with |Q''| below 1e-12 are flagged degenerate."""
    if t_end is None:
        t_end = traj.t_end
    seg, th, te = _window_roots(traj, _EXTREMA, 0.0, t_start, t_end)
    e2, e3, e4 = (traj.coeffs[seg, 2:] * np.array([2.0, 3.0, 4.0])).T
    w = traj.widths[seg]
    ypp = (e2 + th * (2.0 * e3 + 3.0 * th * e4)) / (w * w)
    values = traj(te)
    rising = values >= traj(traj.knots[seg])
    events = []
    for t, v, q, up in zip(te.tolist(), values.tolist(), ypp.tolist(),
                           rising.tolist()):
        if abs(q) < _DEGENERATE_CURVATURE:
            events.append(Event(t, "max" if up else "min", v,
                                direction="degenerate"))
        else:
            events.append(Event(t, "max" if q < 0 else "min", v))
    return _dedupe(events)


def find_level_crossings(traj: Trajectory, level: float,
                         direction: str = "both", t_start: float = 0.0,
                         t_end: float | None = None) -> list[Event]:
    """Times where Q(t) crosses the given level, located on each segment's
    shifted quartic, with crossing direction from the sign of Q'.
    Tangential touches are reported as degenerate."""
    if direction not in ("up", "down", "both"):
        raise ValueError("direction must be 'up', 'down' or 'both'")
    if t_end is None:
        t_end = traj.t_end
    _, _, te = _window_roots(traj, _LEVEL, level, t_start, t_end)
    slopes = traj.derivative(te)
    values = traj(te)
    events = []
    for t, v, slope in zip(te.tolist(), values.tolist(), slopes.tolist()):
        if abs(slope) < 1e-10 * max(1.0, abs(level)):
            d = "degenerate"
        else:
            d = "up" if slope > 0 else "down"
        if direction != "both" and d != direction:
            continue
        events.append(Event(t, "level", v, level=level, direction=d))
    return _dedupe(events)


def _dedupe(events: list[Event]) -> list[Event]:
    events.sort(key=lambda e: e.t)
    out: list[Event] = []
    for e in events:
        if out and abs(e.t - out[-1].t) <= 1e-9 * max(1.0, abs(e.t)) \
                and e.kind == out[-1].kind:
            continue
        out.append(e)
    return out


def detect_events(traj: Trajectory, *, extrema: bool = True,
                  levels: tuple = (), t_start: float = 0.0,
                  t_end: float | None = None) -> list[Event]:
    """Ordered event log over the requested window.

    ``levels`` is an iterable of (level, direction) pairs or bare levels
    (meaning both directions).
    """
    events: list[Event] = []
    if extrema:
        events.extend(find_extrema(traj, t_start, t_end))
    for spec in levels:
        if isinstance(spec, (tuple, list)):
            lvl, d = spec
        else:
            lvl, d = spec, "both"
        events.extend(find_level_crossings(traj, lvl, d, t_start, t_end))
    events.sort(key=lambda e: e.t)
    return events


def history_from_trajectory(traj: Trajectory, t_right: float,
                            tau: float) -> History:
    """Sampled history built from the last ``tau`` time units of a solution
    ending at ``t_right`` (used to carry a state across a parameter sweep)."""
    if t_right - tau < -traj.params.tau - 1e-12:
        raise ValueError("trajectory too short to supply one full delay")
    ts = np.linspace(t_right - tau, t_right, _CARRY_POINTS)
    vals = np.maximum(traj(ts), 0.0)
    return History.sampled(ts - t_right, vals)
