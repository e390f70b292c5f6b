"""Slow-manifold toolkit for the relaxation-oscillation regime.

When the amplification barely exceeds one, the model is a singular
perturbation of an equation with a whole line of equilibria, and long-period
orbits drift along a slow manifold in the (Q(t), Q(t-tau)) embedding.  This
module computes the singular parameters, the Q'=0 nullcline, two
approximations of the slow manifold (a delay-expansion one and one built
from the real characteristic value of the locally linearised equation), the
linearised solutions near the manifold, and the concentration landmarks at
which the local behaviour changes.

Every landmark solves h'(Q) = c for a constant c and is taken in closed form
from model.h_prime_level; the nullcline is solved by brentq on the
monotone pieces between the turning points that the same function gives.

The grids of a profile and of a nullcline table are solved by the compiled
kernel (``hsc_manifold_roots`` and ``hsc_nullcline`` of ``_kernel.c``, see
``_native``), equal bit for bit to the Python here, which stays as the
fallback of the whole grid where the kernel is not in use and of each point
that the kernel leaves to it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .model import (TABLE1_SPEC, ModelParams, derive_homeostasis, h_and_G,
                    h_prime_level, steady_state)
from . import _native, chareq

__all__ = [
    "SingularForm",
    "SlowManifoldPoint",
    "CanardLandmarks",
    "RegimeError",
    "NoRealRootGap",
    "ManifoldSingularity",
    "singular_params",
    "critical_manifold_stability_switch",
    "nullcline",
    "nullcline_grid",
    "slow_manifold_naive",
    "slow_manifold_linearized",
    "slow_manifold_profile",
    "linearized_solution",
    "landmarks",
]


class RegimeError(ValueError):
    """The parameters are outside the slow-fast regime."""


class NoRealRootGap(ValueError):
    """The reference concentration lies in the interval around the steady
    state where the characteristic equation has no real roots."""

    def __init__(self, q_r: float, gap: tuple[float, float]):
        super().__init__(
            f"Q_r={q_r} lies inside the no-real-root interval {gap}")
        self.q_r = q_r
        self.gap = gap


class ManifoldSingularity(ValueError):
    """The delay-expansion manifold formula is singular at this point."""


@dataclass(frozen=True)
class SingularForm:
    """Perturbation decomposition: epsilon = A - 1 and C = epsilon*f/kappa.

    The nontrivial steady state theta*(C-1)^(1/s) depends on C only, not on
    epsilon, and exists exactly when C > 1.
    """

    epsilon: float
    C: float
    theta: float
    s: float

    def steady_state(self) -> float | None:
        if self.C <= 1.0:
            return None
        return self.theta * math.exp(math.log(self.C - 1.0) / self.s)


def singular_params(p: ModelParams) -> SingularForm:
    """Decompose the parameters into the singular form."""
    eps = p.amplification - 1.0
    if eps <= 0.0:
        raise RegimeError(f"amplification {1.0 + eps} is not above 1")
    return SingularForm(epsilon=eps, C=eps * p.f / p.kappa, theta=p.theta, s=p.s)


def critical_manifold_stability_switch(p: ModelParams) -> float | None:
    """Concentration at which the line of singular-limit equilibria changes
    stability, i.e. where h'(Q) = -1/tau.

    Of the closed-form solutions (model.h_prime_level) the one nearest the
    steady state (theta when there is none) is returned, or None when h'
    never falls to -1/tau.
    """
    qs = h_prime_level(-1.0 / p.tau, p)
    if not qs:
        return None
    ref = steady_state(p).nontrivial
    if ref is None:
        ref = p.theta
    return min(qs, key=lambda q: abs(q - ref))


# ---------------------------------------------------------------------------
# nullcline

# brentq's absolute tolerance, negligible so its relative one (4 ulps) governs
_XTOL = 1e-300
_RTOL = 4 * sys.float_info.epsilon  # brentq's default, and its least
# brentq's iteration bound.  Bisection alone shrinks the widest bracket
# nullcline gives it ([0, DBL_MAX], below 2**1024) to the tolerance
# (xtol/2, above 2**-998) in 2022 halvings; this bound is twice that, so
# only a stalled solve stops.  scipy's default of 100 stopped good solves on
# [0, Q_h] with the root far below Q_h: across 300 ensemble sets and values
# from 1e-323 to 0.1 the most was 158 iterations.
_MAXITER = 4044


def nullcline(p: ModelParams, given: str, value: float) -> list[float]:
    """Companion values on the Q' = 0 nullcline: every nonnegative
    solution in increasing order, possibly none.

    With ``given="q_now"`` the delayed value y solves
    A*h(y) = kappa*value + h(value), which turns where h' = 0; with
    ``given="q_delayed"`` the current value q solves
    kappa*q + h(q) = A*h(value), which turns where h' = -kappa.  Between
    the turning points (model.h_prime_level) the equation is monotone: each
    piece whose ends differ in sign is solved by brentq, and the unbounded
    last piece is widened by doubling while the function keeps its sign and
    still approaches zero (the tail of h is bounded at s = 1), up to the top
    of the double range, where h is its limit (model.h_and_G).  A solution
    at a turning point is returned once.
    """
    from scipy.optimize import brentq

    if value < 0.0:
        raise ValueError("concentrations are nonnegative")
    A = p.amplification
    ths = p.theta**p.s

    def flux(q):
        try:
            return p.f * ths * q / (ths + q**p.s)
        except OverflowError:  # q**s beyond the double range
            return h_and_G(q, p).h

    if given == "q_now":
        level = p.kappa * value + flux(value)
        fn = lambda y: A * flux(y) - level
        turns = h_prime_level(0.0, p)
    elif given == "q_delayed":
        level = A * flux(value)
        fn = lambda q: p.kappa * q + flux(q) - level
        turns = h_prime_level(-p.kappa, p)
    else:
        raise ValueError("given must be 'q_now' or 'q_delayed'")
    if level == 0.0:
        return [0.0]
    ends = [0.0, *turns]
    vals = [fn(x) for x in ends]
    roots = [x for x, v in zip(ends, vals) if v == 0.0]
    for a, b, fa, fb in zip(ends, ends[1:], vals, vals[1:]):
        if min(fa, fb) < 0.0 < max(fa, fb):
            roots.append(brentq(fn, a, b, xtol=_XTOL, maxiter=_MAXITER))
    a, fa = ends[-1], vals[-1]
    if fa != 0.0:
        b = max(2.0 * a, p.theta)
        fb = fn(b)
        while 0.0 < fb / fa < 1.0:  # same sign, still approaching zero
            a, fa, b = b, fb, min(2.0 * b, math.nextafter(math.inf, 0.0))
            fb = fn(b)
        if fb / fa <= 0.0:
            roots.append(brentq(fn, a, b, xtol=_XTOL, maxiter=_MAXITER))
    return sorted(roots)


_GIVEN = {"q_now": 0, "q_delayed": 1}  # the given forms as hsc_nullcline takes them


def nullcline_grid(p: ModelParams, given: str, values) -> list[list[float]]:
    """``nullcline(p, given, v)`` for each v of ``values``: from the
    compiled kernel where it is in use, else, and at each value it leaves
    to Python, from ``nullcline`` itself; the two agree bit for bit."""
    values = [float(v) for v in values]
    lib = _kernel()
    if lib is None or given not in _GIVEN:
        return [nullcline(p, given, v) for v in values]
    return _compiled_nullcline(lib, p, given, values)


def _compiled_nullcline(lib, p, given, values):
    """``nullcline_grid`` by ``hsc_nullcline``, each value it leaves to
    Python solved by ``nullcline``."""
    turns = np.array(h_prime_level(0.0 if given == "q_now" else -p.kappa, p),
                     float)
    ths = p.theta**p.s
    model = np.array([p.kappa, p.f * ths, ths, p.s, p.amplification,
                      p.theta, _XTOL, _RTOL])
    v = np.array(values, float)
    count = np.empty(v.size, np.int64)
    roots = np.empty((v.size, 2 * (turns.size + 1)))
    lib.hsc_nullcline(model.ctypes.data, _GIVEN[given], turns.ctypes.data,
                      turns.size, v.ctypes.data, v.size, _MAXITER,
                      count.ctypes.data, roots.ctypes.data)
    return [row[:k] if k >= 0 else nullcline(p, given, x)
            for x, k, row in zip(values, count.tolist(), roots.tolist())]


# ---------------------------------------------------------------------------
# slow-manifold approximations

def slow_manifold_naive(Q: float, p: ModelParams) -> float:
    """Delay-expansion approximation: replace the delayed flux by its
    first-order expansion along the solution, giving the delayed coordinate

        Q_tau = ((1 + kappa*tau + A*tau*h'(Q))*Q - tau*(A-1)*h(Q))
                / (1 + A*tau*h'(Q)).
    """
    A = p.amplification
    hv = h_and_G(Q, p)
    den = 1.0 + A * p.tau * hv.h_prime
    if abs(den) < 1e-12:
        raise ManifoldSingularity(f"expansion denominator vanishes at Q={Q}")
    num = (1.0 + p.kappa * p.tau + A * p.tau * hv.h_prime) * Q \
        - p.tau * (A - 1.0) * hv.h
    return num / den


@dataclass(frozen=True)
class SlowManifoldPoint:
    """One point of the linearisation-based manifold approximation."""

    Q_r: float
    lam: float       # real characteristic value of the local linearisation
    Q_prime: float   # drift lam * G / G'
    Q_tau: float     # delayed coordinate Q_r - tau * Q_prime
    regime: str      # below_Qf | Qf_to_Qh | above_Qhp


@dataclass(frozen=True)
class CanardLandmarks:
    """Concentration landmarks of the slow-fast structure."""

    Q_f: float             # drift maximum (G' = 0)
    Q_h: float | None      # flux maximum (h' = 0)
    Q_star: float          # nontrivial steady state
    switch: float | None   # singular-limit stability switch
    gap: tuple[float | None, float | None]  # no-real-root interval ends
    rebound: float | None  # upper end of the two-positive-real-root window


def landmarks(p: ModelParams) -> CanardLandmarks:
    """Landmarks of the slow-fast structure, each a closed-form solution of
    h'(Q) = c (model.h_prime_level): Q_f at c = kappa/(A-1), Q_h at c = 0,
    the switch at c = -1/tau, the gap ends and rebound at Lambert-W levels."""
    qs = steady_state(p).nontrivial
    if qs is None:
        raise RegimeError("no nontrivial steady state at these parameters")
    # Q* exists, so 0 < kappa/(A-1) < f = h'(0): exactly one solution
    q_f = h_prime_level(p.kappa / (p.amplification - 1.0), p)[0]
    turns = h_prime_level(0.0, p)
    return CanardLandmarks(
        Q_f=q_f, Q_h=turns[0] if turns else None, Q_star=qs,
        switch=critical_manifold_stability_switch(p),
        gap=chareq.lambertw_coalescence(p), rebound=chareq.real_root_rebound(p),
    )


def slow_manifold_linearized(Q_r: float, p: ModelParams,
                             marks: CanardLandmarks | None = None) -> SlowManifoldPoint:
    """Manifold point from the real characteristic value of the equation
    linearised about Q_r.

    Below the no-real-root gap the principal branch root is used (it is the
    positive root below the drift maximum and the negative one above);
    beyond the gap the smaller of the two positive roots is taken.  Inside
    the gap a NoRealRootGap is raised; plotting code is expected to leave
    the interval empty rather than interpolate across it.
    """
    if not Q_r > 0.0:
        raise ValueError("Q_r must be positive")
    if marks is None:
        marks = landmarks(p)
    _outside_gap(Q_r, marks)
    return _manifold_point(Q_r, p, marks, *_python_manifold_values(Q_r, p))


def _python_manifold_values(Q_r: float, p: ModelParams):
    """h(Q_r), h'(Q_r) and the real roots of the linearisation there:
    ``hsc_manifold_roots`` of ``_kernel.c`` in Python."""
    roots = [r.re for r in chareq.real_roots(chareq.coeffs_at(Q_r, p))]
    hv = h_and_G(Q_r, p)
    return hv.h, hv.h_prime, roots


def _outside_gap(Q_r: float, marks: CanardLandmarks) -> None:
    q_lo, q_hi = marks.gap
    if q_lo is not None and q_hi is not None and q_lo < Q_r < q_hi:
        raise NoRealRootGap(Q_r, (q_lo, q_hi))


def _manifold_point(Q_r, p, marks, h, h_prime, roots) -> SlowManifoldPoint:
    """The manifold point at Q_r from h(Q_r), h'(Q_r) and the real roots
    there (chareq.real_roots), outside the gap."""
    q_lo, q_hi = marks.gap
    if not roots:
        raise NoRealRootGap(Q_r, (q_lo, q_hi))
    if q_hi is not None and Q_r >= q_hi:
        lam = min(roots)  # smaller of the two positive roots
        regime = "above_Qhp"
    else:
        lam = max(roots)  # principal-branch root
        regime = "below_Qf" if Q_r < marks.Q_f else "Qf_to_Qh"
    A = p.amplification
    G = (A - 1.0) * h - p.kappa * Q_r  # model.h_and_G
    G_prime = (A - 1.0) * h_prime - p.kappa
    if abs(G_prime) > 1e-12:
        q_prime = lam * G / G_prime
    else:
        # at the drift maximum both lam and G' vanish; use the limit ratio
        q_prime = G / (1.0 + A * h_prime * p.tau)
    q_tau = Q_r - p.tau * q_prime
    return SlowManifoldPoint(Q_r=Q_r, lam=lam, Q_prime=q_prime,
                             Q_tau=q_tau, regime=regime)


def slow_manifold_profile(p: ModelParams, q_values) -> list[dict]:
    """Rows (Q_r, lambda, Q_prime, Q_tau, regime) over a concentration grid;
    points inside the no-real-root gap become typed gap markers."""
    marks = landmarks(p)
    qs = [float(q) for q in np.atleast_1d(q_values)]
    lib = _kernel()
    computed = ([None] * len(qs) if lib is None
                else _compiled_manifold_values(lib, p, qs))
    rows = []
    for q, got in zip(qs, computed):
        try:
            if got is None:
                pt = slow_manifold_linearized(q, p, marks)
            else:
                _outside_gap(q, marks)
                pt = _manifold_point(q, p, marks, *got)
            rows.append({"Q_r": pt.Q_r, "lambda": pt.lam,
                         "Q_prime": pt.Q_prime, "Q_tau": pt.Q_tau,
                         "regime": pt.regime})
        except NoRealRootGap:
            rows.append({"Q_r": q, "lambda": math.nan,
                         "Q_prime": math.nan, "Q_tau": math.nan,
                         "regime": "gap"})
    return rows


def _compiled_manifold_values(lib, p, qs):
    """(h, h', real roots) at each Q_r of qs from ``hsc_manifold_roots``,
    None where the point is left to the Python port."""
    ths = p.theta**p.s
    model = np.array([p.kappa, p.f * ths, ths, p.s, p.amplification, p.tau,
                      math.e, chareq._INV_E, 2.0, 3.0])
    q = np.array(qs, float)
    count = np.empty(q.size, np.int64)
    out = np.empty((q.size, 4))
    lib.hsc_manifold_roots(model.ctypes.data, q.ctypes.data, q.size,
                           out.ctypes.data, count.ctypes.data)
    return [None if k < 0 else (h, hp, roots[:k])
            for k, (h, hp, *roots) in zip(count.tolist(), out.tolist())]


def _grids_match(lib) -> bool:
    """True when the compiled nullcline and profile values equal their
    Python ports bit for bit (``repr`` tells -0.0 apart from 0.0), in both
    given forms, on the Fig. 10 parameters (every profile regime and the
    gap) and with a Hill coefficient below 1, at values from 0 to 1e3 that
    the kernel solves itself, and at profile values where glibc's
    pow(den, 2.0) is not den*den, whose h' a folded square would change."""
    fig10 = derive_homeostasis(replace(TABLE1_SPEC, gamma=0.2453692))
    values = [0.0, 1e-30, *np.linspace(0.005, 0.25, 8).tolist(), 1.0, 1e3]
    qs = values[1:] + [0.502, 0.677, 0.913, 0.916, 2.716]
    for p in (fig10, fig10.with_(s=0.7)):
        for given in _GIVEN:
            want = [nullcline(p, given, v) for v in values]
            if repr(_compiled_nullcline(lib, p, given, values)) != repr(want):
                return False
        got = _compiled_manifold_values(lib, p, qs)
        if any(g is not None and repr(g) != repr(_python_manifold_values(q, p))
               for q, g in zip(qs, got)):
            return False
    return True


def _kernel():
    """``_native.kernel()`` for a grid solve.  The grids' load-time check
    registers here, on the first solve of a process, not on import: a
    process that solves no grid does not run it."""
    _native.load_check(_grids_match, "slow-manifold grids differ from the "
                                     "Python ports")
    return _native.kernel()


def linearized_solution(Q_r: float, p: ModelParams, modes=()) :
    """Solution of the equation linearised about Q_r, as a callable of time.

    The monotone backbone Q_r + (exp(lam*t) - 1)*G/G' rides the real
    characteristic value; each extra mode (root, beta, gamma) adds
    exp(Re(root)*t) * (beta*cos(Im(root)*t) + gamma*sin(Im(root)*t)).
    Mode roots must actually solve the characteristic equation for the
    linearisation at Q_r.
    """
    pt = slow_manifold_linearized(Q_r, p)
    hv = h_and_G(Q_r, p)
    backbone = hv.G / hv.G_prime if abs(hv.G_prime) > 1e-12 else 0.0
    c = chareq.coeffs_at(Q_r, p)
    checked = []
    for root, b_coef, g_coef in modes:
        lam = root.lam if isinstance(root, chareq.CharRoot) else complex(root)
        res = abs(chareq.char_value(c, lam)) / max(1.0, abs(lam))
        if res > 1e-8:
            raise ValueError(
                f"mode root {lam} does not solve the characteristic equation "
                f"at Q_r={Q_r} (residual {res:.2e})")
        checked.append((lam, float(b_coef), float(g_coef)))

    def solution(t):
        t = np.asarray(t, dtype=float)
        out = Q_r + (np.exp(pt.lam * t) - 1.0) * backbone
        for lam, b_coef, g_coef in checked:
            out = out + np.exp(lam.real * t) * (
                b_coef * np.cos(lam.imag * t) + g_coef * np.sin(lam.imag * t))
        return float(out) if out.ndim == 0 else out

    return solution
