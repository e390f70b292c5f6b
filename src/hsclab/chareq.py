"""Linear stability machinery for the delay model.

Linearising the model about a reference concentration gives

    z'(t) = a*z(t) + b*z(t - tau)

whose eigenvalues solve the transcendental characteristic equation

    p(lambda) = lambda - a - b*exp(-lambda*tau) = 0.

Every root is lambda_k = a + W_k(b*tau*exp(-a*tau))/tau on exactly one
Lambert-W branch k.  This module computes the linearisation coefficients,
real roots (branches 0 and -1 of an in-house real Lambert-W), complex roots
(one value per complex branch, cross-checked by an argument-principle
winding count), the stability-region classification with its boundary
curve, critical delays, and one-parameter Hopf-point location; the last
two share one sign-crossing scan refined by brentq (_sign_crossings).

All functions are pure; nothing here mutates shared state.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .model import (ModelParams, _hill_far, h_and_G, h_prime_level,
                    steady_state, existence_bounds)

__all__ = [
    "LinearizationCoeffs",
    "CharRoot",
    "CriticalDelays",
    "StabilityAssessment",
    "IncompleteRootCoverageWarning",
    "EmptyRootWindow",
    "lambert_w",
    "coeffs_at",
    "linearize_at",
    "char_value",
    "real_roots",
    "complex_roots",
    "winding_number",
    "rightmost_complex_pair",
    "rightmost_root",
    "real_part_cap",
    "stability_region",
    "critical_delays",
    "hopf_locus_1p",
    "lambertw_coalescence",
    "c0_curve",
]

_INV_E = math.exp(-1.0)


class IncompleteRootCoverageWarning(UserWarning):
    """A root search could not be reconciled with the winding count."""


class EmptyRootWindow(ValueError):
    """re_min lies at or above re_max, the top of the root search window."""

    def __init__(self, re_max: float):
        super().__init__("empty search window: re_min above the root cap")
        self.re_max = re_max


# ---------------------------------------------------------------------------
# Lambert W (real branches 0 and -1)

def lambert_w(branch: int, x: float) -> float:
    """Real Lambert-W: the solution w of w*exp(w) = x on the given branch.

    Branch 0 is defined for x >= -1/e and returns w >= -1; branch -1 for
    -1/e <= x < 0 and returns w <= -1.  Halley iteration from a
    branch-appropriate seed; near the branch point -1/e a square-root
    expansion seed is used.  Converges to w*e^w = x within ~1e-15 relative.
    """
    if branch not in (0, -1):
        raise ValueError("branch must be 0 or -1")
    if math.isnan(x):
        raise ValueError("x must be a number")

    rad = 2.0 * (math.e * x + 1.0)
    if rad < 0.0:
        if rad > -1e-12:
            rad = 0.0
        else:
            raise ValueError(f"x={x} below the branch point -1/e")
    if branch == -1 and x >= 0.0:
        raise ValueError(f"branch -1 requires x < 0, got x={x}")

    # seed
    if rad == 0.0:
        return -1.0
    p = math.sqrt(rad)
    if branch == 0:
        if x > 1e300:
            # solve w + log(w) = log(x) to avoid overflow of e^w
            return _w_from_log(math.log(x))
        if x < -0.31:  # close to the branch point
            w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
        elif x < 2.0:
            w = math.log1p(x) if x > -0.25 else x * (1.0 - x)
            if w <= -1.0:
                w = -0.99
        else:
            lx = math.log(x)
            w = lx - math.log(lx)
    else:
        if x > -0.31:  # tail towards 0-
            l1 = math.log(-x)
            l2 = math.log(-l1)
            w = l1 - l2 + l2 / l1
        else:
            w = -1.0 - p - p * p / 3.0 - 11.0 * p**3 / 72.0

    # Halley
    for _ in range(100):
        ew = math.exp(w)
        fw = w * ew - x
        if fw == 0.0:
            break
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * fw / (2.0 * wp1)
        dw = fw / denom
        w -= dw
        if branch == -1 and w > -1.0:
            w = -1.0 - 1e-16
        if branch == 0 and w < -1.0:
            w = -1.0 + 1e-16
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def _w_from_log(lx):
    # Newton on g(w) = w + log(w) - lx, safe where x = e^lx is out of double
    # range; a real lx gives W_0, a complex lx = log x + 2*pi*i*k gives W_k,
    # and a real lx far below -1 gives W_-1(-e^lx) through log|w|
    log = (lambda w: math.log(abs(w))) if isinstance(lx, float) else cmath.log
    w = lx - log(lx)
    for _ in range(60):
        dw = (w + log(w) - lx) / (1.0 + 1.0 / w)
        w -= dw
        if abs(dw) <= 1e-16 * abs(w):
            break
    return w


def _wm1_from_log(lx: float) -> float:
    """W_{-1}(-e^lx) for lx < -1, solved from lx itself where -e^lx is
    subnormal or underflows to -0.0 (W_0 of it is then 0-)."""
    return lambert_w(-1, -math.exp(lx)) if lx > -700.0 else _w_from_log(lx)


# ---------------------------------------------------------------------------
# coefficients and roots

@dataclass(frozen=True)
class LinearizationCoeffs:
    """Coefficients (a, b) of z' = a z + b z(t-tau) plus the delay itself."""

    a: float
    b: float
    tau: float


@dataclass(frozen=True)
class CharRoot:
    """A characteristic value with its normalized residual.

    Complex roots are stored with nonnegative imaginary part and stand for a
    conjugate pair.  residual = |p(lambda)| / max(1, |lambda|).
    """

    lam: complex
    residual: float
    kind: str  # "real" | "complex-pair"

    @property
    def re(self) -> float:
        return self.lam.real

    @property
    def im(self) -> float:
        return self.lam.imag


def _safe_cexp(w: complex) -> complex:
    # clamp the magnitude so contour points far left of the roots cannot
    # overflow; roots satisfy |exp(-lam*tau)| = |lam-a|/|b|, far below this
    if w.real > 690.0:
        w = complex(690.0, w.imag)
    return cmath.exp(w)


def char_value(c: LinearizationCoeffs, lam: complex) -> complex:
    """p(lambda) = lambda - a - b*exp(-lambda*tau)."""
    return lam - c.a - c.b * _safe_cexp(-lam * c.tau)


def _make_root(c: LinearizationCoeffs, lam: complex) -> CharRoot:
    if lam.imag < 0:
        lam = lam.conjugate()
    res = abs(char_value(c, lam)) / max(1.0, abs(lam))
    kind = "real" if lam.imag == 0.0 else "complex-pair"
    return CharRoot(lam=lam, residual=res, kind=kind)


def coeffs_at(Q: float, p: ModelParams) -> LinearizationCoeffs:
    """Linearisation coefficients a = -kappa - h'(Q), b = A*h'(Q) at any
    reference concentration (no steady-state requirement)."""
    hp = h_and_G(Q, p).h_prime
    return LinearizationCoeffs(a=-p.kappa - hp, b=p.amplification * hp, tau=p.tau)


def linearize_at(Q_eq: float, p: ModelParams) -> LinearizationCoeffs:
    """Linearisation at a steady state; rejects non-equilibrium points.

    The residual check uses the steady-state balance G(Q_eq) = 0 scaled by
    the natural flux f*max(Q_eq, theta).
    """
    g = h_and_G(Q_eq, p).G
    if abs(g) > 1e-8 * p.f * max(Q_eq, p.theta):
        raise ValueError(
            f"Q_eq={Q_eq} is not a steady state (drift residual {g:.3e})"
        )
    return coeffs_at(Q_eq, p)


def real_roots(c: LinearizationCoeffs) -> list[CharRoot]:
    """All real characteristic values, via the Lambert-W reduction
    lambda = a + W(b*tau*exp(-a*tau))/tau.

    b > 0 gives exactly one real root; b < 0 gives two, one, or zero roots
    depending on whether b*tau*exp(-a*tau) lies above, at, or below -1/e.
    """
    a, b, tau = c.a, c.b, c.tau
    if b == 0.0:
        return [_make_root(c, complex(a))]
    arg = -a * tau + math.log(abs(b) * tau)
    if b > 0.0:
        if arg > 690.0:  # e^arg would overflow; log-space solve
            w = _w_from_log(arg)
        else:
            w = lambert_w(0, math.exp(arg))
        return [_make_root(c, complex(a + w / tau))]
    x = -math.exp(arg) if arg < 690.0 else -math.inf
    if x < -_INV_E:
        if x > -_INV_E * (1.0 + 1e-13):
            return [_make_root(c, complex(a - 1.0 / tau))]  # coalesced double root
        return []
    if x == -_INV_E:
        return [_make_root(c, complex(a - 1.0 / tau))]
    roots = [
        _make_root(c, complex(a + lambert_w(0, x) / tau)),
        _make_root(c, complex(a + _wm1_from_log(arg) / tau)),
    ]
    roots.sort(key=lambda r: -r.re)
    return roots


def real_part_cap(c: LinearizationCoeffs) -> float:
    """An upper bound r* on the real part of every characteristic value:
    the unique solution of r = a + |b|*exp(-r*tau), which is the real root
    a + W_0(|b|*tau*exp(-a*tau))/tau of the equation with |b| (real_roots)."""
    return real_roots(LinearizationCoeffs(c.a, abs(c.b), c.tau))[0].re


def _upper_roots(c: LinearizationCoeffs, k_max: int):
    """The roots a + W_k(x)/tau, x = b*tau*exp(-a*tau), on the branches
    k <= k_max that lie in the upper half plane, rightmost first (b != 0).

    For real x, (2k-2)*pi < Im W_k(x) < (2k+1)*pi for k >= 1, and W_0 is
    complex only when x < -1/e; the other branches hold the real roots and
    the conjugates.
    """
    from scipy.special import lambertw

    arg = -c.a * c.tau + math.log(abs(c.b) * c.tau)  # log|x|
    for k in range(0 if c.b < 0.0 and arg > -1.0 else 1, k_max + 1):
        if abs(arg) < 700.0:
            w = complex(lambertw(math.copysign(math.exp(arg), c.b), k))
        else:  # x out of double range: solve W + log W = log x + 2*pi*i*k
            w = _w_from_log(complex(arg, math.pi * (2 * k + (c.b < 0.0))))
        lam = c.a + w / c.tau
        if lam.imag > 1e-12 * max(1.0, abs(lam)):
            yield lam


def complex_roots(c: LinearizationCoeffs, re_min: float,
                  im_max: float) -> list[CharRoot]:
    """Conjugate-pair characteristic values in the window
    re_min <= Re <= re_max, 0 < Im <= im_max, whose top re_max =
    real_part_cap(c) + 1 lies above every root.

    Every root is a + W_k(b*tau*exp(-a*tau))/tau on exactly one Lambert-W
    branch k (Corless et al., Adv. Comput. Math. 5 (1996) 329).  The
    branches with k <= floor(im_max*tau/(2 pi)) + 2 cover the window; each
    is evaluated once.  The count is verified against an argument-principle
    winding integral over the window, and a mismatch is reported as an
    IncompleteRootCoverageWarning.  Real roots are excluded (see
    real_roots).
    """
    if im_max <= 0:
        raise ValueError("im_max must be positive")
    if c.b == 0.0:
        return []
    re_max = real_part_cap(c) + 1.0
    if re_max <= re_min:
        raise EmptyRootWindow(re_max)

    # the count first: its contour bounds the window, and so k_max
    target = _expected_pair_count(c, re_min, re_max, im_max)
    k_max = int(im_max * c.tau / (2.0 * math.pi)) + 2
    pairs = [z for z in _upper_roots(c, k_max)
             if re_min <= z.real <= re_max and z.imag <= im_max]
    if target is not None and len(pairs) != target:
        warnings.warn(
            f"root search found {len(pairs)} conjugate pairs but the winding "
            f"count implies {target} in [{re_min},{re_max}]x[0,{im_max}]",
            IncompleteRootCoverageWarning,
        )
    roots = [_make_root(c, z) for z in pairs]
    roots.sort(key=lambda r: (-r.re, r.im))
    return roots


def _expected_pair_count(c, re_min, re_max, im_max) -> int | None:
    """Winding count of the rectangle minus the real roots inside, halved."""
    delta = 1e-7 * max(1.0, abs(re_max), abs(im_max))
    for attempt in range(6):
        d = delta * (1 << attempt)
        try:
            n = winding_number(c, re_min - d, re_max + d, -(im_max + d), im_max + d)
        except _BoundaryRootError:
            continue
        n_real = sum(1 for r in real_roots(c) if re_min - d < r.re < re_max + d)
        if (n - n_real) % 2:
            continue  # a real root sits near the vertical edges; nudge again
        return (n - n_real) // 2
    return None


class _BoundaryRootError(RuntimeError):
    pass


# caps one winding count near 1.5 s and 40 MB; the default root window of
# the CLI needs about 100 samples
_MAX_CONTOUR_SAMPLES = 10**6


def winding_number(c: LinearizationCoeffs, re_min: float, re_max: float,
                   im_min: float, im_max: float) -> int:
    """Number of characteristic values inside the rectangle, by integrating
    the argument of p(lambda) along the boundary (adaptive refinement).
    Raises ValueError for a rectangle too large to sample."""
    corners = [
        complex(re_min, im_min),
        complex(re_max, im_min),
        complex(re_max, im_max),
        complex(re_min, im_max),
    ]
    perimeter = 2.0 * (abs(re_max - re_min) + abs(im_max - im_min))
    if 4.0 * perimeter * c.tau / math.pi > _MAX_CONTOUR_SAMPLES:
        raise ValueError("search window too large: the winding contour "
                         f"needs more than {_MAX_CONTOUR_SAMPLES} samples")
    total = 0.0
    for k in range(4):
        z0, z1 = corners[k], corners[(k + 1) % 4]
        n0 = max(16, int(4.0 * abs(z1 - z0) * c.tau / math.pi) + 1)
        zs = [z0 + (z1 - z0) * j / n0 for j in range(n0 + 1)]
        ps = [char_value(c, z) for z in zs]
        for j in range(n0):
            total += _arg_increment(c, zs[j], zs[j + 1], ps[j], ps[j + 1], 0)
    n = total / (2.0 * math.pi)
    if abs(n - round(n)) > 1e-3:
        raise _BoundaryRootError("winding integral did not close to an integer")
    return int(round(n))


def _arg_increment(c, z0, z1, p0, p1, depth) -> float:
    scale = max(1.0, abs(z0), abs(z1))
    if abs(p0) < 1e-13 * scale or abs(p1) < 1e-13 * scale:
        raise _BoundaryRootError("characteristic value on the contour")
    d = cmath.phase(p1 / p0)
    if abs(d) <= math.pi / 2.0:
        return d
    if depth >= 52:
        raise _BoundaryRootError("contour refinement exhausted")
    zm = 0.5 * (z0 + z1)
    pm = char_value(c, zm)
    return (_arg_increment(c, z0, zm, p0, pm, depth + 1)
            + _arg_increment(c, zm, z1, pm, p1, depth + 1))


def rightmost_complex_pair(c: LinearizationCoeffs) -> CharRoot | None:
    """The conjugate pair with the largest real part, or None when b = 0
    and there are no complex roots.

    For real x the real parts of the branch values fall as |k| grows, so
    the pair is on the principal branch when x < -1/e and on branch 1
    otherwise.
    """
    if c.b == 0.0:
        return None
    return _make_root(c, next(_upper_roots(c, 1)))


def rightmost_root(c: LinearizationCoeffs) -> CharRoot:
    """The characteristic value (real or complex pair) of largest real part.

    This is the principal-branch value a + W_0(x)/tau (Shinozaki & Mori,
    Automatica 42 (2006) 1791): the largest real root where one exists, and
    the principal-branch pair otherwise.
    """
    reals = real_roots(c)
    if reals:
        return reals[0]
    return rightmost_complex_pair(c)


# ---------------------------------------------------------------------------
# stability region

def c0_curve(n: int = 257) -> np.ndarray:
    """n >= 1 samples of the stability boundary C0 in the (a*tau, b*tau)
    plane, the same for every (a, b, tau): (omega, omega*cot(omega),
    -omega*csc(omega)) for omega in [0, pi), from the limit (0, 1, -1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    om = np.linspace(0.0, math.pi, n, endpoint=False)
    a_tau = np.empty_like(om)
    b_tau = np.empty_like(om)
    a_tau[0], b_tau[0] = 1.0, -1.0  # omega -> 0 limit
    a_tau[1:] = om[1:] * np.cos(om[1:]) / np.sin(om[1:])
    b_tau[1:] = -om[1:] / np.sin(om[1:])
    return np.column_stack([om, a_tau, b_tau])


@dataclass(frozen=True)
class StabilityAssessment:
    """The state of the steady state and the critical delay of (a, b)."""

    state: str  # "stable" | "unstable" | "boundary"
    tau1: float | None  # critical delay for these (a, b); inf if none binds


def stability_region(c: LinearizationCoeffs) -> StabilityAssessment:
    """Classify the steady state of z' = a z + b z(t-tau).

    Unstable when b > -a (a real root is positive); stable for every delay
    when b lies between a and -a (with a < 0); otherwise stable exactly for
    tau < tau1(a, b) = arccos(-a/b) / sqrt(b^2 - a^2).  Sitting on the
    boundary curve is reported as the distinct state "boundary"; downstream
    sweep logic treats it as not stable.  The boundary curve itself is
    c0_curve.
    """
    a, b, tau = c.a, c.b, c.tau
    if a == 0.0 and b == 0.0:
        return StabilityAssessment("boundary", None)
    if b > -a:
        return StabilityAssessment("unstable", None)
    if b == -a:
        return StabilityAssessment("boundary", None)
    if b >= a:
        return StabilityAssessment("stable", math.inf)
    # wedge b < -|a|: finite critical delay
    tau1 = _tau1(a, b)
    if abs(tau - tau1) <= 1e-12 * max(1.0, tau1):
        return StabilityAssessment("boundary", tau1)
    state = "stable" if tau < tau1 else "unstable"
    return StabilityAssessment(state, tau1)


# ---------------------------------------------------------------------------
# critical delays and Hopf loci

_TAU_SCAN = 10_000     # grid points of the delay scan in critical_delays
# |gap|/tau below which a grid value's sign is left to the scalar gap: far
# above the grid's disagreement with it near 0 (about 1e-13*tau)
_GAP_ROUNDING = 1e-8


@dataclass(frozen=True)
class CriticalDelays:
    """Delay landmarks as the delay is varied with other parameters held.

    tau1_minus/tau1_plus: the pair of delays where the steady state loses
    and regains stability (solutions of the implicit equation
    tau = tau1(a(tau), b(tau)); the amplification depends on tau, which is
    why there can be two).  tau2: the delay beyond which b > 0 and stability
    is delay-independent.  tau_max: the existence bound for the nontrivial
    state.  Absent values are None.
    """

    tau1_minus: float | None
    tau1_plus: float | None
    tau2: float | None
    tau_max: float


def _tau1(a: float, b: float) -> float:
    """tau1(a, b) = arccos(-a/b) / sqrt(b^2 - a^2), the critical delay of
    z' = a z + b z(t-tau) in the wedge b < -|a|; nan outside it."""
    if not (b < 0.0 and b < a and -b > abs(a)):
        return math.nan
    return math.acos(-a / b) / math.sqrt(b * b - a * a)


def _coeffs_with(p: ModelParams, vary: str,
                 v: float) -> LinearizationCoeffs | None:
    """The linearisation at the nontrivial steady state with parameter
    ``vary`` set to v; None where that state does not exist."""
    pv = p.with_(**{vary: v})
    qs = steady_state(pv).nontrivial
    if qs is None:
        return None
    return coeffs_at(qs, pv)


def _tau1_gap(p: ModelParams, tau: float) -> float:
    """tau - tau1(a(tau), b(tau)); nan outside the wedge b < -|a|."""
    c = _coeffs_with(p, "tau", tau)
    if c is None:
        return math.nan
    return tau - _tau1(c.a, c.b)


def _tau1_gap_grid(p: ModelParams, taus: np.ndarray) -> np.ndarray:
    """_tau1_gap at every delay of ``taus`` in one numpy pass.

    The same formulas on arrays: A(tau), Q*(tau), h'(Q*), a, b and the
    wedge test, with h' alone in the operations and order of h_and_G's
    array path (model._hill, and model._hill_far where (theta^s + Q*^s)^2
    overflows).  Each step writes into one of four buffers of the grid's
    size, made once per call.  numpy's exp, log, power and arccos round
    differently from the math module's, so the values are close to the
    scalar ones, not equal: within about 1e-13*tau where the gap is small,
    and 4e-10 relative where tau1 grows without bound at the wedge edge
    b = a (Table 1 and 400 ensemble sets).
    """
    A, u, v, w = (np.empty_like(taus, dtype=float) for _ in range(4))
    ths = p.theta**p.s
    with np.errstate(all="ignore"):
        np.multiply(-p.gamma, taus, out=u)
        np.exp(u, out=A)
        A *= 2.0
        np.subtract(A, 1.0, out=u)
        u *= p.f
        u /= p.kappa
        u -= 1.0  # the radicand f*(A - 1)/kappa - 1
        np.log(u, out=v)
        v /= p.s
        np.exp(v, out=w)
        w *= p.theta
        w[~(u > 0.0)] = np.nan  # Q*
        np.power(w, p.s, out=u)
        np.add(u, ths, out=v)
        np.square(v, out=v)  # (theta^s + Q*^s)^2
        u *= 1.0 - p.s
        u += ths
        u *= p.f * ths
        u /= v  # h'(Q*)
        far = np.isinf(v)
        if far.any():
            u[far] = _hill_far(w[far], p)[1]
        np.subtract(-p.kappa, u, out=v)  # a
        A *= u  # b
        np.negative(A, out=u)
        np.abs(v, out=w)
        wedge = u > w  # -b > |a|, so b < 0 and b < a as well
        np.negative(v, out=w)
        w /= A
        np.arccos(w, out=w)
        np.multiply(A, A, out=u)
        v *= v
        u -= v
        np.sqrt(u, out=u)
        w /= u
        np.subtract(taus, w, out=w)
        w[~wedge] = np.nan
    return w


def _bracket_candidates(taus: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Indices i of the grid pairs (i, i+1) on which the scalar gap may
    start a crossing, judged from the grid values ``gaps``.

    A pair is quiet when both ends are nan, or both lie clearly on one side
    of 0 (further than _GAP_ROUNDING*tau from it); every other pair, and the
    pair on each side of it, is a candidate.  The neighbours cover a sign
    change or nan edge that the grid puts one point off the scalar gap's.
    """
    state = np.where(gaps > 0.0, 1, -1)
    state[np.isnan(gaps)] = 0
    state[np.abs(gaps) <= _GAP_ROUNDING * taus] = 2  # sign not trusted
    loud = np.flatnonzero((state[:-1] != state[1:]) | (state[:-1] == 2))
    near = np.concatenate([loud - 1, loud, loud + 1])
    return np.unique(near[(near >= 0) & (near < len(taus) - 1)])


def _sign_crossings(fn, grid: np.ndarray, pairs: np.ndarray) -> list[float]:
    """Where the scalar ``fn`` crosses 0 on the grid pairs (i, i+1) listed
    in ``pairs`` (increasing indices), in grid order.

    fn is evaluated at the ends of those pairs.  A pair with a nan end
    holds no crossing, an end at 0 is a crossing (reported once where two
    pairs share it), and a sign change is refined by brentq on fn.  The
    grid may run either way.
    """
    from scipy.optimize import brentq

    ends = np.union1d(pairs, pairs + 1)
    vals = np.full_like(grid, np.nan)
    vals[ends] = [fn(x) for x in grid[ends]]
    crossings: list[float] = []
    for i in pairs.tolist():
        v0, v1 = vals[i], vals[i + 1]
        if math.isnan(v0) or math.isnan(v1):
            continue
        if v0 == 0.0 or v1 == 0.0:
            x = float(grid[i] if v0 == 0.0 else grid[i + 1])
        elif (v0 < 0.0) != (v1 < 0.0):
            x = brentq(fn, grid[i], grid[i + 1], xtol=1e-12)
        else:
            continue
        if not crossings or x != crossings[-1]:
            crossings.append(x)
    return crossings


def critical_delays(p: ModelParams) -> CriticalDelays:
    """Delay landmarks for the given parameter set (tau itself is scanned).

    The gap tau - tau1(a(tau), b(tau)) of the implicit equation
    tau = tau1(a(tau), b(tau)) is evaluated on a uniform grid over
    (0, tau_max) in one numpy pass, which picks the few grid pairs that
    can hold a crossing.  On those pairs the scalar gap decides
    (_sign_crossings), and brentq refines each sign change on it.
    Elsewhere the grid values are far enough from 0 that the scalar gap
    has their sign.
    """
    _, tau_max = existence_bounds(p)
    if tau_max <= 0.0:  # no delay has a nontrivial state
        return CriticalDelays(None, None, _tau2(p), tau_max)
    if not math.isfinite(tau_max) or tau_max > 1e8:
        # the existence bound never binds on any physical horizon and the
        # amplification is effectively independent of tau: tau1 is fixed
        c = _coeffs_with(p, "tau", 1.0)
        t1m = math.nan if c is None else _tau1(c.a, c.b)
        return CriticalDelays(None if math.isnan(t1m) else t1m, None,
                              _tau2(p), tau_max)

    lo = tau_max * 1e-9
    grid = np.linspace(lo, tau_max * (1.0 - 1e-12), _TAU_SCAN)
    pairs = _bracket_candidates(grid, _tau1_gap_grid(p, grid))
    crossings = _sign_crossings(lambda t: _tau1_gap(p, t), grid, pairs)
    if len(crossings) > 2:
        warnings.warn(f"{len(crossings)} stability crossings in tau; "
                      "reporting the outermost pair")
    t1m = crossings[0] if crossings else None
    t1p = crossings[-1] if len(crossings) >= 2 else None
    return CriticalDelays(t1m, t1p, _tau2(p), tau_max)


def _tau2(p: ModelParams) -> float | None:
    if p.s == 1.0:
        return None
    arg = 0.5 * (1.0 + p.kappa * p.s / (p.f * (p.s - 1.0)))
    if arg >= 1.0:
        return None
    return -math.log(arg) / p.gamma


def hopf_locus_1p(p: ModelParams, vary: str, lo: float, hi: float,
                  n_scan: int = 400) -> list[tuple[float, float]]:
    """Parameter values in [lo, hi] where the steady state's rightmost
    characteristic value crosses the imaginary axis as a conjugate pair.

    The scan tracks the real part of the rightmost root overall, the
    principal-branch value a + W_0(x)/tau: it moves continuously even when
    a complex pair collides into two real roots, as happens between the
    model's two Hopf points.  Its sign changes on n_scan points from lo to
    hi are refined by brentq (_sign_crossings).  Returns (value, omega)
    tuples with omega the crossing frequency.
    """
    if vary not in {field.name for field in fields(ModelParams)}:
        raise ValueError(f"unknown parameter {vary!r}")

    def rightmost_re(v: float) -> float:
        c = _coeffs_with(p, vary, v)
        return math.nan if c is None else rightmost_root(c).re

    grid = np.linspace(lo, hi, n_scan)
    out: list[tuple[float, float]] = []
    for v in _sign_crossings(rightmost_re, grid, np.arange(n_scan - 1)):
        root = rightmost_root(_coeffs_with(p, vary, v))
        if root.kind == "complex-pair":
            out.append((v, root.im))
    return out


# ---------------------------------------------------------------------------
# Lambert-W branch coalescence landmarks

def _coalescence_levels(p: ModelParams) -> tuple[float, float] | None:
    """The h' levels W_0(x0)/tau and W_{-1}(x0)/tau of the coalescence
    landmarks, x0 = -exp(-1 - kappa*tau)/A; None when x0 <= -1/e (no real
    branch).  W_{-1} comes from log(-x0) = -1 - kappa*tau - log(A), so a
    kappa*tau above about 745, which underflows x0 to -0.0, leaves it
    finite and makes W_0 the level 0-."""
    lx0 = -1.0 - p.kappa * p.tau - math.log(p.amplification)
    x0 = -math.exp(lx0)
    if x0 <= -_INV_E:
        return None
    return lambert_w(0, x0) / p.tau, _wm1_from_log(lx0) / p.tau


def lambertw_coalescence(p: ModelParams) -> tuple[float | None, float | None]:
    """The interval of reference concentrations around Q* on which the
    characteristic equation has no real roots.

    Its ends are where b*tau*exp(-a*tau) = -1/e, i.e. where
    h'(Q)*tau hits W_0 resp. W_{-1} of x0 = -exp(-1 - kappa*tau)/A and the
    two real roots coalesce; each end is a closed-form solution of
    h'(Q) = level (model.h_prime_level).  The gap opens where h' first falls
    to W_0(x0)/tau and closes where it falls to W_{-1}(x0)/tau or, when its
    dip is shallower, where it recovers to W_0(x0)/tau; an underflowed
    shallow level 0- is recovered only at infinity (right end None).
    Returns (None, None) when the regime is absent (s <= 1, no real branch,
    or h' never reaches the shallow level).
    """
    levels = _coalescence_levels(p)
    if levels is None:
        return None, None
    t0, tm1 = levels
    shallow = h_prime_level(t0, p)
    if not shallow:
        return None, None
    deep = h_prime_level(tm1, p)
    if deep:
        return shallow[0], deep[0]
    return shallow[0], (shallow[-1] if t0 < 0.0 else None)


def real_root_rebound(p: ModelParams) -> float | None:
    """Upper concentration bound of the two-real-root window beyond the
    coalescence gap: the larger solution of h'(Q)*tau = W_{-1}(x0), where
    h' re-crosses the deep level on its recovering side and the pair of
    (positive) real roots vanishes again; None when h' never reaches it."""
    levels = _coalescence_levels(p)
    if levels is None:
        return None
    deep = h_prime_level(levels[1], p)
    return deep[-1] if deep else None
