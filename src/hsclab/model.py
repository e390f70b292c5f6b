"""Core algebra of the stem-cell delay model.

Quiescent cells at concentration Q leave either by differentiation (constant
rate ``kappa``) or by entering the cell cycle at rate ``beta(Q)``, a
decreasing Hill function.  A cell that entered the cycle ``tau`` days earlier
returns as ``A = 2*exp(-gamma*tau)`` cells on average (mitosis minus
apoptosis), giving the delay equation

    Q'(t) = -(kappa + beta(Q(t))) * Q(t) + A * beta(Q(t-tau)) * Q(t-tau).

Everything in this module is a pure function of the parameter set.  Derived
quantities (A, the nontrivial steady state) are recomputed on demand rather
than cached on the parameter object, so parameter sweeps cannot desynchronise
them.

Units follow the calibration table: concentrations in 1e6 cells/kg, rates in
1/day, times in days.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelParams",
    "HomeostasisSpec",
    "SteadyStates",
    "CalibrationError",
    "beta",
    "amplification",
    "derive_homeostasis",
    "steady_state",
    "existence_bounds",
    "h_and_G",
    "h_prime_level",
    "nondimensionalize",
    "NondimensionalForm",
    "rhs",
    "params_to_dict",
    "params_from_dict",
    "spec_from_dict",
    "TABLE1_SPEC",
    "table1_params",
]


class CalibrationError(ValueError):
    """Raised when a homeostasis specification cannot be calibrated."""


def _check_positive(obj, what: str) -> None:
    """Raise unless each field of a model dataclass is finite and positive."""
    for name, v in vars(obj).items():  # faster than dataclasses.fields
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise ValueError(f"{what} {name!r} must be strictly positive, got {v!r}")


@dataclass(frozen=True)
class ModelParams:
    """The six model constants.

    kappa : differentiation rate (1/day)
    gamma : apoptosis rate during the cycle (1/day)
    tau   : cell-cycle duration (days)
    theta : half-effect concentration of the Hill function (1e6 cells/kg)
    f     : maximal cycle re-entry rate (1/day)
    s     : Hill coefficient (dimensionless)
    """

    kappa: float
    gamma: float
    tau: float
    theta: float
    f: float
    s: float

    def __post_init__(self):
        _check_positive(self, "parameter")

    @property
    def amplification(self) -> float:
        """A = 2*exp(-gamma*tau), always in (0, 2)."""
        return amplification(self.gamma, self.tau)

    def with_(self, **changes) -> "ModelParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class HomeostasisSpec:
    """Observable homeostasis quantities from which theta and kappa follow.

    Q_h is the resting-state concentration and beta_h = beta(Q_h) the
    resting-state cycle entry rate; f, s, gamma, tau as in ModelParams.
    """

    Q_h: float
    beta_h: float
    f: float
    s: float
    gamma: float
    tau: float

    def __post_init__(self):
        _check_positive(self, "spec field")


@dataclass(frozen=True)
class SteadyStates:
    """The trivial state Q=0 (always present) and the nontrivial one if any."""

    trivial: float
    nontrivial: float | None


#: Calibration-table homeostasis specification.
TABLE1_SPEC = HomeostasisSpec(Q_h=1.1, beta_h=0.043, f=8.0, s=2.0, gamma=0.1, tau=2.8)


def table1_params() -> ModelParams:
    """Model parameters calibrated to the homeostasis table, full precision."""
    return derive_homeostasis(TABLE1_SPEC)


def beta(Q, p: ModelParams):
    """Cycle re-entry rate: the Hill function f*theta^s / (theta^s + Q^s).

    Monotonically decreasing in Q with beta(0) = f and beta(theta) = f/2,
    and 0 where Q^s passes the double range.  Accepts scalars or arrays;
    negative concentrations are rejected.
    """
    if np.any(np.asarray(Q) < 0):
        raise ValueError("concentration must be nonnegative")
    ths = p.theta**p.s
    try:
        qs = Q**p.s
    except OverflowError:  # Python's float power raises where numpy's gives inf
        qs = math.inf
    return p.f * ths / (ths + qs)


def amplification(gamma: float, tau: float) -> float:
    """Division amplification factor 2*exp(-gamma*tau)."""
    if gamma < 0 or tau < 0:
        raise ValueError("gamma and tau must be nonnegative")
    return 2.0 * math.exp(-gamma * tau)


def derive_homeostasis(spec: HomeostasisSpec) -> ModelParams:
    """Calibrate theta and kappa so the given state is the exact steady state.

    Inverting beta(Q_h) = beta_h gives theta = Q_h*(f/beta_h - 1)^(-1/s);
    balancing the steady-state flux gives kappa = (A-1)*beta_h.  Requires
    0 < beta_h < f, otherwise the Hill inversion is undefined.
    """
    if spec.beta_h >= spec.f:
        raise CalibrationError(
            f"beta_h={spec.beta_h} must be below the maximal rate f={spec.f}"
        )
    A = amplification(spec.gamma, spec.tau)
    if A <= 1.0:
        raise CalibrationError(
            f"amplification A={A} <= 1: no positive steady state can be calibrated"
        )
    try:  # far specs can leave theta or kappa at 0 or inf, or overflow
        theta = spec.Q_h * math.exp(-math.log(spec.f / spec.beta_h - 1.0) / spec.s)
        return ModelParams(kappa=(A - 1.0) * spec.beta_h, gamma=spec.gamma,
                           tau=spec.tau, theta=theta, f=spec.f, s=spec.s)
    except (ValueError, OverflowError) as exc:
        raise CalibrationError(str(exc)) from None


def steady_state(p: ModelParams) -> SteadyStates:
    """Both steady states of the model.

    The nontrivial state Q* = theta*(f*(A-1)/kappa - 1)^(1/s) exists iff
    kappa < f*(A-1).  At the boundary the would-be Q* coincides with the
    trivial state and is reported as absent.
    """
    A = p.amplification
    radicand = p.f * (A - 1.0) / p.kappa - 1.0
    if radicand <= 0.0:
        return SteadyStates(trivial=0.0, nontrivial=None)
    qstar = p.theta * math.exp(math.log(radicand) / p.s)
    return SteadyStates(trivial=0.0, nontrivial=qstar)


def existence_bounds(p: ModelParams) -> tuple[float, float]:
    """Upper bounds (kappa_max, tau_max) for the nontrivial state to exist.

    kappa_max = f*(A-1) at the given gamma, tau; tau_max solves
    gamma*tau = ln(2f/(kappa+f)) at the given kappa.
    """
    kappa_max = p.f * (p.amplification - 1.0)
    tau_max = math.log(2.0 * p.f / (p.kappa + p.f)) / p.gamma
    return kappa_max, tau_max


class HGValues(NamedTuple):
    h: float
    h_prime: float
    G: float
    G_prime: float


def _hill(Q, p: ModelParams, ths: float):
    """h, h' and (theta^s + Q^s)^2, the denominator of h', in closed form."""
    qs = Q**p.s
    den = ths + qs
    den2 = den**2
    return p.f * ths * Q / den, p.f * ths * (ths + (1.0 - p.s) * qs) / den2, den2


def _hill_far(Q: np.ndarray, p: ModelParams):
    """h and h' in r = theta/Q, for Q where (theta^s + Q^s)^2 overflows."""
    with np.errstate(divide="ignore"):  # r = 0 at Q = inf when s < 1
        r = p.theta / Q
        rs = r**p.s
        return (p.f * p.theta * r**(p.s - 1.0) / (1.0 + rs),
                p.f * rs * (1.0 - p.s + rs) / (1.0 + rs)**2)


def h_and_G(Q, p: ModelParams) -> HGValues:
    """Cycle-entry flux h(Q) = Q*beta(Q), net drift G(Q) = (A-1)h(Q) - kappa*Q,
    and their derivatives in closed form.

    G vanishes exactly at the steady states; its sign is the sign of Q'.
    Accepts scalars or arrays.  Where (theta^s + Q^s)^2 leaves the double
    range, h and h' are taken in r = theta/Q instead,

        h = f*theta*r^(s-1)/(1 + r^s),  h' = f*r^s*(1 - s + r^s)/(1 + r^s)^2,

    which stay finite and reach the limits at Q = inf: h -> 0 for s > 1 and
    f*theta at s = 1, h' -> 0.
    """
    ths = p.theta**p.s
    if type(Q) in (float, int):  # Python scalars: no array round trip
        if Q < 0:
            raise ValueError("concentration must be nonnegative")
        try:
            h, h_prime, den2 = _hill(Q, p, ths)
        except OverflowError:  # Python's pow raises where numpy's warns
            den2 = math.inf
        if den2 == math.inf:
            h, h_prime = (x.item() for x in _hill_far(np.array(Q, float), p))
    else:
        if np.any(np.asarray(Q) < 0):
            raise ValueError("concentration must be nonnegative")
        with np.errstate(all="ignore"):
            h, h_prime, den2 = _hill(Q, p, ths)
            far = np.isinf(den2)
            if np.any(far):
                h_far, hp_far = _hill_far(np.asarray(Q, dtype=float), p)
                h = np.where(far, h_far, h)[()]
                h_prime = np.where(far, hp_far, h_prime)[()]
    A = p.amplification
    G = (A - 1.0) * h - p.kappa * Q
    G_prime = (A - 1.0) * h_prime - p.kappa
    return HGValues(h, h_prime, G, G_prime)


def h_prime_level(c: float, p: ModelParams) -> list[float]:
    """Every positive Q with h'(Q) = c, in increasing order.

    In u = (Q/theta)^s, h'(Q) = f*(1 + (1-s)*u)/(1+u)^2, so these are the
    positive roots of c*u^2 + (2c + (s-1)*f)*u + c - f = 0, with
    discriminant f*((s-1)^2*f + 4*c*s).  The larger root is taken without
    cancellation and the other from Vieta's product; c = 0 leaves one
    finite root, and the double root at the minimum of h' is one solution.
    Q is formed in log space, so a far root of a tiny level stays finite.
    """
    s, f = p.s, p.f
    disc = f * ((s - 1.0)**2 * f + 4.0 * c * s)
    if disc < 0.0:
        return []
    b = 2.0 * c + (s - 1.0) * f
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    ratios = [(q, c), (c - f, q)] if disc > 0.0 else [(q, c)]
    return sorted(p.theta * math.exp((math.log(abs(num)) - math.log(abs(den))) / s)
                  for num, den in ratios if den != 0.0 and num / den > 0.0)


@dataclass(frozen=True)
class NondimensionalForm:
    """Scaled form of the model: time in units of tau, concentration of theta.

    The dynamics then depend only on (f_hat, kappa_hat, s, A_hat).
    """

    f_hat: float
    kappa_hat: float
    s: float
    A_hat: float
    time_scale: float
    conc_scale: float

    def mapped_params(self) -> ModelParams:
        """A parameter set whose raw dynamics equal the scaled equation.

        Simulating these parameters with delay 1 and half-effect 1 and then
        rescaling t -> t/time_scale, Q -> Q/conc_scale reproduces the
        original trajectory (used as a cross-simulation check).
        """
        return ModelParams(
            kappa=self.kappa_hat * self.f_hat,
            gamma=-math.log(self.A_hat / 2.0),
            tau=1.0,
            theta=1.0,
            f=self.f_hat,
            s=self.s,
        )


def nondimensionalize(p: ModelParams) -> NondimensionalForm:
    """Reduce the six parameters to the four that control the dynamics."""
    return NondimensionalForm(
        f_hat=p.tau * p.f,
        kappa_hat=p.kappa / p.f,
        s=p.s,
        A_hat=p.amplification,
        time_scale=p.tau,
        conc_scale=p.theta,
    )


def rhs(q_now: float, q_delayed: float, p: ModelParams) -> float:
    """Right-hand side of the delay equation at given current/delayed values."""
    if q_now < 0 or q_delayed < 0:
        raise ValueError("concentration must be nonnegative")
    A = p.amplification
    return -(p.kappa + beta(q_now, p)) * q_now + A * beta(q_delayed, p) * q_delayed


# ---------------------------------------------------------------------------
# serialization

def params_to_dict(p: ModelParams) -> dict:
    return {field.name: getattr(p, field.name) for field in fields(p)}


def _from_dict(cls, d: dict, what: str):
    names = [field.name for field in fields(cls)]
    missing = [k for k in names if k not in d]
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")
    extra = [k for k in d if k not in names]
    if extra:
        raise ValueError(f"unknown {what} keys: {extra}")
    return cls(**{k: float(d[k]) for k in names})


def params_from_dict(d: dict) -> ModelParams:
    return _from_dict(ModelParams, d, "parameter")


def spec_from_dict(d: dict) -> HomeostasisSpec:
    return _from_dict(HomeostasisSpec, d, "homeostasis")
