"""Long-run dynamical diagnostics.

Poincare sections and their planar projection, delay embeddings, period
estimation by section-return segment matching, hysteresis orbit-diagram
sweeps with history carry-over, Lyapunov spectra by QR re-orthonormalisation
of a perturbation bundle, and the Kaplan-Yorke dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams
from .integrator import (History, Trajectory, StepSizeUnderflow, integrate,
                         find_extrema, find_level_crossings,
                         history_from_trajectory)
# integrate_variational and orthonormalize are bound here, though the
# interval loop calls neither, so that perfbench/tracer.py can rebind them
from .variational import (PerturbationBundle, _advance_block, _weight_blocks,
                          integrate_variational, orthonormalize)

__all__ = [
    "PoincareCrossing",
    "poincare_section",
    "PeriodEstimate",
    "estimate_period",
    "delay_embedding",
    "SweepPoint",
    "SweepResult",
    "orbit_diagram",
    "LyapunovSpan",
    "lyapunov_span",
    "LyapunovSpectrum",
    "lyapunov_spectrum",
    "KaplanYorke",
    "kaplan_yorke",
]


# ---------------------------------------------------------------------------
# Poincare sections

@dataclass(frozen=True)
class PoincareCrossing:
    """One transversal crossing of the section: the crossing time, the
    solution segment over the trailing delay interval, and the planar
    projection (Q(t-tau), Q(t-tau/2))."""

    t: float
    segment: np.ndarray
    projection: tuple[float, float]


def poincare_section(traj: Trajectory, alpha: float, level: float,
                     direction: str = "up", t_start: float = 0.0,
                     t_end: float | None = None,
                     n_segment: int = 129) -> list[PoincareCrossing]:
    """All times t in the window with Q(t - alpha) = level crossed in the
    given direction.  alpha in [0, tau] anchors the section inside the
    trailing solution segment; the projection always uses the offsets tau
    and tau/2 from the segment's right end."""
    tau = traj.params.tau
    if not 0.0 <= alpha <= tau:
        raise ValueError("alpha must lie in [0, tau]")
    if t_end is None:
        t_end = traj.t_end
    if t_end - t_start <= tau:
        raise ValueError("window must span more than one delay")
    s_lo = max(t_start - alpha, 0.0)
    s_hi = t_end - alpha
    hits = find_level_crossings(traj, level, direction, s_lo, s_hi)
    out: list[PoincareCrossing] = []
    for e in hits:
        t = e.t + alpha
        if t > traj.t_end or t - tau < -tau:
            continue
        seg = traj(np.linspace(t - tau, t, n_segment))
        proj = (float(traj(t - tau)), float(traj(t - tau / 2.0)))
        out.append(PoincareCrossing(t=t, segment=seg, projection=proj))
    return out


# ---------------------------------------------------------------------------
# period estimation

@dataclass(frozen=True)
class PeriodEstimate:
    status: str            # "periodic" | "aperiodic" | "insufficient-data"
    period: float | None
    returns_per_period: int | None
    n_returns: int
    level: float


def estimate_period(traj: Trajectory, window: tuple[float, float], *,
                    level: float | None = None, match_rtol: float = 1e-6,
                    n_mesh: int = 129, max_lag: int = 20) -> PeriodEstimate:
    """Period from the spacing of section returns whose trailing segments
    match in sup norm over one delay.

    A phase-locked orbit returning to the section L times per period is
    recognised by matching at lag L.  An aperiodic verdict requires at
    least ``max_lag`` returns without any match; fewer returns give
    "insufficient-data".
    """
    t0, t1 = window
    tau = traj.params.tau
    if level is None:
        ts = np.linspace(t0, t1, 4096)
        vals = traj(ts)
        level = 0.5 * (float(vals.min()) + float(vals.max()))
    hits = find_level_crossings(traj, level, "up", t0, t1)
    times = [e.t for e in hits if e.direction == "up" and e.t - tau >= t0 - tau]
    n_ret = len(times)
    if n_ret < 3:
        return PeriodEstimate("insufficient-data", None, None, n_ret, level)

    mesh = np.linspace(-tau, 0.0, n_mesh)
    segs: dict[int, np.ndarray] = {}

    def seg(i: int) -> np.ndarray:
        if i not in segs:
            segs[i] = traj(times[i] + mesh)
        return segs[i]

    def matches(i: int, j: int) -> bool:
        a, b = seg(i), seg(j)
        scale = max(float(np.max(np.abs(a))), 1e-300)
        return float(np.max(np.abs(a - b))) <= match_rtol * scale

    ref = n_ret - 1
    for lag in range(1, min(max_lag, ref) + 1):
        if not matches(ref, ref - lag):
            continue
        spacings = []
        for j in range(min(6, ref - lag + 1)):
            i = ref - j
            if i - lag < 0 or not matches(i, i - lag):
                break
            spacings.append(times[i] - times[i - lag])
        if spacings:
            return PeriodEstimate("periodic", float(np.mean(spacings)),
                                  lag, n_ret, level)
    if ref >= max_lag:
        return PeriodEstimate("aperiodic", None, None, n_ret, level)
    return PeriodEstimate("insufficient-data", None, None, n_ret, level)


# ---------------------------------------------------------------------------
# delay embedding

def delay_embedding(traj: Trajectory, lags, sampling: float,
                    t_start: float | None = None,
                    t_end: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly sampled tuples (Q(t), Q(t-lag_1), ...).

    Returns (times, points) with one row per sample.  Lags up to the delay
    are served by the history for early times; the sampling window is
    clipped so every lagged time stays inside [-tau, t_end].
    """
    lags = [float(x) for x in np.atleast_1d(lags)]
    if any(x < 0 for x in lags):
        raise ValueError("lags must be nonnegative")
    tau = traj.params.tau
    if t_end is None:
        t_end = traj.t_end
    lo = max(t_start if t_start is not None else 0.0,
             max(lags, default=0.0) - tau)
    if lo > t_end:
        raise ValueError("lag exceeds the stored span")
    ts = np.arange(lo, t_end + 1e-12 * max(1.0, t_end), sampling)
    cols = [traj(ts)]
    for lag in lags:
        cols.append(traj(ts - lag))
    return ts, np.column_stack(cols)


# ---------------------------------------------------------------------------
# orbit-diagram sweeps

@dataclass(frozen=True)
class SweepPoint:
    param: float
    extrema: tuple[tuple[str, float], ...]  # (kind, Q)
    seed: str   # "initial" | "carry" | "fresh"
    failed: bool = False


@dataclass
class SweepResult:
    vary: str
    direction: str          # "increasing" | "decreasing"
    mesh: np.ndarray
    points: list[SweepPoint]
    base_params: ModelParams
    settings: dict = field(default_factory=dict)


def orbit_diagram(p: ModelParams, vary: str, mesh, *,
                  transient: float = 50.0, record: float = 6.0,
                  record_mode: str = "last", rtol: float = 1e-9,
                  atol: float = 1e-12) -> SweepResult:
    """Asymptotic extrema of the solution along a parameter mesh.

    Per mesh point the equation is integrated through ``transient`` delay
    units, then extrema are collected over the final ``record`` delay units:
    either just the last maximum and minimum ("last") or all of them
    ("all").  The final delay interval of each solution seeds the next mesh
    point, which is what exposes hysteresis between opposite sweep
    directions.  The first point starts from ``History.default``; an
    integration failure flags the point and the sweep continues from a
    fresh default seed.

    On a flat tail (no extrema in the window) the end value is recorded
    under both kinds, which is the steady-state reading.
    """
    mesh = np.asarray(mesh, dtype=float)
    d = np.diff(mesh)
    if mesh.size < 1 or (mesh.size > 1 and not (np.all(d > 0) or np.all(d < 0))):
        raise ValueError("mesh must be strictly monotone")
    direction = "increasing" if (mesh.size == 1 or d[0] > 0) else "decreasing"
    if record_mode not in ("last", "all"):
        raise ValueError("record_mode must be 'last' or 'all'")

    points: list[SweepPoint] = []
    prev: Trajectory | None = None
    for v in mesh:
        pv = p.with_(**{vary: v})
        if prev is not None:
            cur_hist = history_from_trajectory(prev, prev.t_end, pv.tau)
            seed_note = "carry"
        else:
            cur_hist = History.default(pv)
            seed_note = "initial" if not points else "fresh"
        t_total = (transient + record) * pv.tau
        try:
            traj = integrate(pv, cur_hist, t_total, rtol=rtol, atol=atol)
        except StepSizeUnderflow:
            points.append(SweepPoint(param=float(v), extrema=(),
                                     seed=seed_note, failed=True))
            prev = None
            continue
        rec_lo = t_total - record * pv.tau
        evs = [e for e in find_extrema(traj, rec_lo, t_total)
               if e.direction != "degenerate"]
        if record_mode == "last":  # the last maximum, then the last minimum
            last = {e.kind: e for e in evs}
            evs = [last[kind] for kind in ("max", "min") if kind in last]
        extrema = tuple((e.kind, float(e.value)) for e in evs)
        if not extrema:
            q_end = float(traj(t_total))
            extrema = (("max", q_end), ("min", q_end))
        points.append(SweepPoint(param=float(v), extrema=extrema, seed=seed_note))
        prev = traj
    return SweepResult(vary=vary, direction=direction, mesh=mesh,
                       points=points, base_params=p,
                       settings={"transient": transient, "record": record,
                                 "record_mode": record_mode, "rtol": rtol,
                                 "atol": atol})


# ---------------------------------------------------------------------------
# Lyapunov spectrum

@dataclass(frozen=True)
class LyapunovSpan:
    """Time grid of a Lyapunov run: the transient (at least one delay), the
    re-orthonormalisation interval snapped to whole steps of tau/n_mesh, the
    warm-up and averaging interval counts, and the time ``t_end`` the base
    solution must reach."""

    transient: float
    interval: float
    n_warm: int
    n_acc: int
    t_end: float


def lyapunov_span(p: ModelParams, horizon: float, reorth: float = 1.0, *,
                  transient: float = 2000.0, bundle_warmup: float = 200.0,
                  n_mesh: int = 128) -> LyapunovSpan:
    """The span ``lyapunov_spectrum`` covers with the same settings."""
    if n_mesh < 4 or reorth <= 0:
        raise ValueError("need n_mesh >= 4 and reorth > 0")
    if horizon < 100 * reorth:
        raise ValueError("horizon must cover at least 100 reorth intervals")
    transient = max(transient, p.tau)
    h = p.tau / n_mesh
    interval = max(1, int(round(reorth / h))) * h
    n_acc = int(math.ceil(horizon / interval))
    n_warm = int(math.ceil(bundle_warmup / interval)) if bundle_warmup > 0 else 0
    t_end = transient + (n_warm + n_acc) * interval + h
    return LyapunovSpan(transient, interval, n_warm, n_acc, t_end)


@dataclass
class LyapunovSpectrum:
    """Ordered Lyapunov exponent estimates with their convergence record.

    ``history`` holds the running estimates (one row per
    re-orthonormalisation, columns in QR order); ``exponents`` is the final
    row sorted non-increasing.  An exponent is flagged unconverged when its
    running estimate drifted by more than 10% of its magnitude (plus 1e-4)
    over the last decade of averaging time.
    """

    exponents: tuple[float, ...]
    horizon: float
    times: np.ndarray
    history: np.ndarray
    drifts: tuple[float, ...]
    unconverged: tuple[bool, ...]
    settings: dict

    @property
    def m(self) -> int:
        return len(self.exponents)


def lyapunov_spectrum(p: ModelParams, history: History, m: int = 8,
                      horizon: float = 30_000.0, reorth: float = 1.0, *,
                      transient: float = 2000.0, bundle_warmup: float = 200.0,
                      n_mesh: int = 128, seed: int = 0,
                      rtol: float = 1e-9, atol: float = 1e-12,
                      base: Trajectory | None = None) -> LyapunovSpectrum:
    """Leading Lyapunov exponents of the attractor reached from ``history``.

    The base solution is integrated through ``transient`` days before a
    random orthonormal perturbation bundle starts evolving; growth-factor
    logs accumulate only after ``bundle_warmup`` further days so the bundle
    has aligned.  The re-orthonormalisation interval is snapped to a whole
    number of internal steps (tau/n_mesh each), and the accumulated time
    accounts for that exactly.  A precomputed base trajectory covering the
    whole span may be supplied to share one long integration between
    analyses.

    Each block of intervals is advanced and orthonormalised by one call
    into the compiled kernel, or by the numpy loop where
    ``variational.interval_loop`` says the kernel is not in use for this
    bundle shape; the results are the same bit for bit.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    grid = lyapunov_span(p, horizon, reorth, transient=transient,
                         bundle_warmup=bundle_warmup, n_mesh=n_mesh)
    interval, n_warm, n_acc = grid.interval, grid.n_warm, grid.n_acc
    if base is not None:
        if base.params != p or base.t_end < grid.t_end - 1e-9:
            raise ValueError("supplied base trajectory does not cover the run")
        traj = base
    else:
        traj = integrate(p, history, grid.t_end, rtol=rtol, atol=atol)

    bundle = PerturbationBundle.seeded(p.tau, m, n_mesh, seed,
                                       t_head=grid.transient)
    # interval heads by the sequential additions head + n_steps*h of the
    # per-interval path (cumsum adds left to right), so the times match
    h = bundle.step
    n_steps = max(1, int(round(interval / h)))
    heads = np.cumsum([bundle.t_head] + [n_steps * h] * (n_warm + n_acc - 1))
    # |diag R| of every interval, one call per block of weights; then the
    # running log sums, which cumsum adds in order, as logs += log(growth)
    # would interval by interval
    growth = np.empty((n_warm + n_acc, m))
    cols = bundle.columns
    k = 0
    for weights in _weight_blocks(traj, heads, h, n_steps):
        n_block = len(weights[0])
        cols = _advance_block(cols, weights, n_mesh, growth[k:k + n_block])
        k += n_block
    with np.errstate(divide="ignore"):
        logs = np.cumsum(np.log(growth[n_warm:]), axis=0)
    times = np.arange(1, n_acc + 1) * interval
    hist = logs / times[:, None]
    T = float(times[-1])
    finals = hist[-1]
    i10 = min(max(int(np.searchsorted(times, T / 10.0)), 0), n_acc - 1)
    drifts = np.abs(finals - hist[i10])
    flags = drifts > 0.1 * np.abs(finals) + 1e-4
    order = np.argsort(-finals, kind="stable")
    return LyapunovSpectrum(
        exponents=tuple(float(x) for x in finals[order]),
        horizon=T,
        times=times,
        history=hist,
        drifts=tuple(float(x) for x in drifts[order]),
        unconverged=tuple(bool(x) for x in flags[order]),
        settings={"m": m, "n_mesh": n_mesh, "reorth": interval,
                  "transient": grid.transient,
                  "bundle_warmup": n_warm * interval,
                  "seed": seed, "rtol": rtol, "atol": atol},
    )


# ---------------------------------------------------------------------------
# Kaplan-Yorke dimension

@dataclass(frozen=True)
class KaplanYorke:
    dimension: float | None
    k: int
    status: str  # "ok" | "needs-more-exponents"


def kaplan_yorke(exponents, zero_tol: float = 0.0) -> KaplanYorke:
    """Kaplan-Yorke dimension d = k + (sum of first k exponents)/|lambda_{k+1}|
    with k the largest index whose partial sum is nonnegative.

    Exponents within ``zero_tol`` of zero are treated as exactly zero
    (finite-horizon estimates of neutral directions are never exactly 0).
    d = 0 when the leading exponent is negative; if every partial sum stays
    nonnegative the spectrum is too short to place k and the verdict is
    "needs-more-exponents" rather than a fabricated dimension.
    """
    if isinstance(exponents, LyapunovSpectrum):
        lam = list(exponents.exponents)
    else:
        lam = [float(x) for x in exponents]
    if not lam:
        raise ValueError("empty spectrum")
    if any(lam[i] < lam[i + 1] - 1e-12 for i in range(len(lam) - 1)):
        raise ValueError("exponents must be sorted non-increasing")
    lam = [0.0 if abs(x) <= zero_tol else x for x in lam]
    if lam[0] < 0.0:
        return KaplanYorke(dimension=0.0, k=0, status="ok")
    run = 0.0
    k = 0
    for i, x in enumerate(lam):
        if run + x >= 0.0:
            run += x
            k = i + 1
        else:
            break
    if k >= len(lam):
        return KaplanYorke(dimension=None, k=k, status="needs-more-exponents")
    return KaplanYorke(dimension=k + run / abs(lam[k]), k=k, status="ok")
