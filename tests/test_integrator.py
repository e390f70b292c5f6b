
import re
import shutil
import subprocess

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from hsclab import _native, integrator
from hsclab.integrator import (Event, History, StepSizeUnderflow, Trajectory,
                               _dedupe, detect_events, find_extrema,
                               find_level_crossings, history_from_trajectory,
                               integrate)
from hsclab.model import steady_state, table1_params
from conftest import random_valid_params


@pytest.fixture(scope="module")
def orbit_traj():
    # stable periodic orbit regime used across tests (period ~13.5 days)
    p = table1_params().with_(kappa=0.3)
    qs = steady_state(p).nontrivial
    return integrate(p, History.constant(p.tau, 1.05 * qs), 2000.0)


class TestHistory:
    def test_constant(self, table1):
        h = History.constant(table1.tau, 1.2)
        assert h(0.0) == 1.2 and h(-table1.tau) == 1.2
        with pytest.raises(ValueError):
            h(-2 * table1.tau)
        with pytest.raises(ValueError):
            History.constant(table1.tau, -0.5)

    def test_sampled_domain_and_positivity(self):
        ts = np.linspace(-2.8, 0.0, 30)
        h = History.sampled(ts, np.abs(np.sin(ts)) + 0.1)
        assert h.tau == pytest.approx(2.8)
        with pytest.raises(ValueError, match="nonnegative"):
            History.sampled(ts, np.sin(ts))
        with pytest.raises(ValueError, match="increasing"):
            History.sampled(ts[::-1], np.abs(np.sin(ts)))

    def test_steady_perturbation_modes(self, table1):
        qs = steady_state(table1).nontrivial
        h = History.steady_state_perturbation(table1, 0.2)
        assert h(0.0) == pytest.approx(1.2 * qs)
        hc = History.steady_state_perturbation(table1, 0.2, "cosine")
        assert hc(0.0) == pytest.approx(1.2 * qs)
        assert hc(-table1.tau / 2.0) == pytest.approx(0.8 * qs)
        with pytest.raises(ValueError):
            History.steady_state_perturbation(table1, -1.5)
        # above 1 the cosine dips below zero at -tau/2
        assert History.steady_state_perturbation(
            table1, 1.0, "cosine")(-table1.tau / 2.0) == pytest.approx(0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            History.steady_state_perturbation(table1, 1.5, "cosine")

    def test_holds_only_data(self, table1):
        for h in (History.constant(table1.tau, 1.2), History.default(table1),
                  History.steady_state_perturbation(table1, 0.5, "cosine"),
                  History.sampled(np.linspace(-table1.tau, 0.0, 9),
                                  np.full(9, 1.2))):
            assert not any(callable(v) for v in vars(h).values())

    def test_mismatched_delay_rejected(self, table1):
        h = History.constant(1.0, 1.0)
        with pytest.raises(ValueError, match="delay"):
            integrate(table1, h, 10.0)


# ---------------------------------------------------------------------------
# oracle: the closures History evaluated before it held its data

class TestHistoryAgainstClosures:
    @pytest.fixture
    def grid(self, table1):
        return np.linspace(-table1.tau, 0.0, 4001)

    def test_constant(self, table1, grid):
        h = History.constant(table1.tau, 1.2)
        assert np.array_equal(h(grid), np.full_like(grid, 1.2))
        assert np.array_equal(h.at(grid), np.full_like(grid, 1.2))

    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.05, 0.5, 1.0])
    def test_perturbations(self, table1, grid, a):
        qs = steady_state(table1).nontrivial
        w = 2.0 * np.pi / table1.tau
        h = History.steady_state_perturbation(table1, a, "cosine")
        assert np.array_equal(h(grid), qs * (1.0 + a * np.cos(w * grid)))
        h = History.steady_state_perturbation(table1, a)
        assert np.array_equal(h(grid), np.full_like(grid, qs * (1.0 + a)))

    def test_sampled(self, table1, grid):
        rng = np.random.default_rng(11)
        ts = np.concatenate([[-table1.tau],
                             np.sort(rng.uniform(-table1.tau, 0.0, 40)), [0.0]])
        v = rng.uniform(0.0, 2.0, ts.size)
        spline = CubicSpline(ts, v)
        want = np.maximum(spline(grid), 0.0)
        assert np.min(want) == 0.0  # the clip at 0 is exercised
        h = History.sampled(ts, v)
        assert np.array_equal(h(grid), want)
        assert np.array_equal(h.at(grid), want)
        for t in grid[::97]:
            assert h.at(float(t)) == want[grid == t][0]
        # the numpy read gives scipy's PPoly bits, types and shapes: at the
        # breaks and either side of them, beyond both ends and at nan, for
        # arrays, Python floats, numpy scalars and 0-d arrays
        t = np.concatenate([ts, np.nextafter(ts, -np.inf),
                            np.nextafter(ts, np.inf),
                            [-table1.tau - 1e-3, 1e-3, np.nan]])
        args = [t, t.reshape(3, -1), t[:5].tolist(), *t.tolist(), *t,
                *(np.asarray(x) for x in t.tolist())]
        for arg in args:
            got, ref = h.at(arg), np.maximum(spline(arg), 0.0)
            assert type(got) is type(ref)
            assert np.shape(got) == np.shape(ref)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        assert np.isnan(h.at(np.nan)) and h.at(0.0) == want[-1]

    def test_constant_mode_is_a_constant(self, table1):
        qs = steady_state(table1).nontrivial
        a = integrate(table1, History.steady_state_perturbation(table1, 0.05),
                      60.0)
        b = integrate(table1, History.constant(table1.tau, qs * (1.0 + 0.05)),
                      60.0)
        assert np.array_equal(a.knots, b.knots)
        assert np.array_equal(a.coeffs, b.coeffs)


class TestSteadyState:
    def test_exactly_preserved(self, table1):
        qs = steady_state(table1).nontrivial
        traj = integrate(table1, History.constant(table1.tau, qs), 500.0)
        ts = np.linspace(0.0, 500.0, 2001)
        assert np.max(np.abs(traj(ts) - qs)) < 1e-8

    def test_homeostasis_attracts(self, table1):
        qs = steady_state(table1).nontrivial
        traj = integrate(table1, History.constant(table1.tau, 1.2 * qs), 800.0)
        assert traj(800.0) == pytest.approx(qs, rel=1e-6)

    def test_periodic_regime_regression(self, orbit_traj):
        # regression value recorded from this implementation after checking
        # the qualitative claim (limit cycle inside the unstable window)
        ups = find_level_crossings(orbit_traj, 0.3, "up", 1800.0, 2000.0)
        spacing = np.diff([e.t for e in ups])
        assert spacing.size >= 10
        assert np.allclose(spacing, 13.5248, atol=2e-3)


class TestEvaluate:
    def test_history_continuity(self, table1):
        qs = steady_state(table1).nontrivial
        traj = integrate(table1, History.constant(table1.tau, 1.3 * qs), 50.0)
        assert traj(0.0) == pytest.approx(1.3 * qs, rel=1e-14)
        assert traj(-1.0) == 1.3 * qs  # history consulted

    def test_knot_values_exact(self, orbit_traj):
        i = orbit_traj.n_segments // 3
        tk = orbit_traj.knots[i]
        assert orbit_traj(tk) == orbit_traj.coeffs[i, 0]

    def test_out_of_range(self, orbit_traj):
        with pytest.raises(ValueError):
            orbit_traj(orbit_traj.t_end + 1.0)
        with pytest.raises(ValueError):
            orbit_traj(-10.0)

    def test_against_half_step_reintegration(self, table1):
        p = table1.with_(kappa=0.3)
        qs = steady_state(p).nontrivial
        h = History.constant(p.tau, 1.05 * qs)
        a = integrate(p, h, 20.0)
        b = integrate(p, h, 20.0, rtol=1e-11, atol=1e-14)
        ts = np.linspace(0.0, 20.0, 1501)
        # segment midpoints of the coarse run included
        mids = 0.5 * (a.knots[:-1] + a.knots[1:])
        probe = np.concatenate([ts, mids])
        scale = float(np.max(np.abs(b(probe))))
        assert np.max(np.abs(a(probe) - b(probe))) < 10.0 * (1e-9 * scale + 1e-12)

    def test_interpolant_is_c1(self, orbit_traj):
        # derivative continuity across an interior knot
        for i in (100, 500, 1500):
            tk = orbit_traj.knots[i]
            dl = orbit_traj.derivative(tk - 1e-10)
            dr = orbit_traj.derivative(tk + 1e-10)
            assert dl == pytest.approx(dr, rel=1e-5, abs=1e-8)


class TestBreakpoints:
    def test_knots_at_delay_multiples(self, orbit_traj):
        tau = orbit_traj.params.tau
        for k in range(1, 7):
            assert np.min(np.abs(orbit_traj.knots - k * tau)) == 0.0

    def test_extra_smoothing_rounds_change_nothing(self, table1, monkeypatch):
        p = table1.with_(kappa=0.3)
        qs = steady_state(p).nontrivial
        h = History.constant(p.tau, 1.05 * qs)
        a = integrate(p, h, 40.0)
        monkeypatch.setattr(integrator, "_SMOOTHING_ROUNDS", 10)
        b = integrate(p, h, 40.0)
        ts = np.linspace(0.0, 40.0, 2001)
        # the extra forced boundaries reshuffle the accepted steps, so the
        # runs differ by their accumulated local error, not more
        assert np.max(np.abs(a(ts) - b(ts))) < 1e-7

    def test_step_never_exceeds_delay(self, orbit_traj):
        assert np.max(orbit_traj.widths) <= orbit_traj.params.tau + 1e-12


class TestTolerances:
    @pytest.mark.parametrize("rtol, atol", [(1e-9, 0.0), (1e-9, -1e-12),
                                            (-1e-9, 1e-12), (0.0, 0.0)])
    def test_rejected(self, table1, rtol, atol):
        with pytest.raises(ValueError, match="atol > 0 and rtol >= 0"):
            integrate(table1, History.constant(table1.tau, 1.0), 10.0,
                      rtol=rtol, atol=atol)

    def test_pure_absolute_tolerance_runs(self, table1):
        traj = integrate(table1, History.constant(table1.tau, 1.0), 10.0,
                         rtol=0.0, atol=1e-10)
        assert traj.t_end == 10.0


class TestDeterminism:
    def test_bit_identical(self, table1):
        p = table1.with_(kappa=0.3)
        qs = steady_state(p).nontrivial
        h = History.constant(p.tau, 1.05 * qs)
        a = integrate(p, h, 150.0)
        b = integrate(p, h, 150.0)
        assert np.array_equal(a.knots, b.knots)
        assert np.array_equal(a.coeffs, b.coeffs)


class TestEvents:
    def test_steady_state_has_no_events(self, table1):
        qs = steady_state(table1).nontrivial
        traj = integrate(table1, History.constant(table1.tau, qs), 300.0)
        assert find_extrema(traj) == []
        assert find_level_crossings(traj, qs) == []

    def test_extrema_interleave(self, orbit_traj):
        evs = [e for e in find_extrema(orbit_traj, 1500.0, 2000.0)
               if e.direction != "degenerate"]
        kinds = [e.kind for e in evs]
        assert len(kinds) > 20
        assert all(a != b for a, b in zip(kinds, kinds[1:]))

    def test_extrema_have_zero_slope(self, orbit_traj):
        for e in find_extrema(orbit_traj, 1900.0, 2000.0):
            assert abs(orbit_traj.derivative(e.t)) < 1e-7

    def test_crossing_direction(self, orbit_traj):
        ups = find_level_crossings(orbit_traj, 0.3, "up", 1900.0, 2000.0)
        downs = find_level_crossings(orbit_traj, 0.3, "down", 1900.0, 2000.0)
        assert ups and downs
        for e in ups:
            assert orbit_traj.derivative(e.t) > 0
        for e in downs:
            assert orbit_traj.derivative(e.t) < 0

    def test_level_anchored(self, orbit_traj):
        for e in find_level_crossings(orbit_traj, 0.3, "both", 1900.0, 2000.0):
            assert orbit_traj(e.t) == pytest.approx(0.3, abs=1e-9)

    def test_tangential_touch_flagged(self, orbit_traj):
        evs = find_extrema(orbit_traj, 1900.0, 2000.0)
        peak = max((e for e in evs if e.kind == "max"), key=lambda e: e.value)
        near = [e for e in find_level_crossings(orbit_traj, peak.value, "both",
                                                peak.t - 2.0, peak.t + 2.0)
                if abs(e.t - peak.t) < 0.5]
        assert all(e.direction == "degenerate" for e in near)

    def test_detect_events_combined(self, orbit_traj):
        evs = detect_events(orbit_traj, extrema=True, levels=((0.3, "up"),),
                            t_start=1900.0)
        assert evs == sorted(evs, key=lambda e: e.t)
        assert {e.kind for e in evs} == {"max", "min", "level"}


# ---------------------------------------------------------------------------
# oracle: per-candidate polyroots refined by brentq on scalar evaluations,
# the event search the batched root finder replaced


def _scalar_unit_roots(c):
    c = np.trim_zeros(np.asarray(c, float), "b")
    if c.size <= 1:
        return []
    out = [min(max(r.real, 0.0), 1.0 - 1e-16) for r in npoly.polyroots(c)
           if abs(r.imag) <= 1e-9 and -1e-12 <= r.real < 1.0]
    return sorted(out)


def _scalar_refine(fn, t_guess, lo, hi):
    eps = 1e-7 * max(1.0, abs(t_guess))
    a, b = max(lo, t_guess - eps), min(hi, t_guess + eps)
    if a < b:
        fa, fb = fn(a), fn(b)
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if (fa < 0) != (fb < 0):
            return brentq(fn, a, b, xtol=1e-10)
    return t_guess


def _scalar_extrema(traj, t_start=0.0, t_end=None):
    t_end = traj.t_end if t_end is None else t_end
    i0, i1 = traj.segment_range(t_start, t_end)
    C = traj.coeffs
    d1, d2, d3, d4 = (k * C[i0:i1, k] for k in (1, 2, 3, 4))
    flat = (np.abs(d1) + np.abs(d2) + np.abs(d3) + np.abs(d4)
            < 1e-13 * np.maximum(1.0, np.abs(C[i0:i1, 0])))
    cand = (np.abs(d1) <= np.abs(d2) + np.abs(d3) + np.abs(d4)) & ~flat
    events = []
    for j in np.nonzero(cand)[0]:
        i = i0 + j
        w, t0 = traj.widths[i], traj.knots[i]
        for th in _scalar_unit_roots([d1[j], d2[j], d3[j], d4[j]]):
            te = t0 + th * w
            if not (t_start - 1e-12 <= te <= t_end + 1e-12):
                continue
            te = _scalar_refine(traj.derivative, te, max(t0, t_start),
                                min(t0 + w, t_end))
            ypp = (d2[j] + th * (2.0 * d3[j] + 3.0 * th * d4[j])) / (w * w)
            if abs(ypp) < 1e-12:
                events.append(Event(te, "max" if traj(te) >= traj(t0) else "min",
                                    traj(te), direction="degenerate"))
            else:
                events.append(Event(te, "max" if ypp < 0 else "min", traj(te)))
    return _dedupe(events)


def _scalar_level_crossings(traj, level, t_start=0.0, t_end=None):
    t_end = traj.t_end if t_end is None else t_end
    i0, i1 = traj.segment_range(t_start, t_end)
    C = traj.coeffs
    a0 = C[i0:i1, 0] - level
    spread = np.abs(C[i0:i1, 1:]).sum(axis=1)
    moving = spread >= 1e-13 * np.maximum(1.0, np.abs(C[i0:i1, 0]))
    events = []
    for j in np.nonzero((np.abs(a0) <= spread) & moving)[0]:
        i = i0 + j
        w, t0 = traj.widths[i], traj.knots[i]
        for th in _scalar_unit_roots([a0[j], *C[i, 1:]]):
            te = t0 + th * w
            if not (t_start - 1e-12 <= te <= t_end + 1e-12):
                continue
            te = _scalar_refine(lambda x: traj(x) - level, te,
                                max(t0, t_start), min(t0 + w, t_end))
            slope = traj.derivative(te)
            if abs(slope) < 1e-10 * max(1.0, abs(level)):
                d = "degenerate"
            else:
                d = "up" if slope > 0 else "down"
            events.append(Event(te, "level", traj(te), level=level, direction=d))
    return _dedupe(events)


def _assert_same_events(got, want):
    assert [(e.kind, e.direction) for e in got] == \
        [(e.kind, e.direction) for e in want]
    if want:
        assert np.max(np.abs([a.t - b.t for a, b in zip(got, want)])) <= 1e-10
        assert np.max(np.abs([a.value - b.value
                              for a, b in zip(got, want)])) <= 1e-10


def _fig15(mode):
    p = table1_params().with_(kappa=0.68, gamma=0.0354608, tau=9.88888)
    return integrate(p, History.steady_state_perturbation(p, 0.05, mode), 1500.0)


def _hand_built():
    """Three unit segments: a cubic (zero leading coefficient) with a
    maximum at theta = 1/3, an inflection with Q' = Q'' = 0 at theta = 1/2,
    and a parabola touching Q = 1.5 at theta = 1/2."""
    p = table1_params()
    coeffs = np.array([[1.0, 0.3, -0.5, 0.1, 0.0],
                       [1.0, 0.75, -1.5, 1.0, 0.0],
                       [1.75, -1.0, 1.0, 0.0, 0.0]])
    return Trajectory(p, History.constant(p.tau, 1.0),
                      np.array([0.0, 1.0, 2.0, 3.0]), coeffs)


class TestEventsAgainstScalarOracle:
    @pytest.mark.parametrize("mode", ["constant", "cosine"])
    def test_fig15(self, mode):
        traj = _fig15(mode)
        _assert_same_events(find_extrema(traj), _scalar_extrema(traj))
        for level in (0.4, 1.0):
            _assert_same_events(find_level_crossings(traj, level),
                                _scalar_level_crossings(traj, level))

    def test_orbit_windows(self, orbit_traj):
        for lo, hi in ((0.0, 2000.0), (1900.0, 1950.0)):
            _assert_same_events(find_extrema(orbit_traj, lo, hi),
                                _scalar_extrema(orbit_traj, lo, hi))
            _assert_same_events(find_level_crossings(orbit_traj, 0.3, "both", lo, hi),
                                _scalar_level_crossings(orbit_traj, 0.3, lo, hi))

    def test_flat_steady_state(self, table1):
        qs = steady_state(table1).nontrivial
        traj = integrate(table1, History.constant(table1.tau, qs), 300.0)
        assert _scalar_extrema(traj) == find_extrema(traj) == []
        assert _scalar_level_crossings(traj, qs) == find_level_crossings(traj, qs) == []

    def test_degree_drop_and_degenerate(self):
        traj = _hand_built()
        ext = find_extrema(traj)
        _assert_same_events(ext, _scalar_extrema(traj))
        assert [(e.kind, e.direction) for e in ext] == [
            ("max", ""), ("max", "degenerate"), ("min", "")]
        assert ext[0].t == pytest.approx(1.0 / 3.0, abs=1e-15)
        touch = find_level_crossings(traj, 1.5)
        _assert_same_events(touch, _scalar_level_crossings(traj, 1.5))
        assert [(e.t, e.direction) for e in touch] == [(2.5, "degenerate")]
        cross = find_level_crossings(traj, 1.03)
        _assert_same_events(cross, _scalar_level_crossings(traj, 1.03))
        assert [e.direction for e in cross] == ["up", "down", "up"]


# ---------------------------------------------------------------------------
# oracle: the batched companion-matrix search (eigenvalues and two Newton
# steps) that the root isolation of _kernel.c and its Python port replaced


def _companion_unit_roots(polys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real roots in [0, 1) of stacked polynomials in theta.

    ``polys`` is (k, d+1) with coefficients low->high; trailing zero
    coefficients lower a row's degree.  Rows of one effective degree are
    rooted together as eigenvalues of their companion matrices, and every
    kept root is polished by two Newton steps on its own polynomial, each
    taken only where it lowers the residual.
    Returns (row, theta) arrays ordered by row, then theta.
    """
    nonzero = polys != 0.0
    degree = np.where(nonzero.any(axis=1),
                      polys.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    rows, roots = [np.empty(0, int)], [np.empty(0)]
    for d in range(1, polys.shape[1]):
        sel = np.nonzero(degree == d)[0]
        if sel.size == 0:
            continue
        c = polys[sel, :d + 1]
        # companion matrices as numpy's polyroots builds them
        comp = np.zeros((sel.size, d, d))
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        comp[:, :, -1] -= c[:, :-1] / c[:, -1:]
        r = np.linalg.eigvals(comp[:, ::-1, ::-1]).ravel()
        keep = (np.abs(r.imag) <= 1e-9) & (r.real >= -1e-12) & (r.real < 1.0)
        rows.append(np.repeat(sel, d)[keep])
        roots.append(r.real[keep])
    row = np.concatenate(rows)
    th = np.clip(np.concatenate(roots), 0.0, 1.0 - 1e-16)
    c = polys[row].T
    dc = c[1:] * np.arange(1.0, c.shape[0])[:, None]
    val = npoly.polyval(th, c, tensor=False)
    for _ in range(2):
        slope = npoly.polyval(th, dc, tensor=False)
        step = np.divide(val, slope, out=np.zeros_like(th), where=slope != 0.0)
        th_new = np.clip(th - step, 0.0, 1.0 - 1e-16)
        val_new = npoly.polyval(th_new, c, tensor=False)
        # at a double root the step divides roundoff by a vanishing slope
        better = np.abs(val_new) < np.abs(val)
        th = np.where(better, th_new, th)
        val = np.where(better, val_new, val)
    order = np.lexsort((th, row))
    return row[order], th[order]


def _companion_event_roots(coefs, mode, level=0.0):
    """(segment, theta) of the event roots by the filters and the
    companion-matrix search of the batched event detection."""
    C = coefs
    if mode == integrator._EXTREMA:
        P = C[:, 1:] * np.array([1.0, 2.0, 3.0, 4.0])
        d1, d2, d3, d4 = P.T
        flat = (np.abs(d1) + np.abs(d2) + np.abs(d3) + np.abs(d4)
                < 1e-13 * np.maximum(1.0, np.abs(C[:, 0])))
        cand = (np.abs(d1) <= np.abs(d2) + np.abs(d3) + np.abs(d4)) & ~flat
    else:
        P = C.copy()
        P[:, 0] -= level
        spread = np.abs(P[:, 1:]).sum(axis=1)
        moving = spread >= 1e-13 * np.maximum(1.0, np.abs(C[:, 0]))
        cand = (np.abs(P[:, 0]) <= spread) & moving
    j = np.nonzero(cand)[0]
    row, th = _companion_unit_roots(P[j])
    return j[row], th


def _root_cases(orbit_traj, table1):
    """(coefficient block, mode, level) of every run the event searches are
    compared on: the fig15 runs, two orbit windows, the hand-built segments
    and a flat steady state."""
    ext, lvl = integrator._EXTREMA, integrator._LEVEL
    cases = []
    for traj in (_fig15("constant"), _fig15("cosine")):
        cases += [(traj.coeffs, ext, 0.0)]
        cases += [(traj.coeffs, lvl, v) for v in (0.3, 0.4, 1.0)]
    for lo, hi in ((0.0, 2000.0), (1900.0, 1950.0)):
        i0, i1 = orbit_traj.segment_range(lo, hi)
        block = orbit_traj.coeffs[i0:i1]
        cases += [(block, ext, 0.0), (block, lvl, 0.3)]
    hand = _hand_built().coeffs
    cases += [(hand, ext, 0.0)] + [(hand, lvl, v) for v in (1.5, 1.03)]
    qs = steady_state(table1).nontrivial
    flat = integrate(table1, History.constant(table1.tau, qs), 300.0).coeffs
    cases += [(flat, ext, 0.0), (flat, lvl, qs)]
    return cases


class TestEventRoots:
    def test_compiled_equals_python_port(self, kernel, orbit_traj, table1):
        for coefs, mode, level in _root_cases(orbit_traj, table1):
            got = integrator._compiled_event_roots(kernel, coefs, mode, level)
            want = integrator._python_event_roots(coefs, mode, level)
            assert got[0].dtype == want[0].dtype == np.int64
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_companion_oracle_finds_the_same_roots(self, orbit_traj, table1):
        for coefs, mode, level in _root_cases(orbit_traj, table1):
            seg, th = integrator._event_roots(coefs, mode, level)
            oseg, oth = _companion_event_roots(coefs, mode, level)
            # the oracle reports a double root twice
            twice = np.zeros(oseg.size, bool)
            twice[1:] = (oseg[1:] == oseg[:-1]) & (np.abs(np.diff(oth)) <= 1e-7)
            assert np.array_equal(seg, oseg[~twice])
            assert np.max(np.abs(th - oth[~twice]), initial=0.0) <= 1e-12

    def test_double_roots_reported_once(self):
        hand = _hand_built().coeffs
        seg, th = integrator._event_roots(hand, integrator._EXTREMA)
        assert seg.tolist() == [0, 1, 2] and th[1:].tolist() == [0.5, 0.5]
        seg, th = integrator._event_roots(hand, integrator._LEVEL, 1.5)
        assert seg.tolist() == [2] and th.tolist() == [0.5]
        oseg, _ = _companion_event_roots(hand, integrator._LEVEL, 1.5)
        assert oseg.tolist() == [2, 2]

    def test_unit_roots(self):
        roots = integrator._unit_roots
        assert roots([-0.25, 1.0, 0.0], 2) == [0.25]  # degree drop
        assert roots([0.0, -1.0, 1.0], 2) == [0.0]    # root at 0, not at 1
        assert roots([1.0, 0.0, 0.0], 2) == []        # a constant
        assert roots([0.0, 0.0, 0.0], 2) == []        # identically zero
        assert roots([-0.125, 0.75, -1.5, 1.0], 3) == [0.5]  # triple root
        assert roots([0.25 + 1e-3, -1.0, 1.0], 2) == []      # a near miss
        # (x - 0.1)(x - 0.2)(x - 0.7)(x - 0.9): each to adjacent doubles
        c = np.convolve(np.convolve([-0.1, 1.0], [-0.2, 1.0]),
                        np.convolve([-0.7, 1.0], [-0.9, 1.0])).tolist()
        got = roots(c, 4)
        assert np.allclose(got, [0.1, 0.2, 0.7, 0.9], rtol=0, atol=1e-15)

    def test_python_port_runs_without_the_kernel(self, monkeypatch):
        traj = _fig15("cosine")
        want = (find_extrema(traj), find_level_crossings(traj, 0.4))
        monkeypatch.setattr(_native.status, "lib", None)
        assert (find_extrema(traj), find_level_crossings(traj, 0.4)) == want


# ---------------------------------------------------------------------------
# oracle: the Python step loop against the compiled one

@pytest.fixture
def kernel():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("the compiled step loop cannot be built here")
    return lib


def _python_loop(p, history, t_end, rtol=1e-9, atol=1e-12):
    return integrator._python_loop(p, history, t_end, rtol, atol, None)


def _assert_same_run(p, history, t_end, **tol):
    want = _python_loop(p, history, t_end, **tol)
    got = integrate(p, history, t_end, **tol)
    assert np.array_equal(got.knots, want.knots)
    assert np.array_equal(got.coeffs, want.coeffs)
    return got


def _chaotic():
    return table1_params().with_(kappa=0.865, tau=3.9)


@pytest.mark.usefixtures("kernel")
class TestKernelAgainstPythonLoop:
    def test_constant_histories(self, table1):
        qs = steady_state(table1).nontrivial
        for h in (History.constant(table1.tau, 1.2),
                  History.constant(table1.tau, table1.theta),
                  History.constant(table1.tau, qs),
                  History.steady_state_perturbation(table1, 0.05)):
            _assert_same_run(table1, h, 300.0)

    @pytest.mark.parametrize("a", [0.05, 0.5, 1.0])
    def test_cosine_perturbations(self, a):
        p = _chaotic()
        _assert_same_run(p, History.steady_state_perturbation(p, a, "cosine"),
                         500.0)

    def test_random_sampled(self, table1):
        rng = np.random.default_rng(5)
        ts = np.concatenate([[-table1.tau],
                             np.sort(rng.uniform(-table1.tau, 0.0, 30)), [0.0]])
        h = History.sampled(ts, rng.uniform(0.0, 2.0, ts.size))
        assert np.min(h.at(np.linspace(-table1.tau, 0.0, 2001))) == 0.0
        _assert_same_run(table1, h, 300.0)

    def test_positivity_ensemble(self):
        # the histories and tolerances of the C17 ensemble
        rng = np.random.default_rng(2024)
        for _ in range(100):
            p = random_valid_params(rng)
            ts = np.linspace(-p.tau, 0.0, 24)
            hist = History.sampled(ts, rng.uniform(0.0, 4.0 * p.theta, 24))
            _assert_same_run(p, hist, 200.0 * p.tau, rtol=1e-7, atol=1e-10)

    def test_carried_orbit_diagram_chain(self):
        # the fig13 protocol: 56 delays per point, each point seeded by the
        # last delay of the one before
        p = table1_params().with_(kappa=0.865)
        prev = None
        for tau in np.linspace(2.0, 4.0, 7):
            pv = p.with_(tau=tau)
            h = (History.default(pv) if prev is None else
                 history_from_trajectory(prev, prev.t_end, tau))
            prev = _assert_same_run(pv, h, 56.0 * tau)

    def test_same_underflow_time(self, table1):
        # an infinite spline coefficient makes every step reading it fail
        h = History.sampled(np.linspace(-table1.tau, 0.0, 9), np.full(9, 1.1))
        c = h.c.copy()
        c[0, 5] = np.inf
        h = History(h.tau, x=h.x, c=c)
        with pytest.raises(StepSizeUnderflow) as want:
            _python_loop(table1, h, 20.0)
        with pytest.raises(StepSizeUnderflow) as got:
            integrate(table1, h, 20.0)
        # the first stage reading that interval's delayed value
        assert want.value.t == pytest.approx(table1.tau + h.x[5])
        assert got.value.t == pytest.approx(want.value.t, rel=0, abs=1e-300)

    def test_same_step_limit_error(self, table1, monkeypatch):
        monkeypatch.setattr(integrator, "_MAX_STEPS", 50)
        h = History.constant(table1.tau, 1.2)
        with pytest.raises(RuntimeError, match="exceeded 50 steps") as want:
            _python_loop(table1, h, 200.0)
        with pytest.raises(RuntimeError, match="exceeded 50 steps") as got:
            integrate(table1, h, 200.0)
        assert str(got.value) == str(want.value)

    def test_same_overflow_error(self, table1):
        h = History.constant(table1.tau, 1e200)  # Q**s overflows
        with pytest.raises(OverflowError) as want:
            _python_loop(table1, h, 20.0)
        with pytest.raises(OverflowError) as got:
            integrate(table1, h, 20.0)
        assert got.value.args == want.value.args

    def test_spline_shape_checked_before_the_call(self, table1):
        h = History(table1.tau, x=np.array([-table1.tau, 0.0]),
                    c=np.ones((4, 2)))
        with pytest.raises(ValueError, match="breaks"):
            integrate(table1, h, 10.0)


class TestKernelBuild:
    def test_in_use_where_the_compiler_is(self):
        # otherwise the benchmark could measure the Python loop unnoticed
        if shutil.which(_native._CC) is None:
            pytest.skip(f"no {_native._CC} on PATH")
        assert _native.kernel() is not None

    def test_status_compiled(self, kernel):
        assert integrator.kernel_status() == "compiled"

    @pytest.fixture
    def fresh_build(self, monkeypatch, tmp_path):
        monkeypatch.setattr(_native.status, "lib", _native._UNTRIED)
        monkeypatch.setattr(_native.status, "why", "")
        monkeypatch.setattr(_native, "_CACHE", tmp_path / "cache")
        return tmp_path / "cache"

    def test_status_names_the_missing_compiler(self, monkeypatch,
                                               fresh_build):
        monkeypatch.setattr(_native, "_CC", "hsclab-no-such-compiler")
        assert integrator.kernel_status() == {
            "python": "no compiler: hsclab-no-such-compiler not found"}

    def test_status_names_the_build_error(self, monkeypatch, fresh_build):
        if shutil.which(_native._CC) is None:
            pytest.skip(f"no {_native._CC} on PATH")
        monkeypatch.setattr(_native, "_CFLAGS",
                            _native._CFLAGS + ("-no-such-flag",))
        why = integrator.kernel_status()["python"]
        assert why.startswith("build error: ") and "no-such-flag" in why

    def test_roots_mismatch_disables_kernel(self, monkeypatch, kernel):
        port = integrator._python_event_roots

        def shifted(coefs, mode, level):
            seg, theta = port(coefs, mode, level)
            return seg, np.nextafter(theta, 1.0)

        monkeypatch.setattr(integrator, "_python_event_roots", shifted)
        monkeypatch.setattr(_native.status, "why", "")
        assert _native._load() is None
        assert _native.status.why == ("failed load-time check: event roots "
                                      "differ from the Python port")

    def test_missing_compiler_falls_back(self, monkeypatch, capfd,
                                         fresh_build):
        monkeypatch.setattr(_native, "_CC", "hsclab-no-such-compiler")
        h = History.steady_state_perturbation(_chaotic(), 0.5, "cosine")
        traj = integrate(_chaotic(), h, 200.0)
        assert _native.status.lib is None
        want = _python_loop(_chaotic(), h, 200.0)
        assert np.array_equal(traj.knots, want.knots)
        assert np.array_equal(traj.coeffs, want.coeffs)
        assert capfd.readouterr() == ("", "")

    def test_failed_build_is_silent(self, monkeypatch, capfd, fresh_build):
        if shutil.which(_native._CC) is None:
            pytest.skip(f"no {_native._CC} on PATH")
        monkeypatch.setattr(_native, "_CFLAGS",
                            _native._CFLAGS + ("-no-such-flag",))
        assert _native.kernel() is None
        assert capfd.readouterr() == ("", "")
        assert list(fresh_build.iterdir()) == []

    def test_build_leaves_one_library(self, fresh_build):
        if shutil.which(_native._CC) is None:
            pytest.skip(f"no {_native._CC} on PATH")
        assert _native.kernel() is not None
        assert [f.suffix for f in fresh_build.iterdir()] == [".so"]

    def test_build_prunes_stale_libraries(self, fresh_build):
        if shutil.which(_native._CC) is None:
            pytest.skip(f"no {_native._CC} on PATH")
        fresh_build.mkdir()
        (fresh_build / "kernel-0123456789abcdef.so").write_bytes(b"old")
        # one that cannot be removed does not stop the build
        (fresh_build / "kernel-fedcba9876543210.so").mkdir()
        (fresh_build / "notes.txt").write_text("kept")
        assert _native.kernel() is not None
        left = sorted(f.name for f in fresh_build.iterdir())
        assert len(left) == 3 and left[2] == "notes.txt"
        assert "kernel-fedcba9876543210.so" in left
        assert "kernel-0123456789abcdef.so" not in left

    def test_read_mismatch_disables_kernel(self, monkeypatch, kernel):
        at = History.at
        monkeypatch.setattr(History, "at",
                            lambda self, t: np.nextafter(at(self, t), np.inf))
        assert _native._load() is None

    def test_prototypes_cover_the_exports(self):
        # an entry point exported but not declared, or declared but gone
        exported = re.findall(r"^(?!static\b)\w[\w \*]*\b(hsc_\w+)\s*\(",
                              _native._SOURCE.read_text(), re.MULTILINE)
        assert sorted(exported) == sorted(_native._PROTOTYPES)

    def test_pow_exponents_are_data(self):
        # gcc -O2 folds pow(x, 2.0) into x*x, pow(x, -1.0) into 1/x and
        # pow(x, 1.0) into x, which are not always the correctly rounded pow
        # that Python's ** calls; so every exponent is passed as data.  The
        # step control's err**-0.2 is the one literal: gcc calls pow for it,
        # and TestKernelAgainstPythonLoop holds its steps bit for bit
        code = re.sub(r"/\*.*?\*/", "", _native._SOURCE.read_text(),
                      flags=re.DOTALL)
        literal = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
        exponents = [arg.strip() for arg in re.findall(
            r"\bpow\s*\([^,()]*(?:\([^()]*\))?[^,()]*,([^()]*)\)", code)]
        assert len(exponents) == len(re.findall(r"\bpow\s*\(", code))
        assert [e for e in exponents if literal.fullmatch(e)] == ["-0.2"] * 2

    def test_source_compiles_warning_free(self, tmp_path):
        if shutil.which(_native._CC) is None:
            pytest.skip(f"no {_native._CC} on PATH")
        flags = _native._CFLAGS + ("-Wall", "-Wextra", "-Werror")
        build = subprocess.run(
            [_native._CC, *flags, "-o", str(tmp_path / "kernel.so"),
             str(_native._SOURCE), "-lm"], capture_output=True, text=True)
        assert build.returncode == 0, build.stderr


class TestPositivityBoundedness:
    def test_random_histories_stay_positive_and_bounded(self):
        # quick version of the acceptance ensemble
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = random_valid_params(rng)
            ts = np.linspace(-p.tau, 0.0, 16)
            hist = History.sampled(ts, rng.uniform(0.0, 3.0 * p.theta, 16))
            traj = integrate(p, hist, 40.0 * p.tau, rtol=1e-7, atol=1e-10)
            samples = traj(np.linspace(0.0, traj.t_end, 4000))
            assert samples.min() >= -1e-9
            assert samples.max() < 1e6


class TestErrors:
    def test_bad_horizon(self, table1):
        with pytest.raises(ValueError):
            integrate(table1, History.constant(table1.tau, 1.0), 0.0)

    def test_underflow_diagnostic_carries_time(self):
        err = StepSizeUnderflow(12.5)
        assert err.t == 12.5
        assert "12.5" in str(err)


class TestCarryOver:
    def test_history_from_trajectory_matches_dense_output(self, orbit_traj):
        h = history_from_trajectory(orbit_traj, 2000.0, 2.8)
        ts = np.linspace(-2.8, 0.0, 200)
        assert np.max(np.abs(h(ts) - orbit_traj(2000.0 + ts))) < 1e-9

    def test_shorter_delay_ok(self, orbit_traj):
        h = history_from_trajectory(orbit_traj, 2000.0, 1.3)
        assert h.tau == pytest.approx(1.3)
