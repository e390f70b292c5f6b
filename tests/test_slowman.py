import math
import os
import subprocess
import sys

import numpy as np
import pytest

from scipy.optimize import brentq

import hsclab
from hsclab import _native, chareq, export, slowman
from hsclab.model import (ModelParams, h_and_G, h_prime_level, rhs,
                          steady_state)
from conftest import assert_printed, random_valid_params


# ---------------------------------------------------------------------------
# The s = 2 polynomial solves of the nullcline, the bracketed drift-maximum
# search and the switch quadratic that the h'-level solutions replaced, kept
# as oracles.

def oracle_nullcline_s2(p, given, value):
    A = p.amplification
    ths = p.theta**p.s
    if given == "q_now":
        rhs_now = (p.kappa + p.f * ths / (ths + value**p.s)) * value
        fn = lambda y: A * p.f * ths * y / (ths + y**p.s) - rhs_now
        if rhs_now == 0.0:
            return [0.0]
        coefs = [rhs_now * ths, -A * p.f * ths, rhs_now]  # low -> high in y
        roots = _poly_roots_nonneg(coefs)
    else:
        rhs_del = A * p.f * ths * value / (ths + value**p.s)
        fn = lambda q: (p.kappa + p.f * ths / (ths + q**p.s)) * q - rhs_del
        coefs = [-rhs_del * ths, (p.kappa + p.f) * ths, -rhs_del, p.kappa]
        roots = _poly_roots_nonneg(coefs)
    return sorted(_polish(fn, r) for r in roots)


def _poly_roots_nonneg(coefs_lowhigh) -> list[float]:
    c = np.trim_zeros(np.asarray(coefs_lowhigh, float), "b")
    if c.size <= 1:
        return []
    roots = np.polynomial.polynomial.polyroots(c)
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real)) and r.real >= -1e-14:
            out.append(max(float(r.real), 0.0))
    out.sort()
    dedup = []
    for r in out:
        if not dedup or abs(r - dedup[-1]) > 1e-11 * max(1.0, r):
            dedup.append(r)
    return dedup


def _polish(fn, r: float, delta: float = 1e-9) -> float:
    # one secant-style correction keeps closed-form roots at ~1e-13 residual
    f0 = fn(r)
    if f0 == 0.0:
        return r
    d = delta * max(1.0, abs(r))
    f1 = fn(r + d)
    if f1 == f0:
        return r
    step = f0 * d / (f1 - f0)
    r2 = r - step
    return r2 if r2 >= 0.0 and abs(fn(r2)) < abs(f0) else r


def oracle_q_f(p):
    qs = steady_state(p).nontrivial
    gprime = lambda q: h_and_G(q, p).G_prime
    return brentq(gprime, qs * 1e-9, qs, xtol=1e-15)


def oracle_switch(p):
    fhat = p.tau * p.f
    bcoef = 2.0 - (p.s - 1.0) * fhat
    disc = bcoef * bcoef - 4.0 * (1.0 + fhat)
    if disc < 0.0:
        return None
    us = [(-bcoef - math.sqrt(disc)) / 2.0, (-bcoef + math.sqrt(disc)) / 2.0]
    qs = [p.theta * math.exp(math.log(u) / p.s) for u in us if u > 0.0]
    if not qs:
        return None
    ref = steady_state(p).nontrivial
    if ref is None:
        ref = p.theta
    return min(qs, key=lambda q: abs(q - ref))


def ensemble(n, seed=0):
    rng = np.random.default_rng(seed)
    return [random_valid_params(rng) for _ in range(n)]


def nullcline_fn(p, given, value, x):
    """The nullcline equation on an array x, as nullcline solves it."""
    A = p.amplification
    ths = p.theta**p.s
    if given == "q_now":
        level = (p.kappa + p.f * ths / (ths + value**p.s)) * value
        return A * p.f * ths * x / (ths + x**p.s) - level
    level = A * p.f * ths * value / (ths + value**p.s)
    return (p.kappa + p.f * ths / (ths + x**p.s)) * x - level


@pytest.fixture(scope="module")
def marks(canard_params):
    return slowman.landmarks(canard_params)


class TestSingularForm:
    def test_canard_decomposition(self, canard_params):
        sf = slowman.singular_params(canard_params)
        assert_printed(sf.epsilon, 6.132e-3, 4, "epsilon")
        assert_printed(sf.C, 2.23, 3, "C")
        assert_printed(sf.steady_state(), 0.0896868, 6, "Q* via C")
        assert sf.steady_state() == pytest.approx(
            steady_state(canard_params).nontrivial, rel=1e-12)

    def test_unit_amplification_is_out_of_regime(self, table1):
        p = table1.with_(gamma=math.log(2.0) / table1.tau + 1e-9)
        with pytest.raises(slowman.RegimeError):
            slowman.singular_params(p)

    def test_no_steady_state_when_C_below_one(self, table1):
        sf = slowman.singular_params(table1.with_(kappa=4.2))
        assert sf.C < 1.0 and sf.steady_state() is None


class TestStabilitySwitch:
    def test_canard_value(self, canard_params):
        q = slowman.critical_manifold_stability_switch(canard_params)
        assert_printed(q, 0.0893174, 6, "switch")

    def test_close_to_steady_state(self, canard_params):
        q = slowman.critical_manifold_stability_switch(canard_params)
        qs = steady_state(canard_params).nontrivial
        assert abs(q - qs) / qs < 0.005

    def test_weak_flux_has_no_switch(self, table1):
        p = table1.with_(f=0.1, tau=1.0, kappa=0.01)
        assert slowman.critical_manifold_stability_switch(p) is None

    def test_defining_identity(self, canard_params):
        q = slowman.critical_manifold_stability_switch(canard_params)
        assert h_and_G(q, canard_params).h_prime == pytest.approx(
            -1.0 / canard_params.tau, rel=1e-10)


class TestNullcline:
    def test_steady_state_on_nullcline(self, canard_params):
        qs = steady_state(canard_params).nontrivial
        sols = slowman.nullcline(canard_params, "q_now", qs)
        assert any(abs(y - qs) < 1e-10 for y in sols)
        sols_r = slowman.nullcline(canard_params, "q_delayed", qs)
        assert any(abs(y - qs) < 1e-10 for y in sols_r)

    def test_origin_on_nullcline(self, canard_params):
        assert slowman.nullcline(canard_params, "q_now", 0.0) == [0.0]

    def test_residuals(self, canard_params):
        from hsclab.model import beta
        p = canard_params
        A = p.amplification
        for q in np.linspace(0.01, 0.3, 12):
            for y in slowman.nullcline(p, "q_now", float(q)):
                resid = -(p.kappa + beta(q, p)) * q + A * beta(y, p) * y
                assert abs(resid) < 1e-12

    def test_branches_disjoint_near_steady_state(self, canard_params):
        # the two branch curves approach each other near (Q*, Q*) but keep a gap
        qs = steady_state(canard_params).nontrivial
        min_gap = math.inf
        for q in np.linspace(qs - 0.01, qs + 0.01, 101):
            sols = slowman.nullcline(canard_params, "q_now", float(q))
            assert len(sols) == 2
            min_gap = min(min_gap, sols[1] - sols[0])
        assert min_gap > 1e-4

    def test_unknown_given_rejected(self, canard_params):
        with pytest.raises(ValueError):
            slowman.nullcline(canard_params, "q_weird", 0.1)

    def test_matches_polynomial_oracle_at_s2(self, canard_params, table1):
        compared = 0
        for p in [canard_params, table1] + [q.with_(s=2.0) for q in ensemble(300)]:
            for value in p.theta * np.geomspace(0.05, 3.0, 10):
                for given in ("q_now", "q_delayed"):
                    got = slowman.nullcline(p, given, float(value))
                    want = oracle_nullcline_s2(p, given, float(value))
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert abs(g - w) <= 1e-12 * w
                        compared += 1
        assert compared > 8000

    def test_solution_count_matches_sign_changes(self):
        # every sign change on a dense log grid is one returned solution;
        # the scan over [0, 200*theta] in steps of 0.05*theta missed
        # solutions beyond its end and pairs closer than its step.  Near
        # s = 1 the delayed companion of q_now can lie beyond the grid; the
        # residual test covers those
        rng = np.random.default_rng(1)
        for p in ensemble(300):
            p = p.with_(s=float(rng.uniform(0.5, 4.0)))
            grid = p.theta * np.geomspace(1e-12, 1e12, 40001)
            for value in p.theta * np.geomspace(0.05, 3.0, 20):
                for given in ("q_now", "q_delayed"):
                    sols = slowman.nullcline(p, given, float(value))
                    sign = np.sign(nullcline_fn(p, given, float(value), grid))
                    changes = np.count_nonzero(sign[1:] != sign[:-1])
                    inside = [x for x in sols if grid[0] < x < grid[-1]]
                    assert len(inside) == changes, (p, given, value, sols)

    def test_residuals_on_ensemble(self, canard_params, table1):
        for p in [canard_params, table1] + ensemble(1000):
            for value in p.theta * np.geomspace(0.05, 3.0, 5):
                for y in slowman.nullcline(p, "q_now", float(value)):
                    assert abs(rhs(float(value), y, p)) <= 1e-12 * p.f * p.theta
                for q in slowman.nullcline(p, "q_delayed", float(value)):
                    assert abs(rhs(q, float(value), p)) <= 1e-12 * p.f * p.theta

    def test_unit_hill_bounded_tail(self, table1):
        # at s = 1, A*h rises to A*f*theta and no further: one delayed
        # companion while the loss stays below that bound, none above it
        p = table1.with_(s=1.0)
        bound = p.amplification * p.f * p.theta
        for value in p.theta * np.geomspace(0.05, 1e3, 30):
            loss = (p.kappa + p.f * p.theta / (p.theta + value)) * value
            sols = slowman.nullcline(p, "q_now", float(value))
            assert len(sols) == (1 if loss < bound else 0)
            for y in sols:
                assert abs(rhs(float(value), y, p)) <= 1e-12 * p.f * p.theta
            assert len(slowman.nullcline(p, "q_delayed", float(value))) == 1

    def test_far_companion_beyond_the_square_range(self, table1):
        # a tiny q_now puts its delayed companion near A*f*theta^2/level,
        # where y**2 leaves the double range; the doubling used to stop on
        # that OverflowError and lose the companion
        p = table1
        for value in (1e-300, 1e-200):
            near, far = slowman.nullcline(p, "q_now", value)
            assert near < p.theta < 1e154 < far < sys.float_info.max
            level = p.kappa * value + h_and_G(value, p).h
            assert abs(p.amplification * h_and_G(far, p).h - level) \
                <= 1e-12 * level

    def test_doubling_ends_on_the_limit(self, table1, monkeypatch):
        # just above s = 1, A*h decays so slowly past its peak that it stays
        # above this level up to the largest double: the doubling stops
        # there, on the far form of h, where it used to step to infinity and
        # stop on a NaN
        p = table1.with_(s=1.0 + 1e-6)
        big = sys.float_info.max
        value = 1.0
        level = p.kappa * value + h_and_G(value, p).h
        (turn,) = h_prime_level(0.0, p)
        A = p.amplification
        assert A * h_and_G(turn, p).h > A * h_and_G(big, p).h > level
        seen = []
        real = slowman.h_and_G

        def recorded(q, params):
            seen.append(q)
            return real(q, params)

        monkeypatch.setattr(slowman, "h_and_G", recorded)
        (y,) = slowman.nullcline(p, "q_now", value)
        assert y < turn
        assert seen and set(seen) == {big}

    def test_below_unit_hill(self, table1):
        # h is increasing and unbounded: one companion on each side
        p = table1.with_(s=0.5)
        for value in p.theta * np.geomspace(0.05, 1e3, 30):
            (y,) = slowman.nullcline(p, "q_now", float(value))
            assert abs(rhs(float(value), y, p)) <= 1e-12 * p.f * p.theta
            (q,) = slowman.nullcline(p, "q_delayed", float(value))
            assert abs(rhs(q, float(value), p)) <= 1e-12 * p.f * p.theta

    def test_solution_at_turning_point_is_single(self):
        # kappa = A - 1 with theta = 1, f = 2, s = 2 puts Q* on the flux
        # peak Q_h = 1, where A*h touches the loss line from below: the
        # touching point is one solution, and it is exact
        A = 2.0 * math.exp(-0.1 * 2.8)
        p = ModelParams(kappa=A - 1.0, gamma=0.1, tau=2.8, theta=1.0,
                        f=2.0, s=2.0)
        assert slowman.nullcline(p, "q_now", 1.0) == [1.0]
        assert oracle_nullcline_s2(p, "q_now", 1.0) == [pytest.approx(1.0)]


class TestNaiveManifold:
    def test_fixed_points(self, canard_params):
        qs = steady_state(canard_params).nontrivial
        assert slowman.slow_manifold_naive(qs, canard_params) == pytest.approx(qs, rel=1e-12)
        assert slowman.slow_manifold_naive(0.0, canard_params) == 0.0

    def test_agrees_with_linearized_variant(self, canard_params, marks):
        for q in np.linspace(0.01, 0.08, 29):
            naive = slowman.slow_manifold_naive(float(q), canard_params)
            lin = slowman.slow_manifold_linearized(float(q), canard_params, marks)
            assert abs(naive - lin.Q_tau) <= 0.01 * q

    def test_tracks_nullcline_away_from_steady_state(self, canard_params):
        # the manifold hugs the Q'=0 set wherever the drift is small; the
        # vertical offset scales like tau*|G|, which grows past Q ~ 0.18
        qs = steady_state(canard_params).nontrivial
        for q in np.linspace(0.01, 0.23, 45):
            if abs(q - qs) <= 0.01:
                continue
            q_tau = slowman.slow_manifold_naive(float(q), canard_params)
            sols = slowman.nullcline(canard_params, "q_now", float(q))
            bound = 2e-3 if q <= 0.18 else 7e-3
            assert sols and min(abs(q_tau - y) for y in sols) < bound


class TestLandmarks:
    def test_ordering(self, marks):
        assert marks.Q_f < marks.Q_h < marks.Q_star
        assert_printed(marks.Q_f, 0.042263, 5, "Q_f")
        assert marks.Q_h == pytest.approx(0.0808634, abs=1e-6)

    def test_gap_brackets_steady_state(self, marks):
        lo, hi = marks.gap
        assert lo < marks.Q_star < hi

    def test_matches_search_oracles(self, canard_params, table1):
        for p in [canard_params, table1] + ensemble(1000):
            marks = slowman.landmarks(p)
            assert abs(marks.Q_f - oracle_q_f(p)) <= 1e-12 * marks.Q_f
            want = oracle_switch(p)
            if want is None:
                assert marks.switch is None
            else:
                assert abs(marks.switch - want) <= 1e-12 * want

    def test_defining_identities(self, canard_params, table1):
        for p in [canard_params, table1] + ensemble(1000):
            marks = slowman.landmarks(p)
            hp = lambda q: h_and_G(q, p).h_prime
            assert abs(hp(marks.Q_f) - p.kappa / (p.amplification - 1.0)) \
                <= 1e-14 * p.f
            assert abs(hp(marks.Q_h)) <= 1e-14 * p.f
            if marks.switch is not None:
                assert abs(hp(marks.switch) + 1.0 / p.tau) <= 1e-14 * p.f

    def test_shallow_coalescence_level(self):
        # W_0(x0)/tau is about -1e-16 here; the bracketed search for the
        # gap's left end raised "f(a) and f(b) must have different signs"
        p = ModelParams(kappa=4.458102956733756, gamma=0.011228125633118136,
                        tau=7.768143476893467, theta=0.028032755060227444,
                        f=10.399807089175754, s=2.141951793816236)
        marks = slowman.landmarks(p)
        assert marks.Q_f < marks.Q_h < marks.Q_star
        assert marks.gap[0] == pytest.approx(marks.Q_h, rel=1e-12)

    def test_underflowed_coalescence_argument(self):
        # kappa*tau = 800 underflows x0 = -exp(-1 - kappa*tau)/A to -0.0
        p = ModelParams(kappa=100.0, gamma=0.01, tau=8.0, theta=1.0,
                        f=2000.0, s=2.0)
        marks = slowman.landmarks(p)
        assert marks.Q_star == pytest.approx(3.99, abs=5e-3)
        assert marks.gap[0] == pytest.approx(marks.Q_h, rel=1e-15)
        assert marks.gap[0] < marks.gap[1] < marks.Q_star < marks.rebound

    def test_unit_and_sub_unit_hill(self, table1):
        for s in (1.0, 0.5):
            p = table1.with_(s=s)
            marks = slowman.landmarks(p)
            assert marks.Q_h is None and marks.switch is None
            assert marks.gap == (None, None) and marks.rebound is None
            assert abs(marks.Q_f - oracle_q_f(p)) <= 1e-12 * marks.Q_f


class TestLinearizedManifold:
    # reference rows frozen after residual verification of the real root,
    # self-consistent Q' = lam*G/G' and Q_tau = Q_r - tau*Q' in each row
    ROWS = [
        (0.01, 1.105e-3, 1.17e-5, 9.97e-3, "below_Qf"),
        (0.02, 9.56e-4, 2.45e-5, 1.99e-2, "below_Qf"),
        (0.03, 6.68e-4, 3.96e-5, 2.99e-2, "below_Qf"),
        (0.04, 1.60e-4, 5.81e-5, 3.98e-2, "below_Qf"),
        (0.05, -7.40e-4, 8.13e-5, 4.98e-2, "Qf_to_Qh"),
        (0.06, -2.45e-3, 1.11e-4, 5.97e-2, "Qf_to_Qh"),
        (0.07, -6.28e-3, 1.48e-4, 6.96e-2, "Qf_to_Qh"),
        (0.08, -1.93e-2, 1.99e-4, 7.94e-2, "Qf_to_Qh"),
    ]

    @pytest.mark.parametrize("q_r,lam,qp,qt,regime", ROWS)
    def test_reference_rows(self, canard_params, marks, q_r, lam, qp, qt, regime):
        pt = slowman.slow_manifold_linearized(q_r, canard_params, marks)
        assert pt.lam == pytest.approx(lam, rel=2e-3)
        assert pt.Q_prime == pytest.approx(qp, rel=5e-3)
        assert pt.Q_tau == pytest.approx(qt, rel=5e-3)
        assert pt.regime == regime
        # the real root actually solves the characteristic equation
        c = chareq.coeffs_at(q_r, canard_params)
        assert abs(chareq.char_value(c, complex(pt.lam))) < 1e-10

    def test_key_reference_point(self, canard_params, marks):
        pt = slowman.slow_manifold_linearized(0.063224, canard_params, marks)
        assert_printed(pt.lam, -3.33e-3, 3, "lambda-")

    def test_gap_raises(self, canard_params, marks):
        qs = steady_state(canard_params).nontrivial
        with pytest.raises(slowman.NoRealRootGap):
            slowman.slow_manifold_linearized(qs, canard_params, marks)

    def test_above_gap_uses_smaller_positive_root(self, canard_params, marks):
        pt = slowman.slow_manifold_linearized(0.12, canard_params, marks)
        assert pt.regime == "above_Qhp"
        roots = chareq.real_roots(chareq.coeffs_at(0.12, canard_params))
        assert len(roots) == 2 and all(r.re > 0 for r in roots)
        assert pt.lam == pytest.approx(min(r.re for r in roots), rel=1e-12)

    def test_profile_marks_gap_rows(self, canard_params, marks):
        lo, hi = marks.gap
        rows = slowman.slow_manifold_profile(
            canard_params, [0.05, 0.5 * (lo + hi), 0.12])
        assert [r["regime"] for r in rows] == ["Qf_to_Qh", "gap", "above_Qhp"]
        assert math.isnan(rows[1]["lambda"])

    def test_stability_split(self, canard_params, marks):
        # attracting between drift peak and gap: every root decays
        for q_r in (0.05, 0.07, 0.083):
            c = chareq.coeffs_at(q_r, canard_params)
            dom = chareq.rightmost_root(c)
            assert dom.re < 0.0
        # repelling below the drift peak: positive real root
        for q_r in (0.01, 0.03):
            c = chareq.coeffs_at(q_r, canard_params)
            assert max(r.re for r in chareq.real_roots(c)) > 0.0


class TestLinearizedSolution:
    def test_anchored_at_reference(self, canard_params):
        sol = slowman.linearized_solution(0.05, canard_params)
        assert sol(0.0) == pytest.approx(0.05, rel=1e-14)

    def test_oscillatory_mode_period_and_decay(self, canard_params):
        c = chareq.coeffs_at(0.063224, canard_params)
        pair = chareq.complex_roots(c, re_min=-0.5, im_max=3.0)[0]
        assert_printed(pair.re, -0.202, 3, "Re lambda_1")
        assert_printed(pair.im, 1.86, 3, "Im lambda_1")
        period = 2.0 * math.pi / pair.im
        assert period == pytest.approx(3.37, abs=0.034)
        base = slowman.linearized_solution(0.063224, canard_params)
        sol = slowman.linearized_solution(0.063224, canard_params,
                                          modes=[(pair, 0.0, 0.003935)])
        ts = np.linspace(0.0, 25.0, 4001)
        wiggle = sol(ts) - base(ts)
        # zero crossings spaced by half the mode period, amplitude decaying
        sgn = np.sign(wiggle)
        flips = ts[1:][sgn[1:] != sgn[:-1]]
        assert np.allclose(np.diff(flips), period / 2.0, atol=0.02)
        assert abs(wiggle[-1]) < abs(
            0.003935 * math.exp(pair.re * ts[-1])) * 1.5

    def test_wrong_mode_root_rejected(self, canard_params):
        with pytest.raises(ValueError, match="characteristic"):
            slowman.linearized_solution(0.05, canard_params,
                                        modes=[(1.0 + 2.0j, 0.1, 0.0)])


# ---------------------------------------------------------------------------
# The compiled grids (hsc_nullcline, hsc_manifold_roots) against the Python
# ports they replace, which stay as fallback and oracle

# an ensemble set on which brentq's default 100 iterations stopped the solve
# on [0, Q_h] at the value 1e-160
FAR_BELOW_QH = ModelParams(kappa=3.7652, gamma=0.024455, tau=4.3346,
                           theta=0.32803, f=12.524, s=2.3776)


@pytest.fixture
def kernel():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("the compiled kernel cannot be built here")
    return lib


def extreme_values(rng, p):
    """0, the subnormals, 1e-323 to 1e300 on a log scale, the largest double,
    and a uniform grid over the slow-manifold range."""
    return sorted({0.0, 5e-324, sys.float_info.max,
                   *(10.0 ** rng.uniform(-323.0, 300.0, 14)).tolist(),
                   *rng.uniform(0.0, 3.0 * p.theta, 14).tolist()})


def left_to_python(monkeypatch, name):
    """Record the values that the compiled grid hands to ``slowman.<name>``."""
    port, seen = getattr(slowman, name), []

    def recorded(*args):
        seen.append(args)
        return port(*args)

    monkeypatch.setattr(slowman, name, recorded)
    return port, seen


class TestCompiledGrids:
    def test_nullcline_equals_python_port(self, kernel, canard_params,
                                          monkeypatch):
        rng = np.random.default_rng(31)
        port, seen = left_to_python(monkeypatch, "nullcline")
        for p in [canard_params, FAR_BELOW_QH, *ensemble(300, seed=32)]:
            values = extreme_values(rng, p)
            for given in ("q_now", "q_delayed"):
                got = slowman._compiled_nullcline(kernel, p, given, values)
                assert repr(got) == repr([port(p, given, v) for v in values])
            # Python takes only values whose companions leave the square
            # range, none of the slow-manifold range
            assert not [v for q, _, v in seen
                        if q is p and 1e-3 * p.theta <= v <= 3.0 * p.theta]
        assert seen

    def test_manifold_values_equal_python_port(self, kernel, canard_params):
        rng = np.random.default_rng(33)
        n = solved = 0
        for p in [canard_params, *ensemble(300, seed=34)]:
            qs = extreme_values(rng, p)[1:]
            got = slowman._compiled_manifold_values(kernel, p, qs)
            for q, g in zip(qs, got):
                n += 1
                if g is not None:
                    solved += 1
                    assert repr(g) == repr(slowman._python_manifold_values(q, p))
        assert solved > 0.75 * n

    def test_same_bytes_without_the_kernel(self, kernel, canard_params,
                                           monkeypatch, tmp_path):
        sets = [canard_params, *ensemble(40, seed=35)]
        q = np.linspace(0.005, 0.25, 200)

        def files(prefix):
            for i, p in enumerate(sets):
                grid = q * p.theta / canard_params.theta
                try:
                    rows = slowman.slow_manifold_profile(p, grid)
                except slowman.RegimeError:  # no steady state: no landmarks
                    rows = []
                export.write_csv(tmp_path / f"{prefix}{i}_slowman.csv",
                                 export.SLOWMAN_HEADER, export.slowman_rows(rows))
                export.write_csv(tmp_path / f"{prefix}{i}_nullcline.csv",
                                 export.NULLCLINE_HEADER,
                                 export.nullcline_rows(p, grid))
            return [f.read_bytes() for f in sorted(tmp_path.glob(prefix + "*"))]

        compiled = files("a")
        monkeypatch.setattr(_native.status, "lib", None)
        assert files("b") == compiled

    def test_points_left_to_python(self, kernel, table1, canard_params,
                                   monkeypatch):
        # beyond the square range q**s overflows, and Python takes h in its
        # far form: a far companion of a tiny value, a Q_r of 1e200
        port, seen = left_to_python(monkeypatch, "nullcline")
        got = slowman.nullcline_grid(table1, "q_now", [1e-300, 1.0])
        assert got == [port(table1, "q_now", 1e-300), port(table1, "q_now", 1.0)]
        assert seen == [(table1, "q_now", 1e-300)]
        with pytest.raises(ValueError, match="nonnegative"):
            slowman.nullcline_grid(table1, "q_now", [1.0, -1.0])
        with pytest.raises(ValueError, match="given"):
            slowman.nullcline_grid(table1, "q_then", [1.0])

        p = canard_params
        port, seen = left_to_python(monkeypatch, "slow_manifold_linearized")
        rows = slowman.slow_manifold_profile(p, [0.05, 1e200])
        marks = slowman.landmarks(p)
        assert rows[1]["Q_tau"] == port(1e200, p, marks).Q_tau
        assert [q for q, *_ in seen] == [1e200]
        with pytest.raises(ValueError, match="positive"):
            slowman.slow_manifold_profile(p, [0.05, -1.0])
        with pytest.raises(ValueError, match="positive"):
            slowman.slow_manifold_profile(p, [math.nan])

    @pytest.mark.parametrize("compiled", [True, False])
    def test_nan_q_r_is_rejected(self, canard_params, monkeypatch, compiled):
        # NaN <= 0 is false: a NaN Q_r got through as a gap row
        if not compiled:
            monkeypatch.setattr(_native.status, "lib", None)
        elif _native.kernel() is None:
            pytest.skip("the compiled kernel cannot be built here")
        p = canard_params
        with pytest.raises(ValueError, match="Q_r must be positive"):
            slowman.slow_manifold_linearized(math.nan, p)
        with pytest.raises(ValueError, match="Q_r must be positive"):
            slowman.slow_manifold_profile(p, [0.05, math.nan])

    def test_tiny_values_converge_in_both_ports(self):
        # a root far below Q_h took brentq more than its default 100
        # iterations on [0, Q_h] (at most 158 over 300 ensemble sets)
        rng = np.random.default_rng(36)
        lib = _native.kernel()
        for p in [FAR_BELOW_QH, *ensemble(30, seed=37)]:
            values = [1e-160, *(10.0 ** rng.uniform(-300.0, -1.0, 30)).tolist()]
            for given in ("q_now", "q_delayed"):
                want = [slowman.nullcline(p, given, v) for v in values]
                assert all(want)
                if lib is not None:
                    got = slowman._compiled_nullcline(lib, p, given, values)
                    assert repr(got) == repr(want)

    @pytest.mark.parametrize("port", ["nullcline", "_python_manifold_values"])
    def test_failing_check_falls_back_to_the_python_ports(
            self, kernel, canard_params, monkeypatch, port):
        slowman.nullcline_grid(canard_params, "q_now", [0.1])  # registers the check
        real = getattr(slowman, port)

        def shifted(*args):  # the port moved by one ulp
            got = real(*args)
            if port == "nullcline":
                return [math.nextafter(y, math.inf) for y in got]
            return (math.nextafter(got[0], math.inf), *got[1:])

        monkeypatch.setattr(slowman, port, shifted)
        monkeypatch.setattr(_native.status, "why", "")
        assert _native._load() is None
        assert _native.status.why == ("failed load-time check: slow-manifold "
                                      "grids differ from the Python ports")
        monkeypatch.setattr(_native.status, "lib", None)
        p, q = canard_params, np.linspace(0.005, 0.25, 40).tolist()
        assert slowman.nullcline_grid(p, "q_now", q) == \
            [slowman.nullcline(p, "q_now", v) for v in q]
        marks = slowman.landmarks(p)
        want = []
        for v in q:
            try:
                want.append(slowman.slow_manifold_linearized(v, p, marks).Q_tau)
            except slowman.NoRealRootGap:
                want.append(math.nan)
        got = [r["Q_tau"] for r in slowman.slow_manifold_profile(p, q)]
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("shift", [False, True])
    def test_check_runs_when_slowman_is_imported_after_the_load(self, kernel,
                                                                shift):
        # integrate loads the kernel before slowman registers its check
        script = f"""
import math, sys
import scipy.optimize
from hsclab import _native
from hsclab.integrator import History, integrate
from hsclab.model import table1_params
p = table1_params()
integrate(p, History.constant(p.tau, 1.0), 5.0)
assert _native.status.lib is not None and "hsclab.slowman" not in sys.modules
if {shift}:  # the Python nullcline moved by one ulp
    brentq = scipy.optimize.brentq
    scipy.optimize.brentq = lambda *a, **k: math.nextafter(brentq(*a, **k), 1.0)
import hsclab.slowman
hsclab.slowman.nullcline_grid(p, "q_now", [0.1])  # the first grid solve
print(_native.kernel_status())
"""
        src = os.path.dirname(os.path.dirname(hsclab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == ("{'python': 'failed load-time check: "
                               "slow-manifold grids differ from the Python "
                               "ports'}" if shift else "compiled")
