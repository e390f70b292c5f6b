import math
import sys

import numpy as np
import pytest

from hsclab import chareq
from hsclab.model import (CalibrationError, HomeostasisSpec, ModelParams,
                          TABLE1_SPEC, amplification, beta, derive_homeostasis,
                          existence_bounds, h_and_G, h_prime_level,
                          nondimensionalize,
                          params_from_dict, params_to_dict, rhs,
                          spec_from_dict, steady_state, table1_params)
from conftest import assert_printed, random_valid_params


class TestBeta:
    def test_at_zero_is_max_rate(self, table1):
        assert beta(0.0, table1) == table1.f == 8.0

    def test_half_effect(self, table1):
        assert beta(table1.theta, table1) == pytest.approx(4.0, rel=1e-14)

    def test_calibrated_entry_rate(self, table1):
        # the calibration is exact by construction
        assert beta(1.1, table1) == pytest.approx(0.043, rel=1e-12)

    def test_monotone_decreasing_with_zero_limit(self, table1):
        q = np.linspace(0.0, 50.0, 2001)
        vals = beta(q, table1)
        assert np.all(np.diff(vals) < 0)
        assert beta(1e9, table1) < 1e-15

    def test_overflowing_power_gives_the_zero_limit(self, table1):
        # a Python float's Q**s raises OverflowError past the double range
        assert beta(1e200, table1) == 0.0
        assert beta(1e130, table1.with_(s=2.5)) == 0.0
        with np.errstate(over="ignore"):
            assert np.array_equal(beta(np.array([1e200, 1.0]), table1),
                                  [0.0, beta(1.0, table1)])

    def test_in_range_values_unchanged(self):
        # oracle: the formula before the overflow guard
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = random_valid_params(rng)
            q = 10.0 ** rng.uniform(-3.0, 3.0, 64)
            ths = p.theta**p.s
            assert np.array_equal(beta(q, p), p.f * ths / (ths + q**p.s))
            for x in q[:4].tolist():
                assert beta(x, p) == p.f * ths / (ths + x**p.s)

    def test_rejects_negative(self, table1):
        with pytest.raises(ValueError):
            beta(-0.1, table1)
        with pytest.raises(ValueError):
            rhs(-0.1, 0.2, table1)


class TestAmplification:
    def test_no_apoptosis(self):
        assert amplification(0.0, 5.0) == 2.0

    def test_table1_value(self):
        assert_printed(amplification(0.1, 2.8), 1.512, 4, "A")

    def test_half_survival(self):
        assert amplification(0.25, math.log(2.0) / 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_in_unit_band(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_valid_params(rng)
            assert 0.0 < p.amplification < 2.0


class TestCalibration:
    def test_table1(self, table1):
        assert_printed(table1.theta, 0.08086, 4, "theta")
        assert_printed(table1.kappa, 0.022, 2, "kappa")
        qs = steady_state(table1).nontrivial
        assert qs == pytest.approx(1.1, rel=1e-12)

    def test_half_effect_by_construction(self):
        spec = HomeostasisSpec(Q_h=0.7, beta_h=4.0, f=8.0, s=2.0,
                               gamma=0.05, tau=1.5)
        p = derive_homeostasis(spec)
        assert p.theta == pytest.approx(0.7, rel=1e-14)

    def test_saturated_entry_rate_impossible(self):
        spec = HomeostasisSpec(Q_h=1.1, beta_h=8.0, f=8.0, s=2.0,
                               gamma=0.1, tau=2.8)
        with pytest.raises(CalibrationError):
            derive_homeostasis(spec)

    @pytest.mark.parametrize("far, message", [
        ({"f": 1e300, "beta_h": 1e-300}, "theta"),  # theta underflows to 0
        ({"beta_h": 6.0, "s": 1e-300}, "range"),  # theta overflows
    ])
    def test_far_spec_is_a_calibration_error(self, far, message):
        # a ValueError from ModelParams and an OverflowError before
        spec = HomeostasisSpec(**{"Q_h": 1.1, "beta_h": 0.043, "f": 8.0,
                                  "s": 2.0, "gamma": 0.1, "tau": 2.8, **far})
        with pytest.raises(CalibrationError, match=message):
            derive_homeostasis(spec)

    def test_calibration_recovers_target_state(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q_h = 10.0 ** rng.uniform(-1, 1)
            f = 10.0 ** rng.uniform(0, 1.3)
            b_h = f * rng.uniform(0.001, 0.9)
            gamma = rng.uniform(0.01, 0.2)
            tau = rng.uniform(0.5, 3.0)
            if gamma * tau >= 0.9 * math.log(2.0):
                continue
            spec = HomeostasisSpec(Q_h=q_h, beta_h=b_h, f=f,
                                   s=rng.uniform(1.1, 4.0), gamma=gamma, tau=tau)
            p = derive_homeostasis(spec)
            assert steady_state(p).nontrivial == pytest.approx(q_h, rel=1e-12)


class TestSteadyState:
    def test_boundary_reports_absent(self, table1):
        a = table1.amplification
        p = table1.with_(kappa=table1.f * (a - 1.0))
        assert steady_state(p).nontrivial is None

    def test_above_boundary_absent(self, table1):
        p = table1.with_(kappa=5.0)
        assert steady_state(p).nontrivial is None

    def test_canard_value(self, canard_params):
        assert_printed(steady_state(canard_params).nontrivial, 0.0896868, 6, "Q*")

    def test_balance_identity_ensemble(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = random_valid_params(rng)
            qs = steady_state(p).nontrivial
            assert qs is not None and qs > 0
            lhs = beta(qs, p) * (p.amplification - 1.0)
            assert lhs == pytest.approx(p.kappa, rel=1e-10)

    @pytest.mark.parametrize("vary", ["kappa", "gamma", "tau"])
    def test_monotone_decreasing(self, table1, vary):
        kmax, tmax = existence_bounds(table1)
        hi = {"kappa": kmax, "gamma": math.log(2 * table1.f / (table1.kappa + table1.f)) / table1.tau,
              "tau": tmax}[vary]
        lo = getattr(table1, vary) * 0.01
        grid = np.linspace(lo, hi * 0.999, 100)
        vals = [steady_state(table1.with_(**{vary: float(v)})).nontrivial
                for v in grid]
        assert all(v is not None for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestExistenceBounds:
    def test_table1(self, table1):
        kmax, tmax = existence_bounds(table1)
        assert_printed(kmax, 4.093, 4, "kappa_max")
        assert_printed(tmax, 6.90401, 6, "tau_max")

    def test_kappa_equal_f_gives_zero_delay_bound(self):
        p = ModelParams(kappa=8.0, gamma=0.1, tau=2.8, theta=0.1, f=8.0, s=2.0)
        assert existence_bounds(p)[1] == pytest.approx(0.0, abs=1e-15)

    def test_no_apoptosis_never_binds(self, table1):
        p = table1.with_(gamma=1e-300)  # positive but dynamically zero
        assert existence_bounds(p)[1] > 1e250


class TestHAndG:
    def test_drift_roots_at_steady_states(self, table1):
        qs = steady_state(table1).nontrivial
        assert h_and_G(0.0, table1).G == 0.0
        assert abs(h_and_G(qs, table1).G) < 1e-14

    def test_flux_peak_at_theta_for_quadratic_hill(self, table1):
        assert h_and_G(table1.theta, table1).h_prime == pytest.approx(0.0, abs=1e-12)

    def test_drift_peak_location(self, canard_params):
        from scipy.optimize import brentq
        qf = brentq(lambda q: h_and_G(q, canard_params).G_prime, 1e-6, 0.0896,
                    xtol=1e-15)
        assert_printed(qf, 0.042263, 5, "Q_f")

    def test_derivatives_match_finite_differences(self, table1):
        for q in (0.02, 0.1, 0.7, 1.4):
            d = 1e-7
            hv = h_and_G(q, table1)
            fd_h = (h_and_G(q + d, table1).h - h_and_G(q - d, table1).h) / (2 * d)
            fd_g = (h_and_G(q + d, table1).G - h_and_G(q - d, table1).G) / (2 * d)
            assert hv.h_prime == pytest.approx(fd_h, rel=1e-6, abs=1e-8)
            assert hv.G_prime == pytest.approx(fd_g, rel=1e-6, abs=1e-8)


def _h_and_G_unguarded(Q, p):
    """Reference: the closed forms without the far-range branch."""
    ths = p.theta**p.s
    qs = Q**p.s
    den = ths + qs
    h = p.f * ths * Q / den
    h_prime = p.f * ths * (ths + (1.0 - p.s) * qs) / den**2
    A = p.amplification
    return h, h_prime, (A - 1.0) * h - p.kappa * Q, (A - 1.0) * h_prime - p.kappa


class TestHAndGRange:
    def test_in_range_bits_unchanged_on_ensemble(self, table1):
        rng = np.random.default_rng(4)
        params = [table1, table1.with_(s=1.0), table1.with_(s=0.5)]
        params += [random_valid_params(rng) for _ in range(200)]
        for p in params:
            q = p.theta * np.concatenate([[0.0], np.geomspace(1e-12, 1e30, 301)])
            assert np.array_equal(np.array(h_and_G(q, p)),
                                  np.array(_h_and_G_unguarded(q, p)))
            for x in q[::30]:
                assert tuple(h_and_G(float(x), p)) == \
                    _h_and_G_unguarded(float(x), p)

    def test_beyond_double_range_is_finite(self, table1):
        # Q**s leaves the double range: the scalar used to raise
        # OverflowError and the array form gave h' = nan
        q = 1.73e155
        with pytest.raises(OverflowError):
            _h_and_G_unguarded(q, table1)
        hv = h_and_G(q, table1)
        assert all(math.isfinite(x) for x in hv)
        # h = f*theta^2/Q and h' = -f*theta^2/Q^2 to double precision at s = 2
        r = table1.theta / q
        assert hv.h == pytest.approx(table1.f * table1.theta * r, rel=1e-15)
        assert hv.h_prime == pytest.approx(-table1.f * r * r, rel=1e-12)
        arr = h_and_G(np.array([1.0, q]), table1)
        assert arr.h[1] == hv.h and arr.h_prime[1] == hv.h_prime
        assert arr.h[0] == h_and_G(1.0, table1).h

    def test_limits_at_infinity(self, table1):
        for s in (1.2, 2.0, 4.0):
            hv = h_and_G(math.inf, table1.with_(s=s))
            assert hv.h == 0.0 and hv.h_prime == 0.0
        p = table1.with_(s=1.0)
        for q in (1e160, 1e300, math.inf):
            hv = h_and_G(q, p)
            assert hv.h == p.f * p.theta
            assert hv.h_prime == pytest.approx(p.f * (p.theta / q)**2,
                                               rel=1e-15, abs=1e-320)

    def test_far_branch_continues_the_closed_forms(self):
        # on either side of the switch to r = theta/Q the values agree
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_valid_params(rng)
            edge = math.sqrt(sys.float_info.max)**(1.0 / p.s)
            q = edge * np.geomspace(0.5, 2.0, 41)
            hv = h_and_G(q, p)
            assert np.all(np.isfinite(hv.h)) and np.all(np.isfinite(hv.h_prime))
            assert np.all(np.diff(hv.h) < 0) and np.all(hv.h_prime < 0)
            u_inv = (p.theta / q)**p.s
            np.testing.assert_allclose(hv.h, p.f * q * u_inv, rtol=1e-13)


class TestHPrimeLevel:
    def test_flux_peak_and_drift_peak(self, table1, canard_params):
        assert h_prime_level(0.0, table1) == [pytest.approx(table1.theta, rel=1e-15)]
        p = canard_params
        (q_f,) = h_prime_level(p.kappa / (p.amplification - 1.0), p)
        assert_printed(q_f, 0.042263, 5, "Q_f")

    def test_two_solutions_between_minimum_and_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_valid_params(rng)
            hp_min = -p.f * (p.s - 1.0)**2 / (4.0 * p.s)  # at u = (s+1)/(s-1)
            for c in (0.999 * hp_min, 0.5 * hp_min, 1e-6 * hp_min):
                lo, hi = h_prime_level(c, p)
                assert lo < hi
                for q in (lo, hi):
                    assert abs(h_and_G(q, p).h_prime - c) <= 1e-14 * p.f
            assert h_prime_level(1.001 * hp_min, p) == []
            (q,) = h_prime_level(0.5 * p.f, p)
            assert abs(h_and_G(q, p).h_prime - 0.5 * p.f) <= 1e-14 * p.f

    def test_double_root_at_minimum_is_one_solution(self):
        # s = 3, f = 3: h' has its minimum -1 at u = 2, exactly
        p = ModelParams(kappa=0.1, gamma=0.1, tau=1.0, theta=0.5, f=3.0, s=3.0)
        assert h_prime_level(-1.0, p) == [pytest.approx(0.5 * 2.0**(1.0 / 3.0),
                                                        rel=1e-15)]

    def test_no_positive_solution_at_or_above_f(self, table1):
        # h'(0) = f is attained only at Q = 0, which is not positive
        for s in (0.5, 1.0, 2.0):
            p = table1.with_(s=s)
            assert h_prime_level(p.f, p) == []
            assert h_prime_level(2.0 * p.f, p) == []

    def test_unit_hill(self, table1):
        # h' = f/(1+u)^2 > 0: no zero (a degenerate quadratic), and
        # u = sqrt(f/c) - 1 for 0 < c < f
        p = table1.with_(s=1.0)
        assert h_prime_level(0.0, p) == []
        assert h_prime_level(-1.0, p) == []
        (q,) = h_prime_level(0.25 * p.f, p)
        assert q == pytest.approx(p.theta, rel=1e-15)

    def test_below_unit_hill(self, table1):
        # h' falls monotonically from f to 0+: one solution in (0, f) only
        p = table1.with_(s=0.5)
        assert h_prime_level(0.0, p) == [] and h_prime_level(-0.1, p) == []
        for c in (1e-3, 0.3, 0.9):
            (q,) = h_prime_level(c * p.f, p)
            assert abs(h_and_G(q, p).h_prime - c * p.f) <= 1e-14 * p.f

    def test_underflowed_levels(self, table1):
        # a level of -0.0 is h' = 0-: the root at infinity drops out; a
        # subnormal level keeps its far root finite
        q_h = table1.theta
        assert h_prime_level(-0.0, table1) == [pytest.approx(q_h, rel=1e-15)]
        lo, hi = h_prime_level(-1e-310, table1)
        assert lo == pytest.approx(q_h, rel=1e-15)
        # h' ~ -f/u far out, so u = f/1e-310
        assert hi == pytest.approx(q_h * math.sqrt(table1.f) / math.sqrt(1e-310),
                                   rel=1e-12)


class TestNondimensional:
    def test_table1_values(self, table1):
        nd = nondimensionalize(table1)
        # hand arithmetic: 2.8*8 and 0.0219974.../8
        assert nd.f_hat == pytest.approx(22.4, rel=1e-14)
        assert nd.kappa_hat == pytest.approx(0.0027496752206, rel=1e-9)
        assert nd.A_hat == table1.amplification

    def test_identity_scaling(self):
        p = ModelParams(kappa=0.1, gamma=0.2, tau=1.0, theta=0.5, f=1.0, s=2.0)
        assert nondimensionalize(p).f_hat == 1.0

    def test_mapped_params_same_scaled_dynamics(self, table1):
        nd = nondimensionalize(table1)
        pm = nd.mapped_params()
        assert pm.tau == 1.0 and pm.theta == 1.0
        assert pm.amplification == pytest.approx(table1.amplification, rel=1e-14)
        # scaled steady state agrees
        assert steady_state(pm).nontrivial == pytest.approx(
            steady_state(table1).nontrivial / table1.theta, rel=1e-12)


class TestRhs:
    def test_zero_at_steady_states(self, table1):
        qs = steady_state(table1).nontrivial
        assert rhs(0.0, 0.0, table1) == 0.0
        assert abs(rhs(qs, qs, table1)) < 1e-14

    def test_inflow_only_is_positive(self, table1):
        qs = steady_state(table1).nontrivial
        assert rhs(0.0, qs, table1) > 0.0

    def test_overflowing_power_is_finite(self, table1):
        A = table1.amplification
        assert rhs(1e200, 1.0, table1) == \
            -table1.kappa * 1e200 + A * beta(1.0, table1) * 1.0
        assert rhs(1.0, 1e200, table1) == -(table1.kappa + beta(1.0, table1))


class TestLinearizationSign:
    def test_a_plus_b_negative_ensemble(self):
        # at any positive steady state the coefficient sum a+b = G'(Q*) < 0
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = random_valid_params(rng)
            qs = steady_state(p).nontrivial
            c = chareq.linearize_at(qs, p)
            assert c.a + c.b < 0.0


class TestSerialization:
    def test_round_trip(self, table1):
        d = params_to_dict(table1)
        assert sorted(d) == ["f", "gamma", "kappa", "s", "tau", "theta"]
        assert params_from_dict(d) == table1

    def test_spec_keys(self):
        d = {"Q_h": 1.1, "beta_h": 0.043, "f": 8.0, "s": 2.0,
             "gamma": 0.1, "tau": 2.8}
        assert spec_from_dict(d) == TABLE1_SPEC
        with pytest.raises(ValueError, match="missing"):
            spec_from_dict({"Q_h": 1.0})
        with pytest.raises(ValueError, match="unknown"):
            params_from_dict({**params_to_dict(table1_params()), "extra": 1})

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ModelParams(kappa=0.0, gamma=0.1, tau=2.8, theta=0.1, f=8.0, s=2.0)
        with pytest.raises(ValueError):
            ModelParams(kappa=0.1, gamma=0.1, tau=-1.0, theta=0.1, f=8.0, s=2.0)
