import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.special import lambertw

from hsclab import chareq
from hsclab.chareq import (LinearizationCoeffs, c0_curve,
                           complex_roots, coeffs_at, critical_delays,
                           hopf_locus_1p, lambert_w, lambertw_coalescence,
                           linearize_at, real_root_rebound, real_roots,
                           rightmost_complex_pair, rightmost_root,
                           stability_region, winding_number)
from hsclab.model import (ModelParams, existence_bounds, h_and_G,
                          steady_state)
from conftest import assert_printed, random_valid_params


def bisect_w(x, lo, hi, n=200):
    # independent oracle for the Lambert function: plain bisection
    f = lambda w: w * math.exp(w) - x
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if (f(lo) < 0) == (f(mid) < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# The seeded Newton search that the Lambert-W branch enumeration replaced,
# kept as the oracle for complex_roots and rightmost_complex_pair.

def _char_deriv(c, lam):
    return 1.0 + c.b * c.tau * chareq._safe_cexp(-lam * c.tau)


def _newton_root(c, z):
    for _ in range(80):
        pz = chareq.char_value(c, z)
        dpz = _char_deriv(c, z)
        if dpz == 0:
            return None
        dz = pz / dpz
        z -= dz
        if abs(z) > 1e9:
            return None
        if abs(dz) <= 1e-14 * (1.0 + abs(z)):
            # two polishing steps
            for _ in range(2):
                z -= chareq.char_value(c, z) / _char_deriv(c, z)
            return z
    return None


def newton_complex_roots(c, re_min, im_max, re_max=None):
    """Newton from a uniform seed grid (imaginary pitch <= pi/(2 tau)),
    deduplicated, with up to four denser reseedings until the count agrees
    with the winding count."""
    if c.b == 0.0:
        return []
    if re_max is None:
        re_max = chareq.real_part_cap(c) + 1.0
    pairs = []
    for refine in range(4):
        pitch_im = math.pi / (2.0 * c.tau) / (1 << refine)
        pitch_re = min(pitch_im, (re_max - re_min) / 12.0)
        res = np.arange(re_min + pitch_re / 2.0, re_max, pitch_re)
        ims = np.arange(pitch_im / 2.0, im_max + pitch_im, pitch_im)
        found = []
        for im in ims:
            for re in res:
                z = _newton_root(c, complex(re, im))
                if z is None:
                    continue
                if abs(z.imag) <= 1e-12 * max(1.0, abs(z)):
                    continue  # converged onto a real root
                z = complex(z.real, abs(z.imag))
                if not (re_min <= z.real <= re_max and z.imag <= im_max):
                    continue
                if all(abs(z - w) > 1e-8 * max(1.0, abs(z)) for w in found):
                    found.append(z)
        pairs = found
        target = chareq._expected_pair_count(c, re_min, re_max, im_max)
        if target is None or len(pairs) == target:
            break
    roots = [chareq._make_root(c, z) for z in pairs]
    roots.sort(key=lambda r: (-r.re, r.im))
    return roots


def newton_rightmost_complex_pair(c):
    """The Newton search in a window deepened up to eight times."""
    if c.b == 0.0:
        return None
    cap = chareq.real_part_cap(c)
    depth = 4.0 / c.tau
    for _ in range(8):
        re_min = cap - depth
        exact = abs(c.b) * math.exp(min(-re_min * c.tau, 50.0)) + 1e-9
        im_max = min(exact, 8.0 * math.pi / c.tau)
        roots = newton_complex_roots(c, re_min, im_max, re_max=cap + 1.0)
        if roots:
            return roots[0]
        depth += 4.0 / c.tau
    return None


def ensemble_coeffs(n, seed):
    """Linearisations at Q*, 0 and Q*/2 of n random valid parameter sets."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        p = random_valid_params(rng)
        qs = steady_state(p).nontrivial
        for q in (qs, 0.0, 0.5 * qs):
            yield coeffs_at(q, p), rng


# b*tau*exp(-a*tau) overflows a double for each of these
OVERFLOWING = [LinearizationCoeffs(-1001.0, 1900.0, 1.0),
               LinearizationCoeffs(-1001.0, -1900.0, 1.0),
               LinearizationCoeffs(-400.0, 5000.0, 2.0)]


def assert_same_roots(got, want):
    assert len(got) == len(want)
    for r, o in zip(got, want):
        assert abs(r.lam - o.lam) <= 1e-12 * abs(o.lam)
        assert r.residual <= 1e-10


# ---------------------------------------------------------------------------
# The minimize_scalar + brentq landmark search that the closed-form h'-level
# solutions replaced, kept as the oracle for lambertw_coalescence and
# real_root_rebound.

_INV_E = math.exp(-1.0)


def _hprime_dip(p: ModelParams):
    """Shared set-up of the coalescence landmarks: the Lambert-W argument
    x0 = -exp(-1 - kappa*tau)/A, h', and the minimum (q_m, h'(q_m)) of h'
    on the tail beyond its peak q_h.  None when s <= 1 (h' never decreases)
    or x0 <= -1/e (no real branch)."""
    if p.s <= 1.0:
        return None
    x0 = -math.exp(-1.0 - p.kappa * p.tau) / p.amplification
    if x0 <= -_INV_E:
        return None
    q_h = p.theta * math.exp(-math.log(p.s - 1.0) / p.s)

    def hp(q):
        return h_and_G(q, p).h_prime

    res = minimize_scalar(hp, bounds=(q_h * (1 + 1e-10), q_h * 100.0),
                          method="bounded", options={"xatol": 1e-13})
    return x0, hp, q_h, res.x, res.fun


def oracle_lambertw_coalescence(p: ModelParams) -> tuple[float | None, float | None]:
    dip = _hprime_dip(p)
    if dip is None:
        return None, None
    x0, hp, q_h, q_m, hp_min = dip
    t0, tm1 = lambert_w(0, x0) / p.tau, lambert_w(-1, x0) / p.tau
    if hp_min >= t0:
        return None, None  # h' never reaches the shallow target
    q_lo = brentq(lambda q: hp(q) - t0, q_h * (1 + 1e-12), q_m, xtol=1e-15)
    if hp_min < tm1:
        q_hi = brentq(lambda q: hp(q) - tm1, q_lo, q_m, xtol=1e-15)
    else:
        # shallow dip: the gap closes on the recovering side of h'
        q_right = q_m
        while hp(q_right) < t0:
            q_right *= 2.0
            if q_right > 1e12 * p.theta:
                return q_lo, None
        q_hi = brentq(lambda q: hp(q) - t0, q_m, q_right, xtol=1e-15)
    return q_lo, q_hi


def oracle_real_root_rebound(p: ModelParams) -> float | None:
    dip = _hprime_dip(p)
    if dip is None:
        return None
    x0, hp, _, q_m, hp_min = dip
    tm1 = lambert_w(-1, x0) / p.tau
    if hp_min >= tm1:
        return None
    q_right = q_m
    while hp(q_right) < tm1:
        q_right *= 2.0
        if q_right > 1e12 * p.theta:
            return None
    return brentq(lambda q: hp(q) - tm1, q_m, q_right, xtol=1e-15)


def _coeffs_at_delay(p: ModelParams, tau: float):
    pt = p.with_(tau=tau)
    qs = steady_state(pt).nontrivial
    if qs is None:
        return None
    return coeffs_at(qs, pt)


def _gap_grid_expression(p: ModelParams, taus: np.ndarray) -> np.ndarray:
    """Reference: chareq._tau1_gap_grid as plain numpy expressions, each
    step a new array and h' from h_and_G (the grid before it wrote into
    buffers)."""
    with np.errstate(all="ignore"):
        A = 2.0 * np.exp(-p.gamma * taus)
        radicand = p.f * (A - 1.0) / p.kappa - 1.0
        qstar = np.where(radicand > 0.0,
                         p.theta * np.exp(np.log(radicand) / p.s), np.nan)
        hp = h_and_G(qstar, p).h_prime
        a = -p.kappa - hp
        b = A * hp
        wedge = (b < 0.0) & (b < a) & (-b > np.abs(a))
        return np.where(wedge,
                        taus - np.arccos(-a / b) / np.sqrt(b * b - a * a),
                        np.nan)


def _scalar_critical_delays(p: ModelParams) -> chareq.CriticalDelays:
    """Reference: critical_delays with the scalar gap at every grid point and
    a Python loop over the grid pairs (the scan the numpy grid replaced)."""
    _, tau_max = existence_bounds(p)
    if tau_max <= 0.0:  # no delay has a nontrivial state
        return chareq.CriticalDelays(None, None, chareq._tau2(p), tau_max)
    if not math.isfinite(tau_max) or tau_max > 1e8:
        # the existence bound never binds on any physical horizon and the
        # amplification is effectively independent of tau: tau1 is fixed
        c = _coeffs_at_delay(p, 1.0)
        t1m = None
        if c is not None and c.b < 0.0 and -c.b > abs(c.a):
            t1m = math.acos(-c.a / c.b) / math.sqrt(c.b**2 - c.a**2)
        return chareq.CriticalDelays(t1m, None, chareq._tau2(p), tau_max)

    lo = tau_max * 1e-9
    grid = np.linspace(lo, tau_max * (1.0 - 1e-12), chareq._TAU_SCAN)
    vals = np.array([chareq._tau1_gap(p, t) for t in grid])
    crossings = []
    for i in range(len(grid) - 1):
        v0, v1 = vals[i], vals[i + 1]
        if math.isnan(v0) or math.isnan(v1):
            continue
        if v0 == 0.0:
            crossings.append(grid[i])
        elif (v0 < 0.0) != (v1 < 0.0):
            crossings.append(
                brentq(lambda t: chareq._tau1_gap(p, t), grid[i], grid[i + 1],
                       xtol=1e-12)
            )
    if len(crossings) > 2:
        warnings.warn(f"{len(crossings)} stability crossings in tau; "
                      "reporting the outermost pair")
    t1m = crossings[0] if crossings else None
    t1p = crossings[-1] if len(crossings) >= 2 else None
    return chareq.CriticalDelays(t1m, t1p, chareq._tau2(p), tau_max)


# ---------------------------------------------------------------------------
# The bisection on the rightmost root's real part that hopf_locus_1p ran
# before it shared _sign_crossings with critical_delays, kept as its oracle.

_HOPF_RE_TOL = 1e-9   # |Re| that ends the bisection of a Hopf point


def bisection_hopf_locus(p: ModelParams, vary: str, lo: float, hi: float,
                         n_scan: int) -> list[tuple[float, float]]:
    def dominant(v):
        pv = p.with_(**{vary: v})
        qs = steady_state(pv).nontrivial
        if qs is None:
            return None
        return rightmost_root(coeffs_at(qs, pv))

    grid = np.linspace(lo, hi, n_scan)
    vals = [dominant(v) for v in grid]
    out = []
    for i in range(len(grid) - 1):
        va, vb = vals[i], vals[i + 1]
        if va is None or vb is None or (va.re < 0.0) == (vb.re < 0.0):
            continue
        a_, b_ = grid[i], grid[i + 1]
        sa = va.re < 0.0
        root = None
        for _ in range(200):
            mid = 0.5 * (a_ + b_)
            root = dominant(mid)
            if root is None:
                break
            if abs(root.re) < _HOPF_RE_TOL or abs(b_ - a_) < 4e-16 * max(1.0, abs(mid)):
                break
            if (root.re < 0.0) == sa:
                a_ = mid
            else:
                b_ = mid
        if root is not None and root.kind == "complex-pair":
            out.append((0.5 * (a_ + b_), root.im))
    return out


# the scan misses tau1+ on these (draws 19, 26, 116 and 199 of
# random_valid_params from rng 0): the unstable window closes through the
# wedge edge b = a, where the gap is nan on the grid point after the crossing
MISSED_TAU1_PLUS = [
    ModelParams(kappa=0.6359839098334549, gamma=0.012563878998139377,
                tau=6.809879597092874, theta=0.10605165406999757,
                f=9.667992460686854, s=3.801491818231617),
    ModelParams(kappa=6.172791351976505, gamma=0.012279939506889034,
                tau=3.3557788123316707, theta=0.017932226036216845,
                f=16.863272384544725, s=3.6213792271221674),
    ModelParams(kappa=0.15272156006238188, gamma=0.043963342716259055,
                tau=6.7789726167765965, theta=0.07428144622171909,
                f=9.609930216910172, s=3.951739046543663),
    ModelParams(kappa=1.3389702900140112, gamma=0.018455261607480216,
                tau=4.100542018718823, theta=0.03108127943309018,
                f=11.565484438600677, s=3.607704799554444),
]


class TestLambertW:
    def test_defining_identities(self):
        assert lambert_w(0, 0.0) == 0.0
        assert lambert_w(0, math.e) == pytest.approx(1.0, rel=1e-15)
        assert lambert_w(-1, -math.exp(-1.0)) == -1.0

    def test_against_bisection_oracle(self):
        assert lambert_w(0, 1.0) == pytest.approx(bisect_w(1.0, 0.0, 1.0), abs=1e-13)
        assert lambert_w(0, 1.0) == pytest.approx(0.5671432904, abs=1e-10)

    def test_identity_residual_across_branches(self):
        # 1e4 log-spaced points per branch, residual below 1e-14 relative.
        # (Beyond x ~ 1e20 one ulp of w already moves w*e^w by more than
        # 1e-14 relative, so huge arguments are checked in log space below.)
        xs0 = np.concatenate([
            -math.exp(-1.0) + np.logspace(-14, math.log10(math.exp(-1.0) - 1e-15), 5000),
            np.logspace(-14, 20, 5000),
        ])
        for x in xs0:
            w = lambert_w(0, float(x))
            assert abs(w * math.exp(w) - x) <= 1e-14 * max(abs(x), 1e-300)
        for x in np.logspace(21, 290, 50):
            w = lambert_w(0, float(x))
            assert abs(w + math.log(w) - math.log(x)) <= 1e-13 * math.log(x)
        xsm = -math.exp(-1.0) + np.logspace(-14, math.log10(math.exp(-1.0) - 1e-16), 10000)
        for x in xsm:
            w = lambert_w(-1, float(x))
            # w*e^w underflows near x -> 0-, compare in log space there
            if w > -700:
                assert abs(w * math.exp(w) - x) <= 1e-13 * abs(x)

    def test_against_scipy(self):
        from scipy.special import lambertw as sw
        for x in (-0.3678, -0.25, -0.05, 0.0, 0.5, 3.0, 1e4, 1e30):
            assert lambert_w(0, x) == pytest.approx(float(sw(x, 0).real), rel=1e-12)
        for x in (-0.3678, -0.2, -0.01, -1e-8):
            assert lambert_w(-1, x) == pytest.approx(float(sw(x, -1).real), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w(0, -0.5)
        with pytest.raises(ValueError):
            lambert_w(-1, 0.1)
        with pytest.raises(ValueError):
            lambert_w(1, 0.1)

    @given(st.floats(min_value=-0.36, max_value=1e6, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_principal_branch_property(self, x):
        w = lambert_w(0, x)
        assert w >= -1.0
        assert w * math.exp(w) == pytest.approx(x, rel=1e-13, abs=1e-300)


class TestLinearize:
    def test_homeostasis_coefficients(self, table1):
        qs = steady_state(table1).nontrivial
        c = linearize_at(qs, table1)
        assert_printed(c.a, 0.020540, 5, "a")
        assert_printed(c.b, -0.064298, 5, "b")

    def test_trivial_state(self, table1):
        c = linearize_at(0.0, table1)
        assert c.a == pytest.approx(-table1.kappa - table1.f, rel=1e-14)
        assert c.b == pytest.approx(table1.amplification * table1.f, rel=1e-14)

    def test_rejects_non_steady_point(self, table1):
        with pytest.raises(ValueError, match="not a steady state"):
            linearize_at(0.5, table1)

    def test_sum_equals_drift_slope(self, canard_params):
        from hsclab.model import h_and_G
        qs = steady_state(canard_params).nontrivial
        c = linearize_at(qs, canard_params)
        assert c.a + c.b == pytest.approx(h_and_G(qs, canard_params).G_prime,
                                          rel=1e-12)
        assert c.a + c.b < 0.0


class TestRealRoots:
    def test_no_delay_coupling(self):
        c = LinearizationCoeffs(a=-0.4, b=0.0, tau=2.0)
        roots = real_roots(c)
        assert len(roots) == 1 and roots[0].lam == -0.4

    def test_trivial_state_root_at_tau6(self, table1):
        # independent check: the dominant root solves the characteristic
        # equation; locate it by bisection, then compare
        p = table1.with_(tau=6.0)
        c = linearize_at(0.0, p)
        f = lambda x: x - c.a - c.b * math.exp(-x * c.tau)
        lo, hi = 0.001, 0.05
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (f(lo) < 0) == (f(mid) < 0):
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        dom = max(real_roots(c), key=lambda r: r.re)
        assert dom.lam.real == pytest.approx(oracle, abs=1e-12)
        assert dom.lam.real == pytest.approx(0.0147605, abs=1e-7)

    def test_canard_reference_root(self, canard_params):
        c = coeffs_at(0.05, canard_params)
        dom = max(real_roots(c), key=lambda r: r.re)
        assert_printed(dom.lam.real, -7.40e-4, 3, "lambda at Q_r=0.05")

    def test_two_one_zero_root_cases(self):
        # b < 0 with argument above/below the branch point
        c2 = LinearizationCoeffs(a=0.0, b=-0.1, tau=1.0)   # x=-0.1 > -1/e
        assert len(real_roots(c2)) == 2
        c0 = LinearizationCoeffs(a=0.0, b=-1.0, tau=1.0)   # x=-1 < -1/e
        assert len(real_roots(c0)) == 0
        c1 = LinearizationCoeffs(a=0.0, b=1.0, tau=1.0)
        assert len(real_roots(c1)) == 1

    def test_underflowed_argument(self):
        # b*tau*exp(-a*tau) = -8*exp(-800) underflows to -0.0, where
        # lambert_w(-1, x) raised; the deep root comes from log(-x)
        c = LinearizationCoeffs(a=100.0, b=-1.0, tau=8.0)
        near, deep = real_roots(c)
        assert near.lam == 100.0
        w = (deep.re - c.a) * c.tau
        assert w + math.log(-w) == pytest.approx(math.log(8.0) - 800.0,
                                                 rel=1e-15)
        assert deep.residual < 1e-10  # the residual contract

    def test_log_space_w_minus_one_matches_direct(self):
        # either side of the switch to the log-space solve at lx = -700
        for lx in (-650.0, -699.0, -701.0, -720.0):
            w = chareq._wm1_from_log(lx)
            assert w + math.log(-w) == pytest.approx(lx, rel=1e-15)
            assert w * math.exp(w - lx) == pytest.approx(-1.0, rel=1e-12)

    def test_residual_contract(self, table1):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = random_valid_params(rng)
            qs = steady_state(p).nontrivial
            for r in real_roots(coeffs_at(qs, p)):
                assert r.residual < 1e-10


class TestComplexRoots:
    def test_canard_leading_pairs(self, canard_params):
        qs = steady_state(canard_params).nontrivial
        roots = complex_roots(coeffs_at(qs, canard_params), re_min=-1.0, im_max=3.0)
        assert_printed(roots[0].re, 0.0070, 2, "Re lambda_1")
        assert_printed(roots[0].im, 0.1303, 4, "Im lambda_1")
        assert_printed(roots[1].re, -0.73, 2, "Re lambda_2")
        assert_printed(roots[1].im, 2.67, 3, "Im lambda_2")

    def test_reference_point_pair(self, canard_params):
        roots = complex_roots(coeffs_at(0.05, canard_params), re_min=-0.5, im_max=3.0)
        assert_printed(roots[0].re, -0.077, 2, "Re")
        assert_printed(roots[0].im, 2.00, 3, "Im")

    def test_no_delay_coupling_no_complex_roots(self):
        assert complex_roots(LinearizationCoeffs(0.3, 0.0, 1.0), -5.0, 10.0) == []

    def test_residuals_and_conjugate_convention(self, table1):
        qs = steady_state(table1).nontrivial
        roots = complex_roots(coeffs_at(qs, table1), re_min=-3.0, im_max=8.0)
        assert roots
        for r in roots:
            assert r.im > 0.0
            assert r.residual < 1e-10
            assert r.kind == "complex-pair"

    def test_winding_count_agreement_random(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            p = random_valid_params(rng)
            qs = steady_state(p).nontrivial
            c = coeffs_at(qs, p)
            im_max = 3.0 * math.pi / c.tau + rng.uniform(0, 1)
            re_min = -4.0 / c.tau
            pairs = complex_roots(c, re_min=re_min, im_max=im_max)
            n_real = sum(1 for r in real_roots(c)
                         if re_min - 1e-7 < r.re < chareq.real_part_cap(c) + 1.0)
            wind = winding_number(c, re_min - 1e-7,
                                  chareq.real_part_cap(c) + 1.0 + 1e-7,
                                  -(im_max + 1e-7), im_max + 1e-7)
            assert wind == 2 * len(pairs) + n_real

    def test_matches_newton_oracle_on_ensemble(self):
        # 300 parameter sets x 3 reference points, in the window of
        # test_winding_count_agreement_random
        n = 0
        for c, rng in ensemble_coeffs(300, 31):
            re_min, im_max = -4.0 / c.tau, 3.0 * math.pi / c.tau + rng.uniform(0, 1)
            want = newton_complex_roots(c, re_min, im_max)
            assert_same_roots(complex_roots(c, re_min, im_max), want)
            n += len(want)
        assert n > 900

    @pytest.mark.parametrize("c", OVERFLOWING)
    def test_matches_newton_oracle_out_of_double_range(self, c):
        re_min, im_max = -4.0 / c.tau, 3.0 * math.pi / c.tau + 0.5
        want = newton_complex_roots(c, re_min, im_max)
        assert want
        assert_same_roots(complex_roots(c, re_min, im_max), want)

    @pytest.mark.parametrize("re_min, im_max", [(-5.0, 1e300), (-1e8, 4.0)])
    def test_window_too_large_to_count(self, table1, re_min, im_max):
        # neither window may enumerate branches or sample a contour for ever
        c = coeffs_at(steady_state(table1).nontrivial, table1)
        with pytest.raises(ValueError, match="window too large"):
            complex_roots(c, re_min=re_min, im_max=im_max)

    def test_positivity_frequency_bound(self):
        # complex roots of the trivial-state linearisation stay above pi/tau
        rng = np.random.default_rng(15)
        for _ in range(100):
            p = random_valid_params(rng)
            c = coeffs_at(0.0, p)
            roots = complex_roots(c, re_min=-1.0 / p.tau,
                                  im_max=3.5 * math.pi / p.tau)
            for r in roots:
                assert r.im >= math.pi / p.tau - 1e-9


def bracket_real_part_cap(c):
    # the bracket search that the closed form replaced, kept as its oracle:
    # brentq on the strictly decreasing g(r) = a + |b|*exp(-r*tau) - r
    a, b, tau = c.a, abs(c.b), c.tau
    if b == 0.0:
        return a
    g = lambda r: a + b * math.exp(min(-r * tau, 700.0)) - r
    hi = a + b + 1.0
    while g(hi) > 0.0:
        hi += max(1.0, abs(hi))
    lo = hi - 1.0
    while g(lo) < 0.0:
        hi = lo
        lo -= max(1.0, abs(lo))
    return brentq(g, lo, hi, xtol=1e-13)


class TestRealPartCap:
    def test_far_left_bracket(self):
        # |b|*tau*exp(-a*tau) passes e^690: W_0 comes from its logarithm
        c = LinearizationCoeffs(-1001.0, 2.0, 1.0)
        r = chareq.real_part_cap(c)
        assert r == pytest.approx(-6.2094, abs=1e-4)
        assert abs(c.a + abs(c.b) * math.exp(-r * c.tau) - r) <= 1e-12 * abs(c.a)

    def test_matches_bracket_search(self):
        rng = np.random.default_rng(20)
        cases = [LinearizationCoeffs(-1001.0, 2.0, 1.0),
                 LinearizationCoeffs(0.3, 0.0, 1.0),
                 LinearizationCoeffs(-0.3, -0.0, 2.8)]
        for _ in range(2000):
            a, b = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-3.0, 1.0, 2)
            cases.append(LinearizationCoeffs(a, b, 10.0 ** rng.uniform(-1.0, 1.7)))
        for c in cases:
            want = bracket_real_part_cap(c)
            assert abs(chareq.real_part_cap(c) - want) <= 1e-13 * max(1.0, abs(want))


class TestStabilityRegion:
    def test_homeostasis_stable(self, table1):
        qs = steady_state(table1).nontrivial
        res = stability_region(linearize_at(qs, table1))
        assert res.state == "stable"
        assert res.tau1 > table1.tau

    def test_marginal_case_is_boundary(self):
        res = stability_region(LinearizationCoeffs(0.0, -1.0, math.pi / 2.0))
        assert res.state == "boundary"
        assert res.tau1 == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_delay_independent_band(self):
        res = stability_region(LinearizationCoeffs(-1.0, -1.0 + 1e-6, 500.0))
        assert res.state == "stable"
        assert res.tau1 == math.inf

    def test_positive_real_root_region(self):
        res = stability_region(LinearizationCoeffs(-0.5, 1.0, 2.0))
        assert res.state == "unstable"

    def test_c0_curve_needs_a_sample(self):
        with pytest.raises(ValueError, match="need n >= 1"):
            c0_curve(0)
        assert c0_curve(1).tolist() == [[0.0, 1.0, -1.0]]

    def test_c0_samples_schema(self):
        c0 = c0_curve(65)
        assert c0.shape == (65, 3)
        assert c0[0, 1] == 1.0 and c0[0, 2] == -1.0
        # the curve stays in a <= 1/tau, b <= -1/tau (scaled by tau: <=1, <=-1)
        assert np.all(c0[:, 1] <= 1.0 + 1e-12)
        assert np.all(c0[:, 2] <= -1.0 + 1e-12)

    def test_crossing_flips_rightmost_pair(self):
        # bisection across tau1 flips the sign of the rightmost pair's
        # real part, for random coefficients in the wedge b < -|a|
        rng = np.random.default_rng(9)
        done = 0
        while done < 100:
            a = rng.uniform(-1.0, 1.0)
            b = -abs(a) - rng.uniform(0.05, 2.0)
            tau1 = math.acos(-a / b) / math.sqrt(b * b - a * a)
            for fac, sign in ((0.94, -1.0), (1.06, 1.0)):
                pair = rightmost_complex_pair(
                    LinearizationCoeffs(a, b, fac * tau1))
                assert pair is not None
                assert math.copysign(1.0, pair.re) == sign, (a, b, fac)
            done += 1


class TestCriticalDelays:
    def test_table1_values(self, table1):
        d = critical_delays(table1)
        assert_printed(d.tau1_minus, 5.74851, 6, "tau1-")
        assert_printed(d.tau1_plus, 6.87437, 6, "tau1+")
        assert_printed(d.tau2, 6.87662, 6, "tau2")
        assert_printed(d.tau_max, 6.90401, 6, "tau_max")
        assert d.tau1_minus < d.tau1_plus < d.tau2 < d.tau_max

    def test_no_apoptosis_sentinel(self, table1):
        # gamma cannot be exactly zero (parameters are strictly positive);
        # in the limit the bound never binds and tau1 is a fixed number
        p = table1.with_(gamma=1e-300)
        d = critical_delays(p)
        assert d.tau_max > 1e250
        qs = steady_state(p).nontrivial
        c = coeffs_at(qs, p)
        expect = math.acos(-c.a / c.b) / math.sqrt(c.b**2 - c.a**2)
        assert d.tau1_minus == pytest.approx(expect, rel=1e-9)
        assert d.tau1_plus is None

    def test_no_delay_with_nontrivial_state(self):
        # kappa above f: tau_max < 0, and the scan ran over negative delays
        p = ModelParams(kappa=1000.0, gamma=0.01, tau=1.0, theta=1.0, f=1.0,
                        s=2.0)
        d = critical_delays(p)
        assert d.tau_max == pytest.approx(math.log(2.0 / 1001.0) / 0.01,
                                          rel=1e-14)
        assert d.tau1_minus is None and d.tau1_plus is None
        assert d.tau2 is None

    def test_unit_hill_exponent_has_no_tau2(self, table1):
        d = critical_delays(table1.with_(s=1.0))
        assert d.tau2 is None

    @pytest.mark.xfail(strict=True, reason=(
        "the scan misses this tau1+: the unstable window closes through the "
        "wedge edge b = a, where the gap is nan on the grid point after the "
        "crossing; ROADMAP item 1's principal-branch scan finds it, together "
        "with a re-record of perfbench/reference.json"))
    def test_missed_tau1_plus_as_expected(self):
        d = critical_delays(MISSED_TAU1_PLUS[0])
        assert d.tau1_plus is not None and 48.2 < d.tau1_plus < 48.3

    def test_missed_tau1_plus_is_a_crossing(self):
        for tau, sign in ((48.2, 1.0), (48.3, -1.0)):
            p = MISSED_TAU1_PLUS[0].with_(tau=tau)
            root = rightmost_root(coeffs_at(steady_state(p).nontrivial, p))
            assert math.copysign(1.0, root.re) == sign, tau


class TestCriticalDelaysScan:
    """The numpy grid with scalar-decided brackets gives the scalar scan's
    crossings bit for bit."""

    def test_table1_and_limits(self, table1):
        p_far = table1.with_(theta=table1.theta * 1e100)
        qs = steady_state(p_far).nontrivial
        assert 2.0 * p_far.s * math.log10(qs) > 309.0  # h' takes _hill_far
        sets = [table1, p_far, table1.with_(s=1.0),
                table1.with_(gamma=1e-300),  # tau_max > 1e8
                table1.with_(gamma=1e-300, kappa=7.0),  # the same, b > 0
                ModelParams(kappa=1000.0, gamma=0.01, tau=1.0, theta=1.0,
                            f=1.0, s=2.0)]  # tau_max <= 0
        for p in sets:
            assert critical_delays(p) == _scalar_critical_delays(p), p
        assert critical_delays(p_far).tau1_minus is not None

    def test_grid_equals_its_expression(self, table1):
        rng = np.random.default_rng(0)
        p_far = table1.with_(theta=table1.theta * 1e100)  # h' takes _hill_far
        sets = [table1, p_far, table1.with_(s=1.0), *MISSED_TAU1_PLUS,
                *(random_valid_params(rng) for _ in range(400))]
        for p in sets:
            _, tau_max = existence_bounds(p)
            grid = np.linspace(tau_max * 1e-9, tau_max * (1.0 - 1e-12),
                               chareq._TAU_SCAN)
            got = chareq._tau1_gap_grid(p, grid)
            assert got.tobytes() == _gap_grid_expression(p, grid).tobytes(), p

    def test_known_misses_stay_missed(self):
        for p in MISSED_TAU1_PLUS:
            d = critical_delays(p)
            assert d == _scalar_critical_delays(p), p
            assert d.tau1_minus is not None and d.tau1_plus is None

    def test_ensemble(self):
        rng = np.random.default_rng(0)
        bad = []
        for k in range(400):
            p = random_valid_params(rng)
            if critical_delays(p) != _scalar_critical_delays(p):
                bad.append((k, p))
        assert not bad

    @pytest.fixture(scope="class")
    def table1_scan(self, table1):
        return _scalar_critical_delays(table1)

    @pytest.mark.parametrize("crossing", [0, 1])
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("wrong", ["sign", "nan", "tiny"])
    @pytest.mark.parametrize("edge", ["left", "right"])
    def test_scalar_gap_decides_brackets(self, table1, table1_scan,
                                         monkeypatch, crossing, side, wrong,
                                         edge):
        # a grid that is wrong by a point: the value on one side of a
        # crossing has the wrong sign, or a two-point nan run ends there (a
        # nan edge one point into the crossing), or two values there sit
        # within rounding of 0 on the wrong side; and the nan edge after
        # tau1+ moves left or right
        grid_gap = chareq._tau1_gap_grid

        def off_by_a_point(p, taus):
            gaps = grid_gap(p, taus)
            finite = ~np.isnan(gaps)
            changes = np.flatnonzero(finite[:-1] & finite[1:]
                                     & ((gaps[:-1] < 0) != (gaps[1:] < 0)))
            nan_edge = np.flatnonzero(finite[:-1] != finite[1:])[-1]
            if edge == "left":
                gaps[nan_edge] = np.nan
            else:
                gaps[nan_edge + 1] = gaps[nan_edge]
            i = changes[crossing] + side
            pair = [i, i + 2 * side - 1]
            if wrong == "sign":
                gaps[i] = -gaps[i]
            elif wrong == "nan":
                gaps[pair] = np.nan
            else:
                gaps[pair] = (-np.sign(gaps[i]) * 0.5 * chareq._GAP_ROUNDING
                              * taus[pair])
            return gaps

        monkeypatch.setattr(chareq, "_tau1_gap_grid", off_by_a_point)
        assert critical_delays(table1) == table1_scan


class TestHopfLocus:
    def test_kappa_crossings(self, table1):
        pts = hopf_locus_1p(table1, "kappa", 0.05, 4.0, n_scan=200)
        assert len(pts) == 2
        assert_printed(pts[0][0], 0.17632, 5, "kappa Hopf low")
        assert_printed(pts[1][0], 1.5317, 5, "kappa Hopf high")
        for v, w in pts:
            assert w > 0

    def test_gamma_crossings(self, table1):
        gmax = math.log(2 * table1.f / (table1.kappa + table1.f)) / table1.tau
        pts = hopf_locus_1p(table1, "gamma", 0.15, gmax * 0.9999, n_scan=200)
        assert len(pts) == 2
        assert_printed(pts[0][0], 0.227918, 6, "gamma Hopf low")
        assert_printed(pts[1][0], 0.245375, 6, "gamma Hopf high")
        # onset period from the crossing frequency
        assert 2 * math.pi / pts[0][1] == pytest.approx(36.7, abs=0.2)

    def test_tau_crossings_match_critical_delays(self, table1):
        d = critical_delays(table1)
        pts = hopf_locus_1p(table1, "tau", 4.0, 6.88, n_scan=150)
        assert len(pts) == 2
        assert pts[0][0] == pytest.approx(d.tau1_minus, abs=1e-9)
        assert pts[1][0] == pytest.approx(d.tau1_plus, abs=1e-9)

    @pytest.mark.parametrize("vary, lo, hi, n_scan", [
        ("kappa", 0.05, 4.0, 200), ("gamma", 0.15, None, 200),
        ("tau", 4.0, 6.88, 150),
        ("kappa", 0.05, 4.0, 80), ("gamma", 0.2, None, 60),  # C4
        ("kappa", 0.03, 1.6, 100),  # the linear workload's hopf op
        ("kappa", 1.6, 0.03, 100),  # a window may run down
        ("kappa", 1.4, 1.6, 40)])
    def test_matches_bisection_oracle(self, table1, vary, lo, hi, n_scan):
        gmax = math.log(2 * table1.f / (table1.kappa + table1.f)) / table1.tau
        hi = gmax * 0.9999 if hi is None else hi
        pts = hopf_locus_1p(table1, vary, lo, hi, n_scan=n_scan)
        want = bisection_hopf_locus(table1, vary, lo, hi, n_scan)
        assert len(pts) == len(want) > 0
        for (v, w), (v_o, w_o) in zip(pts, want):
            assert abs(v - v_o) <= 1e-8 and abs(w - w_o) <= 1e-8
            c = chareq._coeffs_with(table1, vary, v)
            assert abs(chareq.char_value(c, complex(0.0, w))) <= 1e-10


class TestSignCrossings:
    def test_nan_end_holds_no_crossing(self):
        grid = np.linspace(0.0, 4.0, 5)
        for hole, want in ((1.0, [2.5]), (3.0, [])):
            fn = lambda x: math.nan if x == hole else x - 2.5
            assert chareq._sign_crossings(fn, grid, np.arange(4)) == want

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_zero_at_a_grid_point_reported_once(self, slope):
        grid = np.linspace(0.0, 4.0, 5)
        for pairs in (np.arange(4), np.array([1]), np.array([2])):
            got = chareq._sign_crossings(lambda x: slope * (x - 2.0), grid,
                                         pairs)
            assert got == [2.0], pairs
        # at the last grid point, reached only as the right end of a pair
        assert chareq._sign_crossings(lambda x: slope * (x - 4.0), grid,
                                      np.arange(4)) == [4.0]

    def test_decreasing_grid(self):
        grid = np.linspace(3.0, 0.0, 7)
        got = chareq._sign_crossings(math.cos, grid, np.arange(6))
        assert got == [pytest.approx(math.pi / 2.0, abs=1e-12)]


class TestCoalescence:
    def test_canard_gap(self, canard_params):
        q_lo, q_hi = lambertw_coalescence(canard_params)
        assert_printed(q_lo, 0.08626, 4, "gap low")
        assert_printed(q_hi, 0.09389, 4, "gap high")
        qs = steady_state(canard_params).nontrivial
        assert q_lo < qs < q_hi

    def test_no_real_roots_inside_gap(self, canard_params):
        qs = steady_state(canard_params).nontrivial
        assert real_roots(coeffs_at(qs, canard_params)) == []

    def test_two_positive_roots_above_gap(self, canard_params):
        _, q_hi = lambertw_coalescence(canard_params)
        bound = real_root_rebound(canard_params)
        assert_printed(bound, 0.28577, 5, "rebound")
        for q in (q_hi * 1.02, 0.15, 0.28):
            roots = real_roots(coeffs_at(q, canard_params))
            assert len(roots) == 2
            assert all(r.re > 0 for r in roots)
        assert real_roots(coeffs_at(0.30, canard_params)) == []

    def test_absent_for_unit_hill(self, table1):
        assert lambertw_coalescence(table1.with_(s=1.0)) == (None, None)

    def test_absent_below_unit_hill(self, table1):
        p = table1.with_(s=0.5)
        assert lambertw_coalescence(p) == (None, None)
        assert real_root_rebound(p) is None

    @staticmethod
    def levels(p):
        x0 = -math.exp(-1.0 - p.kappa * p.tau) / p.amplification
        return lambert_w(0, x0) / p.tau, lambert_w(-1, x0) / p.tau

    def test_matches_search_oracle(self, canard_params, table1):
        rng = np.random.default_rng(0)
        sets = [canard_params, table1] + [random_valid_params(rng)
                                          for _ in range(1000)]
        compared = 0
        for p in sets:
            got = [*lambertw_coalescence(p), real_root_rebound(p)]
            try:
                want = [*oracle_lambertw_coalescence(p),
                        oracle_real_root_rebound(p)]
            except ValueError:
                continue  # the bracket missed the root (see below)
            for g, w in zip(got, want):
                if w is None:
                    # the search stopped at 1e12*theta; the closed form
                    # reports the end however far out it lies
                    assert g is None or g > 1e12 * p.theta
                else:
                    assert abs(g - w) <= 1e-12 * w
                    compared += 1
        assert compared > 1500

    def test_defining_identities_on_ensemble(self, canard_params, table1):
        rng = np.random.default_rng(0)
        sets = [canard_params, table1] + [random_valid_params(rng)
                                          for _ in range(1000)]
        for p in sets:
            t0, tm1 = self.levels(p)
            q_lo, q_hi = lambertw_coalescence(p)
            rebound = real_root_rebound(p)
            hp = lambda q: h_and_G(q, p).h_prime
            if q_lo is not None:
                assert abs(hp(q_lo) - t0) <= 1e-14 * p.f
            if q_hi is not None:
                want = tm1 if rebound is not None else t0
                assert abs(hp(q_hi) - want) <= 1e-14 * p.f
            if rebound is not None:
                assert abs(hp(rebound) - tm1) <= 1e-14 * p.f
                assert q_hi < rebound

    def test_shallow_level_next_to_flux_peak(self):
        # kappa*tau = 34.6 puts W_0(x0)/tau near -1e-16, so the gap opens
        # within 1e-12 of the flux peak, inside the sliver that a bracket
        # starting at q_h*(1 + 1e-12) skipped ("different signs" error)
        p = ModelParams(kappa=4.458102956733756, gamma=0.011228125633118136,
                        tau=7.768143476893467, theta=0.028032755060227444,
                        f=10.399807089175754, s=2.141951793816236)
        t0, _ = self.levels(p)
        q_lo, q_hi = lambertw_coalescence(p)
        q_h = p.theta * math.exp(-math.log(p.s - 1.0) / p.s)
        assert q_lo == pytest.approx(q_h, rel=1e-12)
        assert abs(h_and_G(q_lo, p).h_prime - t0) <= 1e-14 * p.f
        assert q_hi > 1e8 * p.theta  # h' recovers to -1e-16 far out

    def test_underflowed_argument(self):
        # kappa*tau = 800: x0 = -exp(-801)/A underflows to -0.0, where
        # lambert_w(-1, x0) raised; W_-1 now comes from log(-x0)
        p = ModelParams(kappa=100.0, gamma=0.01, tau=8.0, theta=1.0,
                        f=2000.0, s=2.0)
        lx0 = -1.0 - p.kappa * p.tau - math.log(p.amplification)
        assert -math.exp(-1.0 - p.kappa * p.tau) / p.amplification == 0.0
        q_lo, q_hi = lambertw_coalescence(p)
        rebound = real_root_rebound(p)
        assert q_lo == pytest.approx(p.theta, rel=1e-15)  # Q_h: h' = 0-
        hp = lambda q: h_and_G(q, p).h_prime
        for q in (q_hi, rebound):
            w = hp(q) * p.tau
            assert w + math.log(-w) == pytest.approx(lx0, rel=1e-14)
        assert q_lo < q_hi < steady_state(p).nontrivial < rebound
        # with a dip shallower than W_-1/tau the gap never closes
        shallow = p.with_(f=500.0)
        assert lambertw_coalescence(shallow) == (pytest.approx(p.theta), None)
        assert real_root_rebound(shallow) is None


class TestRightmost:
    def test_rightmost_matches_scan(self, table1):
        qs = steady_state(table1).nontrivial
        c = linearize_at(qs, table1)
        r = rightmost_root(c)
        # homeostasis: the dominant eigenvalue is the slow real decay
        assert r.kind == "real"
        assert r.re == pytest.approx(-0.054321, abs=1e-5)
        pair = rightmost_complex_pair(c)
        assert pair.re < r.re

    def test_pair_matches_newton_oracle(self):
        for c, _ in ensemble_coeffs(100, 57):
            assert_same_roots([rightmost_complex_pair(c)],
                              [newton_rightmost_complex_pair(c)])
        for c in OVERFLOWING:
            assert_same_roots([rightmost_complex_pair(c)],
                              [newton_rightmost_complex_pair(c)])

    @given(st.floats(-5.0, 5.0), st.floats(0.01, 5.0), st.booleans(),
           st.floats(0.1, 10.0))
    # x = -1/e exactly, the branch point where scipy's lambertw gives NaN
    @example(a=1.0, b_abs=1.0, negative=True, tau=1.0)
    @settings(max_examples=300, deadline=None)
    def test_no_branch_lies_right_of_rightmost(self, a, b_abs, negative, tau):
        c = LinearizationCoeffs(a, -b_abs if negative else b_abs, tau)
        x = c.b * tau * math.exp(-a * tau)
        re = rightmost_root(c).re
        for k in range(-10, 11):
            w = complex(lambertw(x, k))
            if cmath.isnan(w):
                w = complex(mpmath.lambertw(x, k))
            lam = a + w / tau
            assert re >= lam.real - 1e-12 * max(1.0, abs(lam))

    def test_no_delay_coupling(self):
        c = LinearizationCoeffs(-0.4, 0.0, 2.0)
        assert rightmost_root(c).lam == -0.4
        assert rightmost_complex_pair(c) is None
