import numpy as np
import pytest

from hsclab.analysis import (delay_embedding, estimate_period,
                             kaplan_yorke, lyapunov_span, orbit_diagram,
                             poincare_section)
from hsclab.integrator import History, integrate
from hsclab.model import steady_state, table1_params


@pytest.fixture(scope="module")
def orbit_traj():
    p = table1_params().with_(kappa=0.3)
    return integrate(p, History.steady_state_perturbation(p, 0.05), 2000.0)


@pytest.fixture(scope="module")
def steady_traj(table1):
    qs = steady_state(table1).nontrivial
    return integrate(table1, History.constant(table1.tau, qs), 200.0)


class TestPoincare:
    def test_steady_state_is_empty(self, steady_traj):
        qs = steady_state(steady_traj.params).nontrivial
        assert poincare_section(steady_traj, 0.0, qs, "up", t_start=10.0) == []

    def test_crossings_anchored_and_projected(self, orbit_traj):
        tau = orbit_traj.params.tau
        hits = poincare_section(orbit_traj, 0.0, 0.3, "up", t_start=1500.0)
        assert len(hits) >= 30
        for c in hits[:5]:
            assert orbit_traj(c.t) == pytest.approx(0.3, abs=1e-9)
            assert c.projection[0] == pytest.approx(orbit_traj(c.t - tau), rel=1e-12)
            assert c.projection[1] == pytest.approx(orbit_traj(c.t - tau / 2), rel=1e-12)

    def test_anchor_offset_shifts_times(self, orbit_traj):
        base = poincare_section(orbit_traj, 0.0, 0.3, "up", t_start=1500.0,
                                t_end=1900.0)
        off = poincare_section(orbit_traj, 1.0, 0.3, "up", t_start=1500.0,
                               t_end=1900.0)
        assert off[0].t == pytest.approx(base[0].t + 1.0, abs=1e-9)

    def test_alpha_domain(self, orbit_traj):
        with pytest.raises(ValueError):
            poincare_section(orbit_traj, -0.1, 0.3)
        with pytest.raises(ValueError):
            poincare_section(orbit_traj, 99.0, 0.3)


class TestEstimatePeriod:
    def test_periodic_orbit(self, orbit_traj):
        est = estimate_period(orbit_traj, (1200.0, 2000.0))
        assert est.status == "periodic"
        assert est.period == pytest.approx(13.5248, abs=2e-3)
        assert est.returns_per_period == 1

    def test_consecutive_return_consistency(self, orbit_traj):
        # crossings of a periodic orbit are spaced by T/n with constant gaps
        hits = poincare_section(orbit_traj, 0.0, 0.3, "up", t_start=1200.0)
        gaps = np.diff([c.t for c in hits])
        assert np.max(np.abs(gaps - np.mean(gaps))) < 1e-6 * np.mean(gaps)

    def test_steady_state_insufficient(self, steady_traj):
        est = estimate_period(steady_traj, (10.0, 200.0))
        assert est.status == "insufficient-data"

    def test_embedding_closure_for_periodic(self, orbit_traj):
        est = estimate_period(orbit_traj, (1200.0, 2000.0))
        tau = orbit_traj.params.tau
        _, head = delay_embedding(orbit_traj, [tau], 1.0,
                                  t_start=1900.0, t_end=1900.0)
        _, tail = delay_embedding(orbit_traj, [tau], 1.0,
                                  t_start=1900.0 + est.period,
                                  t_end=1900.0 + est.period)
        assert np.max(np.abs(head[0] - tail[0])) < 1e-6


class TestLinearTheoryOracle:
    def test_near_onset_crossing_spacing(self, table1):
        # just inside a supercritical Hopf point the section returns are
        # spaced by the linear period 2*pi/omega of the crossing pair
        import math
        from hsclab import chareq
        from hsclab.integrator import find_level_crossings

        (k_h, omega), = chareq.hopf_locus_1p(table1, "kappa", 1.4, 1.6,
                                             n_scan=40)
        p = table1.with_(kappa=1.529)
        qs = steady_state(p).nontrivial
        traj = integrate(p, History.steady_state_perturbation(p, 0.02), 3000.0)
        ups = find_level_crossings(traj, qs, "up", 2500.0, 3000.0)
        spacing = np.mean(np.diff([e.t for e in ups]))
        assert spacing == pytest.approx(2 * math.pi / omega, rel=0.05)


class TestEmbedding:
    def test_constant_solution_single_point(self, steady_traj):
        qs = steady_state(steady_traj.params).nontrivial
        ts, pts = delay_embedding(steady_traj, [2.8, 1.4], 0.5, t_start=10.0)
        assert np.max(np.abs(pts - qs)) < 1e-9

    def test_lag_beyond_span(self, steady_traj):
        with pytest.raises(ValueError):
            delay_embedding(steady_traj, [500.0], 0.5)

    def test_columns_are_lagged_values(self, orbit_traj):
        ts, pts = delay_embedding(orbit_traj, [1.0], 0.25, t_start=100.0,
                                  t_end=110.0)
        assert np.allclose(pts[:, 0], orbit_traj(ts))
        assert np.allclose(pts[:, 1], orbit_traj(ts - 1.0))


class TestOrbitDiagram:
    def test_stable_range_reads_steady_state(self, table1):
        mesh = np.linspace(0.05, 0.06, 4)
        res = orbit_diagram(table1, "kappa", mesh, transient=120.0, record=30.0)
        assert res.direction == "increasing"
        for pt in res.points:
            qs = steady_state(table1.with_(kappa=pt.param)).nontrivial
            for kind, q in pt.extrema:
                assert q == pytest.approx(qs, abs=2e-4)

    def test_carry_over_and_notes(self, table1):
        mesh = np.linspace(0.28, 0.3, 3)
        res = orbit_diagram(table1, "tau", mesh, transient=20.0, record=5.0)
        assert res.points[0].seed == "initial"
        assert all(pt.seed == "carry" for pt in res.points[1:])

    def test_deterministic(self, table1):
        mesh = np.linspace(0.28, 0.32, 3)
        a = orbit_diagram(table1, "kappa", mesh, transient=25.0, record=6.0)
        b = orbit_diagram(table1, "kappa", mesh, transient=25.0, record=6.0)
        assert [pt.extrema for pt in a.points] == [pt.extrema for pt in b.points]

    def test_record_all_collects_everything(self, table1):
        res = orbit_diagram(table1.with_(kappa=0.3), "kappa",
                            np.array([0.3]), transient=60.0, record=10.0,
                            record_mode="all")
        kinds = [k for k, _ in res.points[0].extrema]
        assert kinds.count("max") >= 2 and kinds.count("min") >= 2

    def test_monotone_mesh_required(self, table1):
        with pytest.raises(ValueError, match="monotone"):
            orbit_diagram(table1, "kappa", np.array([0.1, 0.3, 0.2]))


class TestLyapunovSpan:
    @pytest.mark.parametrize("kwargs", [{"n_mesh": 3}, {"n_mesh": 0},
                                        {"reorth": 0.0}, {"reorth": -1.0}])
    def test_rejects_bad_mesh_or_interval(self, table1, kwargs):
        with pytest.raises(ValueError, match="n_mesh >= 4 and reorth > 0"):
            lyapunov_span(table1, 400.0, **kwargs)


class TestKaplanYorke:
    def test_torus_with_zero_snap(self):
        ky = kaplan_yorke((0.00052, -0.00066, -0.0093, -0.18), zero_tol=2e-3)
        assert ky.k == 2
        assert ky.dimension == pytest.approx(2.0)

    def test_reported_chaos_numbers(self):
        ky = kaplan_yorke((0.0107, -0.0002, -0.0966, -0.1577), zero_tol=2e-3)
        assert ky.dimension == pytest.approx(2.11, abs=0.005)

    def test_all_negative_is_zero_dimensional(self):
        ky = kaplan_yorke((-0.01, -0.2))
        assert ky.dimension == 0.0 and ky.k == 0

    def test_needs_more_exponents(self):
        ky = kaplan_yorke((0.3, 0.2, 0.1))
        assert ky.status == "needs-more-exponents"
        assert ky.dimension is None

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            kaplan_yorke((0.1, 0.3, -0.2))

    def test_high_dimension_case(self):
        lam = (0.02444, 0.008055, -0.00004119, -0.006071, -0.01771, -0.02882)
        ky = kaplan_yorke(lam)
        assert ky.k == 5
        assert ky.dimension == pytest.approx(5.3, abs=0.015)
