import warnings
from dataclasses import replace

import numpy as np
import pytest

from hsclab import _native, chareq, integrator, variational
from hsclab.analysis import (LyapunovSpectrum, lyapunov_span,
                             lyapunov_spectrum)
from hsclab.integrator import History, Trajectory, integrate
from hsclab.model import ModelParams, h_and_G, steady_state
from hsclab.variational import (_W_EDGE, _W_MID, PerturbationBundle,
                                _coeff_tables, _step_weights, _weight_blocks,
                                integrate_variational, orthonormalize)


@pytest.fixture(scope="module")
def steady_traj(table1):
    qs = steady_state(table1).nontrivial
    return integrate(table1, History.constant(table1.tau, qs), 600.0)


@pytest.fixture(scope="module")
def chaos_traj(table1):
    p = table1.with_(kappa=0.865, tau=3.9)
    return integrate(p, History.steady_state_perturbation(p, 0.05), 600.0)


def _advance(traj, columns, t0, h, n_steps, n):
    """Reference: one classical RK4 step at a time (the oracle)."""
    alpha, beta = _coeff_tables(traj, t0, h, n_steps)
    w_buf = np.empty((n + 1 + n_steps, columns.shape[1]))
    w_buf[: n + 1] = columns
    hh = 0.5 * h
    h6 = h / 6.0
    for j in range(n_steps):
        head = n + j
        w = w_buf[head]
        wd0 = w_buf[j]
        wd1 = w_buf[j + 1]
        if j == 0:
            wdm = _W_EDGE @ w_buf[0:4]
        else:
            wdm = _W_MID @ w_buf[j - 1:j + 3]
        a0, am, a1 = alpha[2 * j], alpha[2 * j + 1], alpha[2 * j + 2]
        b0, bm, b1 = beta[2 * j], beta[2 * j + 1], beta[2 * j + 2]
        k1 = a0 * w + b0 * wd0
        k2 = am * (w + hh * k1) + bm * wdm
        k3 = am * (w + hh * k2) + bm * wdm
        k4 = a1 * (w + h * k3) + b1 * wd1
        w_buf[head + 1] = w + h6 * (k1 + 2.0 * (k2 + k3) + k4)
    return w_buf[n_steps:].copy()


def _lyapunov_per_interval(p: ModelParams, history: History, m: int = 8,
                           horizon: float = 30_000.0, reorth: float = 1.0, *,
                           transient: float = 2000.0, bundle_warmup: float = 200.0,
                           n_mesh: int = 128, seed: int = 0,
                           rtol: float = 1e-9, atol: float = 1e-12,
                           base: Trajectory | None = None,
                           blocked: bool = False) -> LyapunovSpectrum:
    """Reference: lyapunov_spectrum with the growth logs summed interval by
    interval.  Each interval is one integrate_variational call (the oracle
    of the whole-run tables) or, with ``blocked``, variational._advance on
    the whole-run tables: the numpy interval loop, which is the oracle of
    the compiled one."""
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
    h = bundle.step
    n_steps = max(1, int(round(interval / h)))
    heads = np.cumsum([bundle.t_head] + [n_steps * h] * (n_warm + n_acc))
    rows = (w for block in _weight_blocks(traj, heads[:-1], h, n_steps)
            for w in zip(*block))
    logs = np.zeros(m)
    times = np.empty(n_acc)
    hist = np.empty((n_acc, m))
    for k in range(n_warm + n_acc):
        if blocked:
            cols = variational._advance(bundle.columns, next(rows), n_mesh)
            bundle = PerturbationBundle(bundle.offsets, cols, heads[k + 1],
                                        p.tau)
        else:
            span = (bundle.t_head, bundle.t_head + interval)
            bundle, _ = integrate_variational(traj, bundle, span)
        bundle, growth = orthonormalize(bundle)
        if k >= n_warm:
            with np.errstate(divide="ignore"):
                logs += np.log(growth)
            i = k - n_warm
            elapsed = (i + 1) * interval
            times[i] = elapsed
            hist[i] = logs / elapsed
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


class TestBundle:
    def test_seeded_is_orthonormal(self):
        b = PerturbationBundle.seeded(2.8, m=5, n_mesh=64, seed=3)
        g = b.columns.T @ b.columns
        assert np.max(np.abs(g - np.eye(5))) < 1e-12

    def test_more_directions_than_mesh_values_rejected(self):
        # the QR of an (n_mesh + 1) x m bundle keeps only n_mesh + 1 columns
        assert PerturbationBundle.seeded(2.8, 17, n_mesh=16).columns.shape == (17, 17)
        with pytest.raises(ValueError, match="n_mesh"):
            PerturbationBundle.seeded(2.8, 18, n_mesh=16)

    def test_seed_determinism(self):
        a = PerturbationBundle.seeded(2.8, 4, seed=9)
        b = PerturbationBundle.seeded(2.8, 4, seed=9)
        assert np.array_equal(a.columns, b.columns)

    @pytest.mark.parametrize("n_mesh, m, seed", [
        (4, 1, 0), (4, 5, 7), (16, 3, 1), (64, 5, 3), (128, 8, 0),
        (128, 8, 123456)])
    def test_seeded_columns_match_their_own_qr(self, n_mesh, m, seed):
        # the QR and sign fix that seeded wrote out before it shared
        # _orthonormal_columns, kept here as the oracle
        raw = np.random.default_rng(seed).standard_normal((n_mesh + 1, m))
        q, r = np.linalg.qr(raw)
        want = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
        got = PerturbationBundle.seeded(2.8, m, n_mesh=n_mesh, seed=seed)
        assert got.columns.tobytes() == want.tobytes()

    def test_orthonormalize_residual(self, steady_traj):
        b = PerturbationBundle.seeded(2.8, 6, seed=0, t_head=10.0)
        b, _ = integrate_variational(steady_traj, b, (10.0, 30.0))
        b2, growth = orthonormalize(b)
        g = b2.columns.T @ b2.columns
        assert np.max(np.abs(g - np.eye(6))) < 1e-12
        assert np.all(growth > 0)


class TestEvolution:
    def test_zero_bundle_stays_zero(self, steady_traj):
        b = PerturbationBundle.seeded(2.8, 3, t_head=5.0)
        b.columns[:] = 0.0
        b2, growth = integrate_variational(steady_traj, b, (5.0, 40.0))
        assert np.all(b2.columns == 0.0)
        assert np.all(growth == 0.0)

    def test_linearity(self, steady_traj):
        b = PerturbationBundle.seeded(2.8, 2, t_head=5.0, seed=4)
        scaled = PerturbationBundle(b.offsets, 3.0 * b.columns, 5.0, b.tau)
        r1, _ = integrate_variational(steady_traj, b, (5.0, 25.0))
        r2, _ = integrate_variational(steady_traj, scaled, (5.0, 25.0))
        assert np.allclose(3.0 * r1.columns, r2.columns, rtol=1e-12, atol=1e-300)

    def test_span_must_start_at_head(self, steady_traj):
        b = PerturbationBundle.seeded(2.8, 2, t_head=5.0)
        with pytest.raises(ValueError, match="head"):
            integrate_variational(steady_traj, b, (6.0, 10.0))

    def test_base_coverage_required(self, steady_traj):
        b = PerturbationBundle.seeded(2.8, 2, t_head=550.0)
        with pytest.raises(ValueError, match="cover"):
            integrate_variational(steady_traj, b, (550.0, 700.0))

    def test_steady_base_growth_matches_dominant_root(self, table1, steady_traj):
        # along a constant base the linearised equation is autonomous, so the
        # long-run growth rate must equal the dominant characteristic value
        qs = steady_state(table1).nontrivial
        rightmost = chareq.rightmost_root(chareq.linearize_at(qs, table1))
        b = PerturbationBundle.seeded(2.8, 1, t_head=10.0, seed=1)
        b, _ = integrate_variational(steady_traj, b, (10.0, 110.0))
        b, n1 = orthonormalize(b)
        b, _ = integrate_variational(steady_traj, b, (b.t_head, b.t_head + 400.0))
        rate = np.log(b.norms()[0]) / 400.0
        assert rate == pytest.approx(rightmost.re, abs=2e-5)


class TestRecurrenceAgainstLoop:
    """The chunked linear recurrence reproduces the step-by-step RK4 loop."""

    @pytest.mark.parametrize("base", ["chaos_traj", "steady_traj"])
    @pytest.mark.parametrize("n_mesh, n_steps", [
        (128, 1),
        (128, 33),            # one reorth interval at tau = 3.9
        (128, 127),           # exactly one chunk
        (128, 128),           # one step into the second chunk
        (128, 3 * 128 + 5),   # several chunk boundaries
        (4, 1),
        (4, 3),
        (4, 4),
        (4, 3 * 4 + 5),
    ])
    def test_matches_rk4_loop(self, request, base, n_mesh, n_steps):
        traj = request.getfixturevalue(base)
        tau = traj.params.tau
        t0 = 300.0
        b = PerturbationBundle.seeded(tau, 5, n_mesh=n_mesh, seed=2, t_head=t0)
        ref = _advance(traj, b.columns, t0, b.step, n_steps, n_mesh)
        out, _ = integrate_variational(traj, b, (t0, t0 + n_steps * b.step))
        assert out.columns.shape == ref.shape
        scale = np.max(np.abs(ref), axis=0)
        assert np.all(np.max(np.abs(out.columns - ref), axis=0) <= 1e-13 * scale)


    def test_tables_match_separate_calls(self, chaos_traj):
        # one fused evaluation of now and delayed times is elementwise, so it
        # must give the same bits as evaluating each set on its own
        p = chaos_traj.params
        h = p.tau / 128
        alpha, beta = _coeff_tables(chaos_traj, 300.0, h, 33)
        times = 300.0 + 0.5 * h * np.arange(67)
        q_now = np.maximum(chaos_traj(times), 0.0)
        q_del = np.maximum(chaos_traj(times - p.tau), 0.0)
        assert np.array_equal(alpha, -(p.kappa + h_and_G(q_now, p).h_prime))
        assert np.array_equal(beta,
                              p.amplification * h_and_G(q_del, p).h_prime)


class TestWholeRunTables:
    """The blocked whole-run tables reproduce the per-interval path."""

    @pytest.mark.parametrize("base", ["chaos_traj", "steady_traj"])
    @pytest.mark.parametrize("kw", [
        dict(m=4, horizon=400.0, transient=50.0, bundle_warmup=20.0),
        dict(m=3, horizon=150.0, transient=50.0, bundle_warmup=0.0, n_mesh=32),
        # over 1500 short intervals (3 to 5 steps) in some 25 table blocks
        dict(m=3, horizon=150.0, reorth=0.1, transient=50.0,
             bundle_warmup=20.0, seed=5),
    ])
    def test_matches_per_interval_oracle(self, request, base, kw):
        traj = request.getfixturevalue(base)
        p = traj.params
        got = lyapunov_spectrum(p, traj.history, base=traj, **kw)
        want = _lyapunov_per_interval(p, traj.history, base=traj, **kw)
        assert np.array_equal(got.history, want.history)
        assert np.array_equal(got.times, want.times)
        assert got.exponents == want.exponents
        assert got.drifts == want.drifts
        assert got.unconverged == want.unconverged
        assert got.settings == want.settings

    def test_small_blocks_match_oracle(self, chaos_traj, monkeypatch):
        # a block size that does not divide the interval count
        monkeypatch.setattr(variational, "_BLOCK", 7)
        kw = dict(m=5, horizon=100.0, transient=30.0, bundle_warmup=4.0)
        p = chaos_traj.params
        got = lyapunov_spectrum(p, chaos_traj.history, base=chaos_traj, **kw)
        want = _lyapunov_per_interval(p, chaos_traj.history, base=chaos_traj,
                                      **kw)
        assert np.array_equal(got.history, want.history)
        assert got.drifts == want.drifts

    def test_tables_read_once_per_block(self, chaos_traj, monkeypatch):
        # the interval loop itself reads neither the base nor h'
        monkeypatch.setattr(variational, "_BLOCK", 16)
        calls = {"traj": 0, "h_and_G": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(Trajectory, "__call__",
                            counted("traj", Trajectory.__call__))
        monkeypatch.setattr(variational, "h_and_G",
                            counted("h_and_G", variational.h_and_G))
        p = chaos_traj.params
        spec = lyapunov_spectrum(p, chaos_traj.history, m=2, horizon=100.0,
                                 transient=30.0, bundle_warmup=0.0,
                                 base=chaos_traj)
        n_blocks = -(-spec.history.shape[0] // 16)
        assert calls == {"traj": n_blocks, "h_and_G": n_blocks}

    def test_block_tables_match_per_interval_tables(self, chaos_traj,
                                                    monkeypatch):
        monkeypatch.setattr(variational, "_BLOCK", 4)
        p = chaos_traj.params
        h, n_steps = p.tau / 128, 33
        heads = np.empty(11)
        heads[0] = 300.0
        for k in range(10):
            heads[k + 1] = heads[k] + n_steps * h
        alpha, beta = _coeff_tables(chaos_traj, heads, h, n_steps)
        assert alpha.shape == beta.shape == (11, 2 * n_steps + 1)
        rows = [w for block in _weight_blocks(chaos_traj, heads, h, n_steps)
                for w in zip(*block)]
        assert len(rows) == 11
        for k, t0 in enumerate(heads):
            a1, b1 = _coeff_tables(chaos_traj, float(t0), h, n_steps)
            assert np.array_equal(alpha[k], a1) and np.array_equal(beta[k], b1)
            for got, want in zip(rows[k], _step_weights(a1, b1, h)):
                assert np.array_equal(got, want)


def _assert_same_bits(got: LyapunovSpectrum, want: LyapunovSpectrum):
    for name in ("history", "times", "exponents", "drifts"):
        a = np.asarray(getattr(got, name))
        b = np.asarray(getattr(want, name))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.unconverged == want.unconverged
    assert got.horizon == want.horizon
    assert got.settings == want.settings


class TestCompiledLoop:
    """The compiled interval loop reproduces the numpy loop bit for bit."""

    @pytest.mark.parametrize("base", ["chaos_traj", "steady_traj"])
    @pytest.mark.parametrize("kw", [
        dict(m=8, horizon=200.0, transient=50.0, bundle_warmup=10.0),
        dict(m=1, horizon=150.0, transient=50.0, bundle_warmup=10.0),
        # m = n_mesh + 1; one step per interval, short of a chunk (3 steps)
        dict(m=5, n_mesh=4, horizon=150.0, transient=50.0, bundle_warmup=10.0),
        # reorth > tau: 5 (chaos) or 7 (steady) steps, two or three chunks
        dict(m=5, n_mesh=4, reorth=5.0, horizon=500.0, transient=50.0,
             bundle_warmup=10.0),
    ])
    def test_matches_numpy_loop(self, request, base, kw):
        traj = request.getfixturevalue(base)
        p = traj.params
        got = lyapunov_spectrum(p, traj.history, base=traj, **kw)
        want = _lyapunov_per_interval(p, traj.history, base=traj,
                                      blocked=True, **kw)
        _assert_same_bits(got, want)
        if integrator.kernel_status() == "compiled":
            loop = variational.interval_loop(kw.get("n_mesh", 128), kw["m"])
            assert loop == "compiled"

    @pytest.mark.parametrize("extra", [0, 1])
    def test_one_block_and_one_interval_more(self, chaos_traj, monkeypatch,
                                             extra):
        kw = dict(m=3, horizon=100.0, transient=30.0, bundle_warmup=4.0)
        p = chaos_traj.params
        grid = lyapunov_span(p, kw["horizon"], transient=kw["transient"],
                             bundle_warmup=kw["bundle_warmup"])
        monkeypatch.setattr(variational, "_BLOCK",
                            grid.n_warm + grid.n_acc - extra)
        got = lyapunov_spectrum(p, chaos_traj.history, base=chaos_traj, **kw)
        want = _lyapunov_per_interval(p, chaos_traj.history, base=chaos_traj,
                                      blocked=True, **kw)
        _assert_same_bits(got, want)

    # the drift of a -inf exponent is nan: the oracle warns and leaves it
    # unflagged, lyapunov_spectrum keeps its bits, is silent and flags it
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    def test_zero_growth_gives_the_sequential_minus_inf(self, chaos_traj,
                                                        monkeypatch):
        seeded = PerturbationBundle.seeded.__func__

        def zero_column(cls, *args, **kwargs):
            bundle = seeded(cls, *args, **kwargs)
            bundle.columns[:, 1] = 0.0
            return bundle

        monkeypatch.setattr(PerturbationBundle, "seeded",
                            classmethod(zero_column))
        kw = dict(m=3, horizon=100.0, transient=30.0, bundle_warmup=0.0)
        p = chaos_traj.params
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lyapunov_spectrum(p, chaos_traj.history, base=chaos_traj,
                                    **kw)
        want = _lyapunov_per_interval(p, chaos_traj.history, base=chaos_traj,
                                      blocked=True, **kw)
        assert np.all(np.isneginf(got.history[:, 1]))
        assert got.exponents[-1] == -np.inf and np.isnan(got.drifts[-1])
        assert got.unconverged[-1] and not want.unconverged[-1]
        assert got.unconverged[:-1] == want.unconverged[:-1]
        _assert_same_bits(got, replace(want, unconverged=got.unconverged))

    def test_failed_check_runs_the_numpy_loop(self, chaos_traj, monkeypatch):
        kw = dict(m=3, horizon=100.0, transient=30.0, bundle_warmup=4.0)
        p = chaos_traj.params
        want = lyapunov_spectrum(p, chaos_traj.history, base=chaos_traj, **kw)
        kernel = integrator.kernel_status()

        def not_called(*args):
            raise AssertionError("the compiled block ran")

        monkeypatch.setattr(_native.status, "blocks", {})
        monkeypatch.setattr(variational, "_block_matches", lambda n, m: False)
        monkeypatch.setattr(variational, "_compiled_block", not_called)
        got = lyapunov_spectrum(p, chaos_traj.history, base=chaos_traj, **kw)
        _assert_same_bits(got, want)
        loop = variational.interval_loop(128, 3)
        assert "python" in loop
        if kernel == "compiled":
            assert loop["python"].startswith("failed load-time check")
        assert integrator.kernel_status() == kernel

    def test_no_kernel_runs_the_numpy_loop(self, monkeypatch):
        monkeypatch.setattr(_native.status, "blocks", {})
        monkeypatch.setattr(_native.status, "lib", None)
        monkeypatch.setattr(_native.status, "why", "no compiler: cc not found")
        assert variational.interval_loop(128, 3) == {
            "python": "no compiled kernel: no compiler: cc not found"}

    def test_compiled_block_checks_shapes(self):
        cols = np.eye(5, 2)
        weights = tuple(np.ones((3, 4)) for _ in range(4))
        for n, growth in ((4, np.empty((3, 3))), (5, np.empty((3, 2))),
                          (4, np.empty((2, 3)).T)):
            with pytest.raises(ValueError, match="fit together"):
                variational._compiled_block(cols, weights, n, growth)

    def test_check_sees_one_ulp(self, monkeypatch):
        if integrator.kernel_status() != "compiled":
            pytest.skip("no compiled kernel")
        assert variational.interval_loop(16, 2) == "compiled"
        numpy_block = variational._numpy_block

        def one_ulp_off(columns, weights, n, growth):
            out = numpy_block(columns, weights, n, growth)
            growth[-1, -1] = np.nextafter(growth[-1, -1], np.inf)
            return out

        monkeypatch.setattr(variational, "_numpy_block", one_ulp_off)
        assert not variational._block_matches(16, 2)


class TestLyapunovSmall:
    def test_stable_steady_state_spectrum(self, table1):
        qs = steady_state(table1).nontrivial
        rightmost = chareq.rightmost_root(chareq.linearize_at(qs, table1))
        spec = lyapunov_spectrum(table1, History.constant(table1.tau, qs),
                                 m=2, horizon=2000.0, transient=50.0,
                                 bundle_warmup=150.0)
        assert spec.exponents[0] == pytest.approx(rightmost.re, abs=1e-6)
        assert all(x < 0 for x in spec.exponents)
        assert not any(spec.unconverged)

    def test_floquet_zero_mode_on_orbit(self, table1):
        p = table1.with_(kappa=0.3)
        spec = lyapunov_spectrum(p, History.steady_state_perturbation(p, 0.05),
                                 m=2, horizon=4000.0, transient=1500.0)
        assert abs(spec.exponents[0]) < 1e-3
        assert spec.exponents[1] < -0.01

    def test_settings_recorded(self, table1):
        qs = steady_state(table1).nontrivial
        spec = lyapunov_spectrum(table1, History.constant(table1.tau, qs),
                                 m=1, horizon=150.0, reorth=1.0,
                                 transient=20.0, bundle_warmup=0.0, n_mesh=32)
        assert spec.settings["m"] == 1
        assert spec.settings["n_mesh"] == 32
        # interval snapped to a whole number of internal steps
        h = table1.tau / 32
        assert spec.settings["reorth"] == pytest.approx(round(1.0 / h) * h)
        assert spec.history.shape[1] == 1
        assert spec.times[-1] == pytest.approx(spec.horizon)

    def test_horizon_guard(self, table1):
        qs = steady_state(table1).nontrivial
        with pytest.raises(ValueError, match="horizon"):
            lyapunov_spectrum(table1, History.constant(table1.tau, qs),
                              m=1, horizon=50.0, reorth=1.0)
