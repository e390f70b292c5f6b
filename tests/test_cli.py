import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hsclab import cli, integrator, presets, variational
from hsclab.cli import main
from conftest import assert_printed

TABLE1_CFG = {"homeostasis": {"Q_h": 1.1, "beta_h": 0.043, "f": 8.0,
                              "s": 2.0, "gamma": 0.1, "tau": 2.8}}
CARRIED = {"kind": "carried", "vary": "kappa", "value": 0.961,
           "settle": 100.0}


def run_cli(tmp_path, command, cfg, *extra):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    args = [command, "--config", str(cfg_path), "--outdir", str(tmp_path)] + list(extra)
    return main(args)


_COMMANDS = ("{steady,stability,roots,hopf,simulate,embed,poincare,sweep,"
             "lyapunov,slowman,run,presets}")
_USAGE = f"""usage: hsclab [-h]
              {_COMMANDS}
              ...
"""
_HELP = _USAGE + f"""
Numerical laboratory for the stem-cell delay model

positional arguments:
  {_COMMANDS}
    steady              run the steady command
    stability           run the stability command
    roots               run the roots command
    hopf                run the hopf command
    simulate            run the simulate command
    embed               run the embed command
    poincare            run the poincare command
    sweep               run the sweep command
    lyapunov            run the lyapunov command
    slowman             run the slowman command
    run                 run a named preset
    presets             list the preset catalog as JSON

options:
  -h, --help            show this help message and exit
"""
_LYAPUNOV_HELP = """usage: hsclab lyapunov [-h] [--config CONFIG] [--preset PRESET]
                       [--set PATH=VALUE] [--out OUT] [--outdir OUTDIR]

options:
  -h, --help        show this help message and exit
  --config CONFIG   JSON configuration file
  --preset PRESET   start from a named preset config
  --set PATH=VALUE  override a config key (dotted path, JSON value)
  --out OUT         output file prefix
  --outdir OUTDIR   output directory (or $HSCLAB_OUTDIR, default '.')
"""


class TestParserOutput:
    """Help texts, the bare call and usage errors, pinned at 80 columns.
    Each case runs twice, so a parser kept between calls must not drift."""

    @pytest.mark.parametrize("argv, code, out, err", [
        (["--help"], 0, _HELP, ""),
        (["lyapunov", "--help"], 0, _LYAPUNOV_HELP, ""),
        ([], 2, _HELP, ""),
        (["lyapunov", "--no-such-flag"], 2, "",
         _USAGE + "hsclab: error: unrecognized arguments: --no-such-flag\n"),
    ], ids=["help", "lyapunov-help", "bare", "unknown-flag"])
    def test_pinned(self, monkeypatch, capsys, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):
            try:
                got = main(list(argv))
            except SystemExit as exc:
                got = exc.code
            assert got == code
            assert capsys.readouterr() == (out, err)


class TestConfigValidation:
    def test_both_param_sources_rejected(self, tmp_path, capsys):
        cfg = dict(TABLE1_CFG)
        cfg["params"] = {"kappa": 0.02, "gamma": 0.1, "tau": 2.8,
                         "theta": 0.08, "f": 8.0, "s": 2.0}
        assert run_cli(tmp_path, "steady", cfg) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config"
        assert "params" in err["error"]["key"]

    def test_missing_required_key_names_path(self, tmp_path, capsys):
        assert run_cli(tmp_path, "hopf", dict(TABLE1_CFG)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["key"] == "hopf.vary"

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = dict(TABLE1_CFG, wibble={})
        assert run_cli(tmp_path, "steady", cfg) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["key"] == "wibble"

    def test_bad_choice_reports_path(self, tmp_path, capsys):
        cfg = dict(TABLE1_CFG, sweep={"vary": "tau", "start": 1.0,
                                      "stop": 2.0, "n": 3,
                                      "direction": "sideways"})
        assert run_cli(tmp_path, "sweep", cfg) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["key"] == "sweep.direction"

    def test_missing_config_and_preset(self, tmp_path, capsys):
        assert main(["steady", "--outdir", str(tmp_path)]) == 2

    @pytest.fixture
    def refuse_integration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated before the config was checked")

        for name in ("integrate", "orbit_diagram", "lyapunov_spectrum"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("command, section, key", [
        ("embed", {"t_end": 10.0, "sampling": 0.0}, "embed.sampling"),
        ("lyapunov", {"m": 0, "horizon": 400.0}, "lyapunov.m"),
        ("lyapunov", {"horizon": 50.0}, "lyapunov.horizon"),
        ("lyapunov", {"horizon": 400.0, "n_mesh": 3}, "lyapunov.n_mesh"),
        ("lyapunov", {"horizon": 400.0, "n_mesh": 0}, "lyapunov.n_mesh"),
        ("lyapunov", {"horizon": 400.0, "store_every": 0},
         "lyapunov.store_every"),
        ("lyapunov", {"horizon": 400.0, "reorth": 0.0}, "lyapunov.reorth"),
        ("lyapunov", {"horizon": 400.0, "reorth": -1.0}, "lyapunov.reorth"),
        ("sweep", {"vary": "tau", "start": 1.0, "stop": 2.0, "n": 3,
                   "transient": -5.0, "record": 3.0}, "sweep.transient"),
        ("sweep", {"vary": "tau", "start": 1.0, "stop": 2.0, "n": 3,
                   "transient": -2.0, "record": 6.0}, "sweep.transient"),
        ("sweep", {"vary": "tau", "start": 1.0, "stop": 2.0, "n": 3,
                   "record": 0.0}, "sweep.record"),
        # each of these ended in a traceback
        ("stability", {"n_c0": 0}, "stability.n_c0"),
        ("simulate", {"t_end": 10.0, "sample_dt": 0.0}, "simulate.sample_dt"),
        ("simulate", {"t_end": 10.0, "rtol": 0.0, "atol": 0.0},
         "simulate.atol"),
        ("simulate", {"t_end": 10.0, "history": dict(CARRIED, vary="bogus")},
         "simulate.history.vary"),
        # each of these exited 3
        ("simulate", {"t_end": -1.0}, "simulate.t_end"),
        ("roots", {"im_max": -1.0}, "roots.im_max"),
        ("hopf", {"vary": "kappa", "lo": 1.4, "hi": 1.6, "n_scan": -1},
         "hopf.n_scan"),
        ("slowman", {"q_min": 0.0}, "slowman.q_min"),
        ("lyapunov", {"horizon": 400.0, "seed": -1}, "lyapunov.seed"),
        ("simulate", {"t_end": 10.0, "history": dict(CARRIED, value="x")},
         "simulate.history.value"),
        # each of these exited 3 only after the whole integration
        ("simulate", {"t_end": 10.0, "events": {"levels": [{"level": "abc"}]}},
         "simulate.events.levels[0].level"),
        ("simulate", {"t_end": 10.0, "events": {
            "levels": [{"level": 0.3, "direction": "sideways"}]}},
         "simulate.events.levels[0].direction"),
        ("embed", {"t_end": 10.0, "lags": ["a"]}, "embed.lags[0]"),
        ("embed", {"t_end": 10.0, "lags": [-1.0]}, "embed.lags"),
        # each of these ran silently
        ("simulate", {"t_end": 10.0, "sample_dt": -1.0}, "simulate.sample_dt"),
        ("lyapunov", {"horizn": 400.0}, "lyapunov.horizn"),
        ("sweep", {"vary": "tau", "mesh": "fig13", "mesh_points": 0},
         "sweep.mesh_points"),
        # a cosine above amplitude 1 went negative and exited 0
        ("simulate", {"t_end": 10.0, "history": {
            "kind": "steady_state_perturbation", "amplitude": 1.5,
            "mode": "cosine"}}, "simulate.history"),
        # sample times not spanning the model delay exited 3 in integrate
        ("simulate", {"t_end": 10.0, "history": {
            "kind": "sampled", "ts": [-1.0, 0.0], "values": [1.0, 1.0]}},
         "simulate.history"),
        # each of these exited 3 only after the whole integration, the
        # t_start one with a message about the lags
        ("embed", {"t_end": 10.0, "lags": [1.0, 20.0]}, "embed.lags"),
        ("embed", {"t_end": 10.0, "t_start": 12.0}, "embed.t_start"),
        # an empty root search window exited 3
        ("roots", {"re_min": 100.0}, "roots.re_min"),
        # more directions than the bundle has mesh values exited 3, and only
        # after the whole base integration
        ("lyapunov", {"horizon": 400.0, "m": 200}, "lyapunov.m"),
    ])
    def test_nonpositive_setting_is_config_error(self, tmp_path, capsys,
                                                 refuse_integration, command,
                                                 section, key):
        cfg = dict(TABLE1_CFG, **{command: section})
        assert run_cli(tmp_path, command, cfg) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config"
        assert err["error"]["key"] == key

    @pytest.mark.parametrize("command, section", [
        ("poincare", {"simulate": {"t_end": 10.0}}),
        ("lyapunov", {"lyapunov": {"horizon": 400.0}}),
    ])
    def test_poincare_alpha_above_tau_is_config_error(
            self, tmp_path, capsys, refuse_integration, command, section):
        # both exited 3, and only after the whole run
        cfg = dict(TABLE1_CFG, poincare={"alpha": 10.0, "level": 1.0},
                   **section)
        assert run_cli(tmp_path, command, cfg) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config"
        assert err["error"]["key"] == "poincare.alpha"

    @pytest.mark.parametrize("name", sorted(presets.catalog()))
    def test_preset_config_passes_the_table(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("computed while checking the config")

        for fn in ("integrate", "orbit_diagram", "lyapunov_spectrum",
                   "history_from_trajectory"):
            monkeypatch.setattr(cli, fn, refuse)
        cfg = presets.get_preset(name)["config"]
        p = cli.resolve_params(cfg)
        sections = set(cfg) - {"homeostasis", "params", "set_params"}
        assert sections
        for section in sections:
            cli.settings(cfg, section, p)

    def test_set_override(self, tmp_path):
        code = run_cli(tmp_path, "steady", dict(TABLE1_CFG),
                       "--set", "set_params.kappa=4.2", "--out", "ov")
        assert code == 0
        data = json.loads((tmp_path / "ov_steady.json").read_text())
        assert data["nontrivial"] is None  # pushed past the existence bound


class TestSteadyCommand:
    def test_outputs(self, tmp_path):
        assert run_cli(tmp_path, "steady", dict(TABLE1_CFG), "--out", "s") == 0
        data = json.loads((tmp_path / "s_steady.json").read_text())
        assert data["nontrivial"] == pytest.approx(1.1, rel=1e-12)
        assert_printed(data["amplification"], 1.512, 4)
        assert_printed(data["tau_max"], 6.90401, 6)
        man = json.loads((tmp_path / "s_manifest.json").read_text())
        assert man["command"] == "steady"
        assert "wall_time_s" in man and man["exit_code"] == 0


class TestStabilityCommand:
    def test_critical_delays_json_and_c0_csv(self, tmp_path):
        assert run_cli(tmp_path, "stability", dict(TABLE1_CFG), "--out", "st") == 0
        data = json.loads((tmp_path / "st_stability.json").read_text())
        assert data["state"] == "stable"
        cd = data["critical_delays"]
        assert_printed(cd["tau1_minus"], 5.74851, 6)
        assert_printed(cd["tau1_plus"], 6.87437, 6)
        assert_printed(cd["tau2"], 6.87662, 6)
        assert_printed(cd["tau_max"], 6.90401, 6)
        header = (tmp_path / "st_c0.csv").read_text().splitlines()[0]
        assert header == "omega,a_tau,b_tau"


# kappa above f: no delay has a nontrivial state, and the trivial state's
# characteristic argument b*tau*exp(-a*tau) overflows a double
FAST_CLEARANCE_CFG = {"params": {"kappa": 1000.0, "gamma": 0.01, "tau": 1.0,
                                 "theta": 1.0, "f": 1.0, "s": 2.0}}


class TestNumericalEdges:
    @pytest.mark.parametrize("command, section", [
        ("simulate", {"simulate": {"t_end": 20.0, "history": {
            "kind": "constant", "value": 1e200}}}),
    ])
    def test_overflow_is_numerical_error(self, tmp_path, capsys, command,
                                         section):
        # each ended in an OverflowError traceback with exit 1
        assert run_cli(tmp_path, command, dict(TABLE1_CFG, **section)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "numerical"

    @pytest.mark.parametrize("command", ["stability", "roots"])
    def test_far_point_linearises_to_the_limit(self, tmp_path, command):
        # h' at Q = 1e300 is finite (about -1e-600, so -0.0): the equation
        # linearises to w' = -kappa*w, whose one root is -kappa.  These
        # inputs exited 3 while (theta^s + Q^s)^2 overflowed
        cfg = dict(TABLE1_CFG, **{command: {"at": 1e300}})
        assert run_cli(tmp_path, command, cfg, "--out", "far") == 0
        kappa = cli.resolve_params(TABLE1_CFG).kappa
        if command == "stability":
            out = json.loads((tmp_path / "far_stability.json").read_text())
            assert out["a"] == -kappa and out["b"] == 0.0
            assert out["state"] == "stable"
        else:
            rows = (tmp_path / "far_roots.csv").read_text().splitlines()[1:]
            assert rows == [f"{-kappa!r},0.0,0.0,real"]

    def test_trivial_state_roots_far_left(self, tmp_path, capsys):
        # the root cap is about -5.22, so the default re_min = -5/tau leaves
        # an empty window; the cap itself ended in an OverflowError
        cfg = dict(FAST_CLEARANCE_CFG, roots={"at": "trivial"})
        assert run_cli(tmp_path, "roots", cfg) == 2
        assert json.loads(capsys.readouterr().err)["error"]["key"] == "roots.re_min"
        cfg["roots"]["re_min"] = -20.0
        assert run_cli(tmp_path, "roots", cfg, "--out", "r") == 0
        for row in (tmp_path / "r_roots.csv").read_text().splitlines()[1:]:
            assert float(row.split(",")[2]) < 1e-10

    def test_stability_without_any_nontrivial_delay(self, tmp_path):
        # the delay scan ran over negative delays and exited 3
        cfg = dict(FAST_CLEARANCE_CFG, stability={"at": "trivial"})
        assert run_cli(tmp_path, "stability", cfg, "--out", "st") == 0
        cd = json.loads((tmp_path / "st_stability.json").read_text())["critical_delays"]
        assert cd["tau1_minus"] is None and cd["tau1_plus"] is None
        assert cd["tau_max"] < 0.0


class TestRootsCommand:
    def test_schema_and_residuals(self, tmp_path):
        cfg = dict(TABLE1_CFG, roots={"re_min": -1.5, "im_max": 6.0})
        assert run_cli(tmp_path, "roots", cfg, "--out", "r") == 0
        lines = (tmp_path / "r_roots.csv").read_text().splitlines()
        assert lines[0] == "re,im,residual,kind"
        assert len(lines) > 2
        for row in lines[1:]:
            re_, im_, resid, kind = row.split(",")
            assert float(resid) < 1e-10
            assert kind in ("real", "complex-pair")


class TestSimulateAndEvents:
    def test_trajectory_and_events_csv(self, tmp_path):
        cfg = dict(TABLE1_CFG,
                   set_params={"kappa": 0.3},
                   simulate={"t_end": 300.0, "sample_dt": 0.5,
                             "history": {"kind": "steady_state_perturbation",
                                         "amplitude": 0.05},
                             "events": {"extrema": True, "levels": [0.3]}})
        assert run_cli(tmp_path, "simulate", cfg, "--out", "sim") == 0
        tr = (tmp_path / "sim_trajectory.csv").read_text().splitlines()
        assert tr[0] == "t,Q"
        ev = (tmp_path / "sim_events.csv").read_text().splitlines()
        assert ev[0] == "t,kind,level,direction"
        kinds = {row.split(",")[1] for row in ev[1:]}
        assert {"max", "min", "level"} <= kinds

    def test_manifest_records_the_loop_and_data_do_not(self, tmp_path,
                                                      monkeypatch):
        cfg = dict(TABLE1_CFG, set_params={"kappa": 0.3},
                   simulate={"t_end": 60.0, "sample_dt": 0.5,
                             "events": {"extrema": True, "levels": [0.3]}})
        status = integrator.kernel_status()
        assert run_cli(tmp_path, "simulate", cfg, "--out", "a") == 0
        monkeypatch.setattr(integrator, "_lib", None)
        monkeypatch.setattr(integrator, "_fallback", "no compiler: cc not found")
        assert run_cli(tmp_path, "simulate", cfg, "--out", "b") == 0

        def manifest(prefix):
            return json.loads((tmp_path / f"{prefix}_manifest.json").read_text())

        assert manifest("a")["kernel"] == status
        assert manifest("b")["kernel"] == {"python": "no compiler: cc not found"}
        for name in ("trajectory.csv", "events.csv"):
            assert (tmp_path / f"a_{name}").read_bytes() == \
                (tmp_path / f"b_{name}").read_bytes()
        assert run_cli(tmp_path, "steady", dict(TABLE1_CFG), "--out", "s") == 0
        assert "kernel" not in manifest("s")


class TestHopfCommand:
    def test_crossings_output(self, tmp_path):
        cfg = dict(TABLE1_CFG, hopf={"vary": "kappa", "lo": 1.4, "hi": 1.6,
                                     "n_scan": 40})
        assert run_cli(tmp_path, "hopf", cfg, "--out", "h") == 0
        data = json.loads((tmp_path / "h_hopf.json").read_text())
        assert len(data["crossings"]) == 1
        assert_printed(data["crossings"][0]["value"], 1.5317, 5)
        lines = (tmp_path / "h_hopf.csv").read_text().splitlines()
        assert lines[0] == "value,omega"


class TestEmbedCommand:
    def test_embedding_csv(self, tmp_path):
        cfg = dict(TABLE1_CFG,
                   set_params={"kappa": 0.3},
                   embed={"t_end": 120.0, "lags": [2.8, 1.4],
                          "sampling": 0.5, "t_start": 60.0,
                          "history": {"kind": "steady_state_perturbation",
                                      "amplitude": 0.05}})
        assert run_cli(tmp_path, "embed", cfg, "--out", "em") == 0
        lines = (tmp_path / "em_embedding.csv").read_text().splitlines()
        assert lines[0] == "t,Q,Q_lag_1,Q_lag_2"
        assert len(lines) > 100


class TestPoincareCommand:
    def test_projection_csv(self, tmp_path):
        cfg = dict(TABLE1_CFG,
                   set_params={"kappa": 0.3},
                   simulate={"t_end": 400.0,
                             "history": {"kind": "steady_state_perturbation",
                                         "amplitude": 0.05}},
                   poincare={"alpha": 0.0, "level": 0.3, "direction": "up",
                             "t_start": 200.0})
        assert run_cli(tmp_path, "poincare", cfg, "--out", "pc") == 0
        lines = (tmp_path / "pc_poincare.csv").read_text().splitlines()
        assert lines[0] == "t,proj_x,proj_y"
        assert len(lines) > 10


class TestSweepCommand:
    def test_orbit_csv_and_reproducibility(self, tmp_path):
        cfg = dict(TABLE1_CFG,
                   sweep={"vary": "kappa", "start": 0.05, "stop": 0.06,
                          "n": 3, "direction": "both", "transient": 20.0,
                          "record": 5.0})
        assert run_cli(tmp_path, "sweep", cfg, "--out", "a") == 0
        assert run_cli(tmp_path, "sweep", cfg, "--out", "b") == 0
        a = (tmp_path / "a_orbit.csv").read_text()
        b = (tmp_path / "b_orbit.csv").read_text()
        assert a == b  # byte-identical data on re-run
        lines = a.splitlines()
        assert lines[0] == "param,direction,kind,Q"
        assert any(",increasing," in ln for ln in lines[1:])
        assert any(",decreasing," in ln for ln in lines[1:])


class TestLyapunovCommand:
    def test_summary_and_running_csv(self, tmp_path):
        cfg = dict(TABLE1_CFG,
                   lyapunov={"m": 2, "horizon": 400.0, "reorth": 1.0,
                             "transient": 30.0, "bundle_warmup": 30.0,
                             "zero_tol": 1e-3,
                             "history": {"kind": "steady_state_perturbation",
                                         "amplitude": 0.01}})
        code = run_cli(tmp_path, "lyapunov", cfg, "--out", "ly")
        assert code in (0, 4)
        data = json.loads((tmp_path / "ly_lyapunov.json").read_text())
        assert len(data["exponents"]) == 2
        assert data["exponents"][0] < 0  # homeostasis is stable
        assert data["kaplan_yorke"]["dimension"] == 0.0
        lines = (tmp_path / "ly_lyapunov.csv").read_text().splitlines()
        assert lines[0] == "t,lambda_1,lambda_2"

    def test_manifest_records_the_interval_loop_and_data_do_not(
            self, tmp_path, monkeypatch):
        cfg = dict(TABLE1_CFG, set_params={"kappa": 0.865, "tau": 3.9},
                   lyapunov={"m": 3, "horizon": 150.0, "transient": 50.0,
                             "bundle_warmup": 10.0, "store_every": 7,
                             "history": {"kind": "steady_state_perturbation",
                                         "amplitude": 0.05}})
        code = run_cli(tmp_path, "lyapunov", cfg, "--out", "a")
        monkeypatch.setattr(variational, "_loops", {})
        monkeypatch.setattr(variational, "_block_matches", lambda n, m: False)
        assert run_cli(tmp_path, "lyapunov", cfg, "--out", "b") == code

        def manifest(prefix):
            return json.loads((tmp_path / f"{prefix}_manifest.json").read_text())

        kernel = integrator.kernel_status()
        a, b = manifest("a"), manifest("b")
        assert a["kernel"] == b["kernel"] == kernel
        if kernel == "compiled":
            assert a["interval_loop"] == "compiled"
            assert b["interval_loop"] == {
                "python": "failed load-time check: the compiled block "
                          "differs from the numpy loop"}
        else:
            assert a["interval_loop"] == b["interval_loop"]
        for name in ("lyapunov.csv", "lyapunov.json"):
            assert (tmp_path / f"a_{name}").read_bytes() == \
                (tmp_path / f"b_{name}").read_bytes()
        assert run_cli(tmp_path, "simulate", dict(TABLE1_CFG, simulate={
            "t_end": 20.0}), "--out", "s") == 0
        assert "interval_loop" not in manifest("s")


class TestLyapunovWithSection:
    def test_poincare_export_reuses_base(self, tmp_path):
        cfg = dict(TABLE1_CFG,
                   set_params={"kappa": 0.3},
                   lyapunov={"m": 2, "horizon": 150.0, "reorth": 1.0,
                             "transient": 60.0, "bundle_warmup": 20.0,
                             "history": {"kind": "steady_state_perturbation",
                                         "amplitude": 0.05}},
                   poincare={"alpha": 0.0, "level": 0.3, "direction": "up",
                             "t_start": 60.0})
        code = run_cli(tmp_path, "lyapunov", cfg, "--out", "lp")
        assert code in (0, 4)
        assert (tmp_path / "lp_poincare.csv").exists()
        data = json.loads((tmp_path / "lp_lyapunov.json").read_text())
        assert data["poincare_crossings"] >= 5


class TestSlowmanCommand:
    def test_all_outputs(self, tmp_path):
        cfg = {"homeostasis": TABLE1_CFG["homeostasis"],
               "set_params": {"gamma": 0.2453692},
               "slowman": {"q_min": 0.01, "q_max": 0.12, "n": 24,
                           "nullcline_n": 24}}
        assert run_cli(tmp_path, "slowman", cfg, "--out", "sm") == 0
        sm = (tmp_path / "sm_slowman.csv").read_text().splitlines()
        assert sm[0] == "Q_r,lambda,Q_prime,Q_tau,regime"
        assert any(",gap" in ln for ln in sm[1:])
        nc = (tmp_path / "sm_nullcline.csv").read_text().splitlines()
        assert nc[0] == "Q_now,Q_delayed,branch"
        lm = json.loads((tmp_path / "sm_landmarks.json").read_text())
        assert_printed(lm["Q_f"], 0.042263, 5)
        assert_printed(lm["switch"], 0.0893174, 6)

    @pytest.mark.parametrize("params", [
        # W_0(x0)/tau near -1e-16: the gap's left end lay inside the
        # skipped sliver of the bracketed search, which raised (exit 3)
        {"kappa": 4.458102956733756, "gamma": 0.011228125633118136,
         "tau": 7.768143476893467, "theta": 0.028032755060227444,
         "f": 10.399807089175754, "s": 2.141951793816236},
        # kappa*tau = 800 underflows x0 to -0.0, where W_-1 raised (exit 3)
        {"kappa": 100.0, "gamma": 0.01, "tau": 8.0, "theta": 1.0,
         "f": 2000.0, "s": 2.0},
    ])
    def test_extreme_coalescence_levels(self, tmp_path, params):
        cfg = {"params": params, "slowman": {"n": 10, "nullcline_n": 10}}
        assert run_cli(tmp_path, "slowman", cfg, "--out", "sm") == 0
        lm = json.loads((tmp_path / "sm_landmarks.json").read_text())
        assert lm["gap"][0] == pytest.approx(lm["Q_h"], rel=1e-12)

    def test_nullcline_keeps_far_companions(self, tmp_path):
        # at s = 1.2 the second delayed companion lies beyond 200*theta,
        # where the scan that solved s != 2 stopped looking
        cfg = {"homeostasis": TABLE1_CFG["homeostasis"],
               "set_params": {"s": 1.2},
               "slowman": {"n": 10, "nullcline_n": 50}}
        assert run_cli(tmp_path, "slowman", cfg, "--out", "sm") == 0
        rows = (tmp_path / "sm_nullcline.csv").read_text().splitlines()[1:]
        assert len(rows) == 100
        assert [r.split(",")[2] for r in rows] == ["0", "1"] * 50


class TestPresets:
    def test_catalog_contains_documented_names(self):
        cat = presets.catalog()
        for name in ("fig1-stability-chart", "fig2-kappa-scan",
                     "fig5-gamma-scan", "fig7-tau-scan", "fig10-canard",
                     "fig11-torus", "fig12-chaos", "fig13-orbit-diagram",
                     "fig15-transient-chaos", "fig17-snaking-diagram"):
            assert name in cat
            assert "command" in cat[name] and "config" in cat[name]
            assert cat[name]["targets"]

    def test_catalog_round_trips_serialization(self):
        cat = presets.catalog()
        assert json.loads(json.dumps(cat)) == cat

    def test_torus_preset_declares_horizon(self):
        cfg = presets.get_preset("fig11-torus")["config"]
        assert cfg["lyapunov"]["horizon"] == 30000.0

    def test_fig13_mesh_documented_counts(self):
        up, down = presets.fig13_mesh()
        assert len(up) == 30400
        assert len(down) == 30399
        assert up[0] == 1.0 and up[-1] == 5.0
        # piecewise densities: joints at 3.4 and 4.4 are mesh points
        assert 3.4 in up and 4.4 in up
        # interleaved decreasing mesh
        assert down[0] > down[-1]
        mid = 0.5 * (up[0] + up[1])
        assert down[-1] == pytest.approx(mid)

    def test_snaking_mesh(self):
        m = presets.snaking_mesh()
        assert len(m) == 2000
        assert m[0] == pytest.approx(4.26219) and m[-1] == pytest.approx(4.26197)

    def test_unknown_preset_exit_code(self, tmp_path, capsys):
        assert main(["run", "nope", "--outdir", str(tmp_path)]) == 2

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "fig13-orbit-diagram" in out

    def test_run_preset_stability(self, tmp_path):
        assert main(["run", "fig1-stability-chart", "--outdir", str(tmp_path)]) == 0
        data = json.loads(
            (tmp_path / "fig1-stability-chart_stability.json").read_text())
        assert_printed(data["critical_delays"]["tau1_minus"], 5.74851, 6)

    def test_preset_rerun_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            assert main(["run", "fig1-stability-chart",
                         "--outdir", str(d)]) == 0
        name = "fig1-stability-chart"
        for fname in (f"{name}_stability.json", f"{name}_c0.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                (tmp_path / "b" / fname).read_bytes()
        # manifests differ only by the wall-time stamp
        ma = json.loads((tmp_path / "a" / f"{name}_manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / f"{name}_manifest.json").read_text())
        ma.pop("wall_time_s"), mb.pop("wall_time_s")
        assert ma == mb

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HSCLAB_OUTDIR", str(tmp_path))
        assert main(["run", "fig1-stability-chart"]) == 0
        assert (tmp_path / "fig1-stability-chart_manifest.json").exists()


# Small base configs, one per command, and the keys each command reads.
FUZZ_BASE = {
    "steady": {},
    "stability": {"stability": {"n_c0": 17}},
    "roots": {"roots": {"re_min": -1.0, "im_max": 3.0}},
    "hopf": {"hopf": {"vary": "kappa", "lo": 1.5, "hi": 1.6, "n_scan": 4}},
    "simulate": {"simulate": {"t_end": 30.0, "sample_dt": 1.0,
                              "events": {"levels": [0.3]}}},
    "embed": {"embed": {"t_end": 30.0, "sampling": 1.0}},
    "poincare": {"simulate": {"t_end": 40.0}, "poincare": {"level": 0.3}},
    "sweep": {"sweep": {"vary": "kappa", "start": 0.05, "stop": 0.06,
                        "n": 3, "transient": 5.0, "record": 2.0}},
    "lyapunov": {"lyapunov": {"m": 2, "horizon": 100.0, "transient": 10.0,
                              "bundle_warmup": 0.0, "n_mesh": 16}},
    "slowman": {"slowman": {"n": 10, "nullcline_n": 10}},
}
_SIM_KEYS = ("t_end", "rtol", "atol", "history", "history.kind")
FUZZ_KEYS = {
    "steady": (),
    "stability": ("stability.at", "stability.n_c0"),
    "roots": ("roots.at", "roots.re_min", "roots.im_max"),
    "hopf": ("hopf.vary", "hopf.lo", "hopf.hi", "hopf.n_scan"),
    "simulate": tuple(f"simulate.{k}" for k in _SIM_KEYS + (
        "sample_dt", "events", "events.extrema", "events.levels")),
    "embed": tuple(f"embed.{k}" for k in _SIM_KEYS + (
        "lags", "sampling", "t_start")),
    "poincare": tuple(f"simulate.{k}" for k in _SIM_KEYS) + tuple(
        f"poincare.{k}" for k in ("alpha", "level", "direction", "t_start",
                                  "n_segment")),
    "sweep": tuple(f"sweep.{k}" for k in (
        "vary", "direction", "transient", "record", "record_mode", "rtol",
        "atol", "mesh", "mesh_points", "start", "stop", "n")),
    "lyapunov": tuple(f"lyapunov.{k}" for k in (
        "m", "horizon", "reorth", "transient", "bundle_warmup", "n_mesh",
        "seed", "zero_tol", "store_every", "rtol", "atol", "history")),
    "slowman": ("slowman.q_min", "slowman.q_max", "slowman.n",
                "slowman.nullcline_n"),
}
FUZZ_CASES = [(command, key) for command, keys in FUZZ_KEYS.items()
              for key in keys + ("seed", "set_params.kappa", "output.prefix",
                                 f"{command}.bogus")]
EDGE_VALUES = [0, -1, 0.5, "x", None, [1], {"a": 1}]


class TestGeneratedConfigs:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(EDGE_VALUES))
    def test_documented_exit_code_and_json_on_stderr(self, tmp_path, capsys,
                                                     case, value):
        command, key = case
        cfg = json.loads(json.dumps(dict(TABLE1_CFG, **FUZZ_BASE[command])))
        code = run_cli(tmp_path, command, cfg, "--set",
                       f"{key}={json.dumps(value)}")
        assert code in (0, 2, 3, 4)
        err = capsys.readouterr().err
        if code != 0:
            assert json.loads(err)["error"]["type"]
