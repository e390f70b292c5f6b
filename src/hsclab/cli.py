"""Command-line runner binding the laboratory modules to config files and
data exports.

One JSON config document drives every command; flags override config keys
via dotted paths (``--set lyapunov.horizon=30000``).  Each run writes its
documented CSV/JSON data files plus a run-manifest JSON holding the fully
resolved configuration and version stamps.  Exit codes: 0 success, 2 config
error, 3 numerical failure, 4 unconverged result (data still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
import warnings

import numpy as np

from . import __version__, chareq, export, presets, slowman
from .analysis import (kaplan_yorke, lyapunov_span, lyapunov_spectrum,
                       orbit_diagram, poincare_section, delay_embedding)
from .chareq import IncompleteRootCoverageWarning
from .integrator import (History, StepSizeUnderflow, detect_events,
                         history_from_trajectory, integrate)
from .model import (ModelParams, derive_homeostasis, existence_bounds,
                    params_from_dict, params_to_dict, spec_from_dict,
                    steady_state)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNCONVERGED = 4

_COMMANDS = ("steady", "stability", "roots", "hopf", "simulate", "embed",
             "poincare", "sweep", "lyapunov", "slowman")

_TOP_KEYS = {"params", "homeostasis", "set_params", "seed", "output",
             *_COMMANDS}


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def _get(cfg: dict, path: str, kind, default=None, required=False,
         choices=None):
    node = cfg
    parts = path.split(".")
    for i, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(path, "missing required key")
            return default
        node = node[part]
    if kind is float and isinstance(node, (int, float)) and not isinstance(node, bool):
        node = float(node)
    if kind is int and isinstance(node, float) and node.is_integer():
        node = int(node)
    if not isinstance(node, kind):
        name = kind.__name__ if isinstance(kind, type) else \
            "/".join(k.__name__ for k in kind)
        raise ConfigError(path, f"expected {name}, got {type(node).__name__}")
    if choices is not None and node not in choices:
        raise ConfigError(path, f"must be one of {sorted(choices)}")
    return node


def resolve_params(cfg: dict) -> ModelParams:
    has_p = "params" in cfg
    has_h = "homeostasis" in cfg
    if has_p == has_h:
        raise ConfigError("params", "exactly one of 'params' or 'homeostasis' "
                                    "must be present")
    try:
        if has_p:
            p = params_from_dict(_get(cfg, "params", dict, required=True))
        else:
            p = derive_homeostasis(spec_from_dict(
                _get(cfg, "homeostasis", dict, required=True)))
        overrides = _get(cfg, "set_params", dict, default={})
        if overrides:
            p = p.with_(**{k: float(v) for k, v in overrides.items()})
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        key = "params" if has_p else "homeostasis"
        raise ConfigError(key, str(exc)) from exc
    return p


def resolve_history(p: ModelParams, cfg_hist: dict | None, *,
                    default_amplitude: float = 0.05) -> History:
    if cfg_hist is None:
        qs = steady_state(p).nontrivial
        if qs is None:
            return History.constant(p.tau, p.theta)
        return History.steady_state_perturbation(p, default_amplitude)
    kind = cfg_hist.get("kind")
    if kind == "carried":
        vary = cfg_hist["vary"]
        value = float(cfg_hist["value"])
        settle = float(cfg_hist.get("settle", 5000.0))
        amp = float(cfg_hist.get("amplitude", 0.05))
        p_via = p.with_(**{vary: value})
        seed = History.steady_state_perturbation(p_via, amp)
        settled = integrate(p_via, seed, settle)
        return history_from_trajectory(settled, settled.t_end, p.tau)
    try:
        return History.from_config(p, cfg_hist)
    except (KeyError, ValueError) as exc:
        raise ConfigError("history", str(exc)) from exc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


class _Run:
    """Output bookkeeping for one command invocation."""

    def __init__(self, outdir: str, prefix: str):
        self.outdir = outdir
        self.prefix = prefix
        self.files: list[str] = []

    def path(self, suffix: str) -> str:
        os.makedirs(self.outdir, exist_ok=True)
        fname = f"{self.prefix}_{suffix}"
        full = os.path.join(self.outdir, fname)
        self.files.append(fname)
        return full


# ---------------------------------------------------------------------------
# command handlers: each returns (summary dict, exit code)

def _cmd_steady(cfg, p, run):
    ss = steady_state(p)
    kmax, tmax = existence_bounds(p)
    out = {"trivial": ss.trivial, "nontrivial": ss.nontrivial,
           "amplification": p.amplification,
           "kappa_max": kmax, "tau_max": tmax,
           "params": params_to_dict(p)}
    export.write_json(run.path("steady.json"), _jsonable(out))
    return out, EXIT_OK


def _stability_coeffs(cfg, p, section):
    at = _get(cfg, f"{section}.at", (str, float, int), default="nontrivial")
    if at == "nontrivial":
        qs = steady_state(p).nontrivial
        if qs is None:
            raise ConfigError(f"{section}.at", "no nontrivial steady state "
                                               "at these parameters")
        q_eq = qs
    elif at == "trivial":
        q_eq = 0.0
    else:
        q_eq = float(at)
    return chareq.coeffs_at(q_eq, p), q_eq


def _cmd_stability(cfg, p, run):
    n_c0 = _get(cfg, "stability.n_c0", int, default=257)
    c, q_eq = _stability_coeffs(cfg, p, "stability")
    assess = chareq.stability_region(c, n_c0=n_c0)
    delays = chareq.critical_delays(p)
    out = {"at": q_eq, "a": c.a, "b": c.b, "tau": c.tau,
           "state": assess.state, "tau1": assess.tau1,
           "critical_delays": {"tau1_minus": delays.tau1_minus,
                               "tau1_plus": delays.tau1_plus,
                               "tau2": delays.tau2,
                               "tau_max": delays.tau_max}}
    export.write_json(run.path("stability.json"), _jsonable(out))
    export.write_csv(run.path("c0.csv"), export.C0_HEADER,
                     export.c0_rows(assess.c0_samples))
    return out, EXIT_OK


def _cmd_roots(cfg, p, run):
    c, q_eq = _stability_coeffs(cfg, p, "roots")
    re_min = _get(cfg, "roots.re_min", float, default=-5.0 / p.tau)
    im_max = _get(cfg, "roots.im_max", float, default=4.0 * math.pi / p.tau)
    code = EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IncompleteRootCoverageWarning)
        roots = chareq.real_roots(c)
        roots += chareq.complex_roots(c, re_min=re_min, im_max=im_max)
        if any(issubclass(w.category, IncompleteRootCoverageWarning)
               for w in caught):
            code = EXIT_UNCONVERGED
    roots.sort(key=lambda r: (-r.re, r.im))
    export.write_csv(run.path("roots.csv"), export.ROOTS_HEADER,
                     export.roots_rows(roots))
    out = {"at": q_eq, "n_real": sum(r.kind == "real" for r in roots),
           "n_pairs": sum(r.kind == "complex-pair" for r in roots),
           "window": {"re_min": re_min, "im_max": im_max}}
    return out, code


def _cmd_hopf(cfg, p, run):
    vary = _get(cfg, "hopf.vary", str, required=True,
                choices={"kappa", "gamma", "tau"})
    lo = _get(cfg, "hopf.lo", float, required=True)
    hi = _get(cfg, "hopf.hi", float, required=True)
    n_scan = _get(cfg, "hopf.n_scan", int, default=400)
    pts = chareq.hopf_locus_1p(p, vary, lo, hi, n_scan=n_scan)
    export.write_csv(run.path("hopf.csv"), ["value", "omega"], pts)
    out = {"vary": vary, "crossings": [{"value": v, "omega": w,
                                        "period": 2.0 * math.pi / w}
                                       for v, w in pts]}
    export.write_json(run.path("hopf.json"), _jsonable(out))
    return out, EXIT_OK


def _run_simulation(cfg, p, section):
    t_end = _get(cfg, f"{section}.t_end", float, required=True)
    rtol = _get(cfg, f"{section}.rtol", float, default=1e-9)
    atol = _get(cfg, f"{section}.atol", float, default=1e-12)
    hist = resolve_history(p, _get(cfg, f"{section}.history", dict))
    return integrate(p, hist, t_end, rtol=rtol, atol=atol)


def _cmd_simulate(cfg, p, run):
    traj = _run_simulation(cfg, p, "simulate")
    sample_dt = _get(cfg, "simulate.sample_dt", float, default=p.tau / 16.0)
    ts = np.arange(0.0, traj.t_end + 1e-9, sample_dt)
    export.write_csv(run.path("trajectory.csv"), export.TRAJECTORY_HEADER,
                     export.trajectory_rows(traj, ts))
    ev_cfg = _get(cfg, "simulate.events", dict, default=None)
    n_events = 0
    if ev_cfg is not None:
        levels = []
        for item in ev_cfg.get("levels", []):
            if isinstance(item, dict):
                levels.append((float(item["level"]),
                               item.get("direction", "both")))
            else:
                levels.append(float(item))
        evs = detect_events(traj, extrema=bool(ev_cfg.get("extrema", True)),
                            levels=tuple(levels))
        export.write_csv(run.path("events.csv"), export.EVENTS_HEADER,
                         export.events_rows(evs))
        n_events = len(evs)
    out = {"t_end": traj.t_end, "n_segments": traj.n_segments,
           "n_events": n_events, "q_end": float(traj(traj.t_end))}
    return out, EXIT_OK


def _cmd_embed(cfg, p, run):
    lags = _get(cfg, "embed.lags", list, default=[p.tau])
    sampling = _get(cfg, "embed.sampling", float, default=p.tau / 32.0)
    if sampling <= 0:
        raise ConfigError("embed.sampling", "must be positive")
    t_start = _get(cfg, "embed.t_start", float, default=0.0)
    traj = _run_simulation(cfg, p, "embed")
    ts, pts = delay_embedding(traj, lags, sampling, t_start=t_start)
    header = ["t", "Q"] + [f"Q_lag_{i + 1}" for i in range(len(lags))]
    export.write_csv(run.path("embedding.csv"), header,
                     [(t, *row) for t, row in zip(ts, pts)])
    return {"lags": [float(x) for x in lags], "n_points": len(ts)}, EXIT_OK


def _cmd_poincare(cfg, p, run):
    traj = _run_simulation(cfg, p, "simulate")
    crossings = _poincare_from_cfg(cfg, traj, run)
    return {"n_crossings": len(crossings), "t_end": traj.t_end}, EXIT_OK


def _poincare_from_cfg(cfg, traj, run):
    alpha = _get(cfg, "poincare.alpha", float, default=0.0)
    level = _get(cfg, "poincare.level", float, required=True)
    direction = _get(cfg, "poincare.direction", str, default="up",
                     choices={"up", "down"})
    t_start = _get(cfg, "poincare.t_start", float, default=0.0)
    n_segment = _get(cfg, "poincare.n_segment", int, default=129)
    crossings = poincare_section(traj, alpha, level, direction,
                                 t_start=t_start, n_segment=n_segment)
    export.write_csv(run.path("poincare.csv"), export.POINCARE_HEADER,
                     export.poincare_rows(crossings))
    return crossings


def _sweep_meshes(cfg, direction):
    mesh_name = _get(cfg, "sweep.mesh", str, default=None)
    scale = _get(cfg, "sweep.mesh_points", int, default=None)
    if mesh_name == "fig13":
        up, down = presets.fig13_mesh(scale or 30400)
    elif mesh_name == "snaking":
        up, down = None, presets.snaking_mesh(scale or 2000)
        if direction in ("up", "both"):
            raise ConfigError("sweep.direction",
                              "the snaking mesh is a decreasing scan")
    elif mesh_name is not None:
        raise ConfigError("sweep.mesh", f"unknown mesh {mesh_name!r}")
    else:
        start = _get(cfg, "sweep.start", float, required=True)
        stop = _get(cfg, "sweep.stop", float, required=True)
        n = _get(cfg, "sweep.n", int, required=True)
        if n < 1 or stop <= start:
            raise ConfigError("sweep.n", "need n >= 1 and stop > start")
        up = np.linspace(start, stop, n)
        down = (0.5 * (up[:-1] + up[1:]))[::-1] if n > 1 else up[::-1]
    meshes = []
    if direction in ("up", "both") and up is not None:
        meshes.append(up)
    if direction in ("down", "both"):
        meshes.append(down)
    return meshes


def _cmd_sweep(cfg, p, run):
    vary = _get(cfg, "sweep.vary", str, required=True,
                choices={"kappa", "gamma", "tau", "s", "f", "theta"})
    direction = _get(cfg, "sweep.direction", str, default="both",
                     choices={"up", "down", "both"})
    transient = _get(cfg, "sweep.transient", float, default=50.0)
    if transient < 0:
        raise ConfigError("sweep.transient", "must be nonnegative")
    record = _get(cfg, "sweep.record", float, default=6.0)
    if record <= 0:
        raise ConfigError("sweep.record", "must be positive")
    mode = _get(cfg, "sweep.record_mode", str, default="last",
                choices={"last", "all"})
    rtol = _get(cfg, "sweep.rtol", float, default=1e-9)
    atol = _get(cfg, "sweep.atol", float, default=1e-12)
    sweeps = []
    n_failed = 0
    for mesh in _sweep_meshes(cfg, direction):
        res = orbit_diagram(p, vary, mesh, transient=transient, record=record,
                            record_mode=mode, rtol=rtol, atol=atol)
        n_failed += sum(pt.failed for pt in res.points)
        sweeps.append(res)
    export.write_csv(run.path("orbit.csv"), export.ORBIT_HEADER,
                     export.orbit_rows(sweeps))
    out = {"vary": vary, "n_meshes": len(sweeps),
           "n_points": sum(len(s.points) for s in sweeps),
           "n_failed": n_failed}
    return out, EXIT_OK


def _cmd_lyapunov(cfg, p, run):
    m = _get(cfg, "lyapunov.m", int, default=8)
    if m < 1:
        raise ConfigError("lyapunov.m", "need m >= 1")
    horizon = _get(cfg, "lyapunov.horizon", float, default=30000.0)
    reorth = _get(cfg, "lyapunov.reorth", float, default=1.0)
    if reorth <= 0:
        raise ConfigError("lyapunov.reorth", "must be positive")
    transient = _get(cfg, "lyapunov.transient", float, default=2000.0)
    warmup = _get(cfg, "lyapunov.bundle_warmup", float, default=200.0)
    n_mesh = _get(cfg, "lyapunov.n_mesh", int, default=128)
    if n_mesh < 4:
        raise ConfigError("lyapunov.n_mesh", "need n_mesh >= 4")
    seed = _get(cfg, "lyapunov.seed", int, default=_get(cfg, "seed", int, default=0))
    zero_tol = _get(cfg, "lyapunov.zero_tol", float, default=0.0)
    store_every = _get(cfg, "lyapunov.store_every", int, default=10)
    if store_every < 1:
        raise ConfigError("lyapunov.store_every", "need store_every >= 1")
    rtol = _get(cfg, "lyapunov.rtol", float, default=1e-9)
    atol = _get(cfg, "lyapunov.atol", float, default=1e-12)
    hist = resolve_history(p, _get(cfg, "lyapunov.history", dict))
    # integrate the base once so an optional Poincare export can reuse it
    try:
        span = lyapunov_span(p, horizon, reorth, transient=transient,
                             bundle_warmup=warmup, n_mesh=n_mesh)
    except ValueError as exc:  # the only check left there is the horizon's
        raise ConfigError("lyapunov.horizon", str(exc)) from exc
    base = integrate(p, hist, span.t_end, rtol=rtol, atol=atol)
    spec = lyapunov_spectrum(p, hist, m=m, horizon=horizon, reorth=reorth,
                             transient=transient, bundle_warmup=warmup,
                             n_mesh=n_mesh, seed=seed, rtol=rtol, atol=atol,
                             base=base)
    ky = kaplan_yorke(spec.exponents, zero_tol=zero_tol)
    n_crossings = None
    if "poincare" in cfg:
        n_crossings = len(_poincare_from_cfg(cfg, base, run))
    export.write_csv(run.path("lyapunov.csv"), export.lyapunov_header(m),
                     export.lyapunov_rows(spec, every=store_every))
    out = {"exponents": list(spec.exponents), "drifts": list(spec.drifts),
           "unconverged": list(spec.unconverged), "horizon": spec.horizon,
           "kaplan_yorke": {"dimension": ky.dimension, "k": ky.k,
                            "status": ky.status, "zero_tol": zero_tol},
           "settings": spec.settings}
    if n_crossings is not None:
        out["poincare_crossings"] = n_crossings
    export.write_json(run.path("lyapunov.json"), _jsonable(out))
    code = EXIT_OK
    if any(spec.unconverged) or ky.status != "ok":
        code = EXIT_UNCONVERGED
    return out, code


def _cmd_slowman(cfg, p, run):
    q_min = _get(cfg, "slowman.q_min", float, default=p.theta / 20.0)
    q_max = _get(cfg, "slowman.q_max", float, default=3.0 * p.theta)
    n = _get(cfg, "slowman.n", int, default=200)
    n_null = _get(cfg, "slowman.nullcline_n", int, default=200)
    sf = slowman.singular_params(p)
    marks = slowman.landmarks(p)
    grid = np.linspace(q_min, q_max, n)
    rows = slowman.slow_manifold_profile(p, grid)
    export.write_csv(run.path("slowman.csv"), export.SLOWMAN_HEADER,
                     export.slowman_rows(rows))
    export.write_csv(run.path("nullcline.csv"), export.NULLCLINE_HEADER,
                     export.nullcline_rows(p, np.linspace(q_min, q_max, n_null)))
    out = {"epsilon": sf.epsilon, "C": sf.C,
           "Q_star": marks.Q_star, "Q_f": marks.Q_f, "Q_h": marks.Q_h,
           "switch": marks.switch, "gap": list(marks.gap),
           "rebound": marks.rebound}
    export.write_json(run.path("landmarks.json"), _jsonable(out))
    return out, EXIT_OK


_HANDLERS = {
    "steady": _cmd_steady,
    "stability": _cmd_stability,
    "roots": _cmd_roots,
    "hopf": _cmd_hopf,
    "simulate": _cmd_simulate,
    "embed": _cmd_embed,
    "poincare": _cmd_poincare,
    "sweep": _cmd_sweep,
    "lyapunov": _cmd_lyapunov,
    "slowman": _cmd_slowman,
}


# ---------------------------------------------------------------------------
# plumbing

def _apply_overrides(cfg: dict, sets: list[str]) -> dict:
    for item in sets:
        if "=" not in item:
            raise ConfigError(item, "--set expects PATH=VALUE")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(path, "override path crosses a non-object")
        node[parts[-1]] = value
    return cfg


def _validate_top_level(cfg: dict):
    for key in cfg:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown configuration section")


def _error_json(kind: str, message: str, key: str | None = None) -> str:
    payload = {"error": {"type": kind, "message": message}}
    if key is not None:
        payload["error"]["key"] = key
    return json.dumps(payload, sort_keys=True)


def _execute(command: str, cfg: dict, run: _Run,
             preset_name: str | None) -> int:
    started = time.time()
    _validate_top_level(cfg)
    p = resolve_params(cfg)
    summary, code = _HANDLERS[command](cfg, p, run)
    manifest = {
        "command": command,
        "preset": preset_name,
        "config": _jsonable(cfg),
        "params": params_to_dict(p),
        "summary": _jsonable(summary),
        "exit_code": code,
        "outputs": run.files,
        "versions": {
            "hsclab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_s": time.time() - started,
    }
    export.write_json(run.path("manifest.json"), manifest)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hsclab",
        description="Numerical laboratory for the stem-cell delay model")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} command")
        _common_args(sp)
    runp = sub.add_parser("run", help="run a named preset")
    runp.add_argument("preset")
    _common_args(runp)
    sub.add_parser("presets", help="list the preset catalog as JSON")
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    if args.command == "presets":
        print(json.dumps(presets.catalog(), indent=2, sort_keys=True))
        return EXIT_OK

    try:
        preset_name = None
        if args.command == "run":
            preset = presets.get_preset(args.preset)
            preset_name = args.preset
            command = preset["command"]
            cfg = preset["config"]
        else:
            command = args.command
            if args.config:
                with open(args.config) as fh:
                    cfg = json.load(fh)
            elif args.preset:
                preset = presets.get_preset(args.preset)
                if preset["command"] != command:
                    raise ConfigError("preset", f"preset {args.preset!r} is a "
                                                f"{preset['command']} run")
                preset_name = args.preset
                cfg = preset["config"]
            else:
                raise ConfigError("config", "provide --config or --preset")
        cfg = _apply_overrides(cfg, args.set or [])
        outdir = args.outdir or os.environ.get("HSCLAB_OUTDIR") or "."
        prefix = args.out or _get(cfg, "output.prefix", str,
                                  default=preset_name or command)
        run = _Run(outdir, prefix)
        return _execute(command, cfg, run, preset_name)
    except KeyError as exc:
        print(_error_json("config", str(exc)), file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(_error_json("config", str(exc), exc.key), file=sys.stderr)
        return EXIT_CONFIG
    except (json.JSONDecodeError, OSError) as exc:
        print(_error_json("config", str(exc)), file=sys.stderr)
        return EXIT_CONFIG
    except StepSizeUnderflow as exc:
        print(_error_json("numerical", str(exc)), file=sys.stderr)
        return EXIT_NUMERICAL
    except (RuntimeError, FloatingPointError, ValueError) as exc:
        print(_error_json("numerical", str(exc)), file=sys.stderr)
        return EXIT_NUMERICAL


def _common_args(sp):
    sp.add_argument("--config", help="JSON configuration file")
    sp.add_argument("--preset", help="start from a named preset config")
    sp.add_argument("--set", action="append", metavar="PATH=VALUE",
                    help="override a config key (dotted path, JSON value)")
    sp.add_argument("--out", help="output file prefix")
    sp.add_argument("--outdir", help="output directory "
                                     "(or $HSCLAB_OUTDIR, default '.')")


if __name__ == "__main__":
    sys.exit(main())
