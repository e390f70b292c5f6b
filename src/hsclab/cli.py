"""Command-line runner binding the laboratory modules to config files and
data exports.

One JSON config document drives every command; flags override config keys
via dotted paths (``--set lyapunov.horizon=30000``).  Each run writes its
documented CSV/JSON data files plus a run-manifest JSON holding the fully
resolved configuration and version stamps, and for a command that
integrates, whether the compiled kernel or the Python loop ran (for
``lyapunov`` also its interval loop's, under ``interval_loop``).  Every
setting has one row in a table of type, default and range, and each command
checks its sections against it before computing anything.  Exit codes: 0 success, 2 config
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
from .integrator import (History, detect_events, history_from_trajectory,
                         integrate, kernel_status)
from .model import (ModelParams, derive_homeostasis, existence_bounds,
                    params_from_dict, params_to_dict, spec_from_dict,
                    steady_state)
from .variational import interval_loop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNCONVERGED = 4


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


# ---------------------------------------------------------------------------
# settings: one table row per key, ``key: (kind, default[, (test, message)])``.
# A kind is a type, ``[kind]`` for a list of it, a table for an object, a
# tuple of alternatives told apart by the JSON type of the value, or a reader
# function.  A callable default is applied to the model parameters.

_REQUIRED = object()
_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_ABOVE_MINUS_ONE = (lambda v: v > -1, "must exceed -1")
_ALL_NONNEGATIVE = (lambda v: min(v, default=0.0) >= 0, "must be nonnegative")


def _at_least(n):
    return lambda v: v >= n, f"must be at least {n}"


def _one_of(*choices):
    return lambda v: v in choices, f"must be one of {sorted(choices)}"


_PARAM_NAMES = ("kappa", "gamma", "tau", "theta", "f", "s")
_HISTORIES = {
    "constant": {"value": (float, _REQUIRED, _NONNEGATIVE)},
    "steady_state_perturbation": {
        "amplitude": (float, _REQUIRED, _ABOVE_MINUS_ONE),
        "mode": (str, "constant", _one_of("constant", "cosine"))},
    "sampled": {"ts": ([float], _REQUIRED),
                "values": ([float], _REQUIRED)},
    "carried": {"vary": (str, _REQUIRED, _one_of(*_PARAM_NAMES)),
                "value": (float, _REQUIRED, _POSITIVE),
                "settle": (float, 5000.0, _POSITIVE),
                "amplitude": (float, 0.05, _ABOVE_MINUS_ONE)},
}


def _history(node, path: str, p):
    """A history object, read by the table of its ``kind``."""
    kind = _value(node, dict, path, p).get("kind")
    if not isinstance(kind, str) or kind not in _HISTORIES:
        raise ConfigError(f"{path}.kind", f"must be one of {sorted(_HISTORIES)}")
    return _read(node, path + ".", {"kind": (str, _REQUIRED), **_HISTORIES[kind]}, p)


_TOLERANCES = {"rtol": (float, 1e-9, _NONNEGATIVE),
               "atol": (float, 1e-12, _POSITIVE)}
_SIMULATION = {"t_end": (float, _REQUIRED, _POSITIVE),
               **_TOLERANCES,
               "history": (_history, None)}
_AT = ((str, float), "nontrivial", (
    lambda v: v in ("nontrivial", "trivial") if isinstance(v, str) else v >= 0,
    "must be 'nontrivial', 'trivial' or a nonnegative level"))
_LEVEL = {"level": (float, _REQUIRED),
          "direction": (str, "both", _one_of("up", "down", "both"))}
_EVENTS = {"extrema": (bool, True),
           "levels": ([(_LEVEL, float)], [])}

_SETTINGS = {
    "output": {"prefix": (str, None)},
    "stability": {"at": _AT,
                  "n_c0": (int, 257, _at_least(1))},
    "roots": {"at": _AT,
              "re_min": (float, lambda p: -5.0 / p.tau),
              "im_max": (float, lambda p: 4.0 * math.pi / p.tau, _POSITIVE)},
    "hopf": {"vary": (str, _REQUIRED, _one_of("kappa", "gamma", "tau")),
             "lo": (float, _REQUIRED, _POSITIVE),
             "hi": (float, _REQUIRED, _POSITIVE),
             "n_scan": (int, 400, _at_least(2))},
    "simulate": {**_SIMULATION,
                 "sample_dt": (float, lambda p: p.tau / 16.0, _POSITIVE),
                 "events": (_EVENTS, None)},
    "embed": {**_SIMULATION,
              "lags": ([float], lambda p: [p.tau], _ALL_NONNEGATIVE),
              "sampling": (float, lambda p: p.tau / 32.0, _POSITIVE),
              "t_start": (float, 0.0, _NONNEGATIVE)},
    "poincare": {"alpha": (float, 0.0, _NONNEGATIVE),
                 "level": (float, _REQUIRED),
                 "direction": (str, "up", _one_of("up", "down")),
                 "t_start": (float, 0.0, _NONNEGATIVE),
                 "n_segment": (int, 129, _at_least(1))},
    "sweep": {"vary": (str, _REQUIRED, _one_of(*_PARAM_NAMES)),
              "direction": (str, "both", _one_of("up", "down", "both")),
              "transient": (float, 50.0, _NONNEGATIVE),
              "record": (float, 6.0, _POSITIVE),
              "record_mode": (str, "last", _one_of("last", "all")),
              **_TOLERANCES,
              "mesh": (str, None, _one_of("fig13", "snaking")),
              "mesh_points": (int, None, _at_least(1)),
              "start": (float, None, _POSITIVE),  # these three are required
              "stop": (float, None, _POSITIVE),   # without a named mesh
              "n": (int, None, _at_least(1))},
    "lyapunov": {"m": (int, 8, _at_least(1)),
                 "horizon": (float, 30000.0, _POSITIVE),
                 "reorth": (float, 1.0, _POSITIVE),
                 "transient": (float, 2000.0, _NONNEGATIVE),
                 "bundle_warmup": (float, 200.0, _NONNEGATIVE),
                 "n_mesh": (int, 128, _at_least(4)),
                 "seed": (int, None, _NONNEGATIVE),  # None: the top-level seed
                 "zero_tol": (float, 0.0, _NONNEGATIVE),
                 "store_every": (int, 10, _at_least(1)),
                 **_TOLERANCES,
                 "history": (_history, None)},
    "slowman": {"q_min": (float, lambda p: p.theta / 20.0, _POSITIVE),
                "q_max": (float, lambda p: 3.0 * p.theta, _POSITIVE),
                "n": (int, 200, _at_least(1)),
                "nullcline_n": (int, 200, _at_least(1))},
}
_TOP = {"params": (dict, None),
        "homeostasis": (dict, None),
        "set_params": (dict, {}),
        "seed": (int, 0, _NONNEGATIVE),
        # one object per section; "steady" reads none but may be present
        **{name: (dict, None) for name in ("steady", *_SETTINGS)}}


def _value(node, kind, path: str, p):
    """``node`` checked against ``kind`` and converted to it."""
    if isinstance(kind, tuple):
        kind = next((k for k in kind if isinstance(
            node, dict if isinstance(k, dict) else k)), kind[-1])
    if isinstance(kind, dict):
        return _read(_value(node, dict, path, p), path + ".", kind, p)
    if isinstance(kind, list):
        return [_value(x, kind[0], f"{path}[{i}]", p)
                for i, x in enumerate(_value(node, list, path, p))]
    if not isinstance(kind, type):
        return kind(node, path, p)
    if kind is float and type(node) is int:
        node = float(node)
    if kind is int and type(node) is float and node.is_integer():
        node = int(node)
    if type(node) is not kind:
        raise ConfigError(path, f"expected {kind.__name__}, "
                                f"got {type(node).__name__}")
    if kind is float and not math.isfinite(node):
        raise ConfigError(path, "must be finite")
    return node


def _read(node: dict, prefix: str, table: dict, p) -> dict:
    """Every key of ``node`` checked against its row of ``table``, and every
    absent key at its default; error keys are ``prefix + key``."""
    for key in node:
        if key not in table:
            raise ConfigError(prefix + key, "unknown key")
    out = {}
    for key, (kind, default, *checks) in table.items():
        if key not in node:
            if default is _REQUIRED:
                raise ConfigError(prefix + key, "missing required key")
            out[key] = default(p) if callable(default) else default
            continue
        out[key] = _value(node[key], kind, prefix + key, p)
        for test, message in checks:
            if not test(out[key]):
                raise ConfigError(prefix + key, message)
    return out


def settings(cfg: dict, section: str, p: ModelParams | None) -> dict:
    """The checked settings of one config section, defaults filled in."""
    return _value(cfg.get(section, {}), _SETTINGS[section], section, p)


def resolve_params(cfg: dict) -> ModelParams:
    top = _read(cfg, "", _TOP, None)
    if (top["params"] is None) == (top["homeostasis"] is None):
        raise ConfigError("params", "exactly one of 'params' or 'homeostasis' "
                                    "must be present")
    key = "params" if top["params"] is not None else "homeostasis"
    try:
        p = (params_from_dict(top[key]) if key == "params"
             else derive_homeostasis(spec_from_dict(top[key])))
        if top["set_params"]:
            p = p.with_(**{k: float(v) for k, v in top["set_params"].items()})
    except (ValueError, TypeError) as exc:
        raise ConfigError(key, str(exc)) from exc
    return p


def resolve_history(p: ModelParams, h: dict | None, path: str) -> History:
    """The initial history that a checked ``history`` setting describes, or
    the default seed when there is none."""
    if h is None:
        return History.default(p)
    try:
        if h["kind"] == "constant":
            return History.constant(p.tau, h["value"])
        if h["kind"] == "sampled":
            hist = History.sampled(h["ts"], h["values"])
            hist.check_delay(p.tau)
            return hist
        carried = h["kind"] == "carried"
        p_seed = p.with_(**{h["vary"]: h["value"]}) if carried else p
        seed = History.steady_state_perturbation(p_seed, h["amplitude"],
                                                  h.get("mode", "constant"))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    if not carried:
        return seed
    settled = integrate(p_seed, seed, h["settle"])
    return history_from_trajectory(settled, settled.t_end, p.tau)


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
        self.notes: dict = {}  # entries the handler adds to the manifest

    def path(self, suffix: str) -> str:
        os.makedirs(self.outdir, exist_ok=True)
        self.files.append(f"{self.prefix}_{suffix}")
        return os.path.join(self.outdir, self.files[-1])


# ---------------------------------------------------------------------------
# command handlers: each reads its sections first and returns
# (summary dict, exit code)

def _cmd_steady(cfg, p, run):
    ss = steady_state(p)
    kmax, tmax = existence_bounds(p)
    out = {"trivial": ss.trivial, "nontrivial": ss.nontrivial,
           "amplification": p.amplification,
           "kappa_max": kmax, "tau_max": tmax,
           "params": params_to_dict(p)}
    export.write_json(run.path("steady.json"), _jsonable(out))
    return out, EXIT_OK


def _stability_coeffs(p, at, section):
    q_eq = 0.0 if at == "trivial" else at
    if at == "nontrivial":
        q_eq = steady_state(p).nontrivial
        if q_eq is None:
            raise ConfigError(f"{section}.at", "no nontrivial steady state "
                                               "at these parameters")
    return chareq.coeffs_at(q_eq, p), q_eq


def _cmd_stability(cfg, p, run):
    s = settings(cfg, "stability", p)
    c, q_eq = _stability_coeffs(p, s["at"], "stability")
    assess = chareq.stability_region(c, n_c0=s["n_c0"])
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
    s = settings(cfg, "roots", p)
    c, q_eq = _stability_coeffs(p, s["at"], "roots")
    # complex_roots searches below this cap and rejects an empty window
    cap = chareq.real_part_cap(c) + 1.0
    if c.b != 0.0 and s["re_min"] >= cap:
        raise ConfigError("roots.re_min", f"must lie below the root cap {cap!r}")
    code = EXIT_OK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IncompleteRootCoverageWarning)
        roots = chareq.real_roots(c)
        roots += chareq.complex_roots(c, re_min=s["re_min"],
                                      im_max=s["im_max"])
        if any(issubclass(w.category, IncompleteRootCoverageWarning)
               for w in caught):
            code = EXIT_UNCONVERGED
    roots.sort(key=lambda r: (-r.re, r.im))
    export.write_csv(run.path("roots.csv"), export.ROOTS_HEADER,
                     export.roots_rows(roots))
    out = {"at": q_eq, "n_real": sum(r.kind == "real" for r in roots),
           "n_pairs": sum(r.kind == "complex-pair" for r in roots),
           "window": {"re_min": s["re_min"], "im_max": s["im_max"]}}
    return out, code


def _cmd_hopf(cfg, p, run):
    s = settings(cfg, "hopf", p)
    pts = chareq.hopf_locus_1p(p, s["vary"], s["lo"], s["hi"],
                               n_scan=s["n_scan"])
    export.write_csv(run.path("hopf.csv"), ["value", "omega"], pts)
    out = {"vary": s["vary"], "crossings": [{"value": v, "omega": w,
                                             "period": 2.0 * math.pi / w}
                                            for v, w in pts]}
    export.write_json(run.path("hopf.json"), _jsonable(out))
    return out, EXIT_OK


def _run_simulation(p, s, section):
    hist = resolve_history(p, s["history"], f"{section}.history")
    return integrate(p, hist, s["t_end"], rtol=s["rtol"], atol=s["atol"])


def _cmd_simulate(cfg, p, run):
    s = settings(cfg, "simulate", p)
    traj = _run_simulation(p, s, "simulate")
    ts = np.arange(0.0, traj.t_end + 1e-9, s["sample_dt"])
    export.write_csv(run.path("trajectory.csv"), export.TRAJECTORY_HEADER,
                     export.trajectory_rows(traj, ts))
    ev = s["events"]
    n_events = 0
    if ev is not None:
        levels = tuple((x["level"], x["direction"]) if isinstance(x, dict)
                       else x for x in ev["levels"])
        evs = detect_events(traj, extrema=ev["extrema"], levels=levels)
        export.write_csv(run.path("events.csv"), export.EVENTS_HEADER,
                         export.events_rows(evs))
        n_events = len(evs)
    out = {"t_end": traj.t_end, "n_segments": traj.n_segments,
           "n_events": n_events, "q_end": float(traj(traj.t_end))}
    return out, EXIT_OK


def _cmd_embed(cfg, p, run):
    s = settings(cfg, "embed", p)
    # delay_embedding samples from max(t_start, max(lags) - tau) to t_end
    if max(s["lags"], default=0.0) - p.tau > s["t_end"]:
        raise ConfigError("embed.lags", "the largest lag must not exceed "
                                        "t_end + tau")
    if s["t_start"] > s["t_end"]:
        raise ConfigError("embed.t_start", "must not exceed t_end")
    traj = _run_simulation(p, s, "embed")
    ts, pts = delay_embedding(traj, s["lags"], s["sampling"],
                              t_start=s["t_start"])
    header = ["t", "Q"] + [f"Q_lag_{i + 1}" for i in range(len(s["lags"]))]
    export.write_csv(run.path("embedding.csv"), header,
                     [(t, *row) for t, row in zip(ts, pts)])
    return {"lags": s["lags"], "n_points": len(ts)}, EXIT_OK


def _poincare_settings(cfg, p):
    s = settings(cfg, "poincare", p)
    if s["alpha"] > p.tau:
        raise ConfigError("poincare.alpha", "must not exceed tau")
    return s


def _cmd_poincare(cfg, p, run):
    s = settings(cfg, "simulate", p)
    sec = _poincare_settings(cfg, p)
    traj = _run_simulation(p, s, "simulate")
    return {"n_crossings": _poincare(sec, traj, run),
            "t_end": traj.t_end}, EXIT_OK


def _poincare(s, traj, run):
    crossings = poincare_section(traj, s["alpha"], s["level"], s["direction"],
                                 t_start=s["t_start"],
                                 n_segment=s["n_segment"])
    export.write_csv(run.path("poincare.csv"), export.POINCARE_HEADER,
                     export.poincare_rows(crossings))
    return len(crossings)


def _sweep_meshes(s):
    scale, direction = s["mesh_points"], s["direction"]
    if s["mesh"] == "fig13":
        up, down = presets.fig13_mesh(30400 if scale is None else scale)
    elif s["mesh"] == "snaking":
        up, down = None, presets.snaking_mesh(2000 if scale is None else scale)
        if direction in ("up", "both"):
            raise ConfigError("sweep.direction",
                              "the snaking mesh is a decreasing scan")
    else:
        for key in ("start", "stop", "n"):
            if s[key] is None:
                raise ConfigError(f"sweep.{key}", "missing required key")
        if s["stop"] <= s["start"]:
            raise ConfigError("sweep.stop", "must exceed sweep.start")
        up = np.linspace(s["start"], s["stop"], s["n"])
        down = (0.5 * (up[:-1] + up[1:]))[::-1] if s["n"] > 1 else up[::-1]
    return [mesh for mesh, way in ((up, "up"), (down, "down"))
            if direction in (way, "both") and mesh is not None]


def _cmd_sweep(cfg, p, run):
    s = settings(cfg, "sweep", p)
    sweeps = [orbit_diagram(p, s["vary"], mesh, transient=s["transient"],
                            record=s["record"], record_mode=s["record_mode"],
                            rtol=s["rtol"], atol=s["atol"])
              for mesh in _sweep_meshes(s)]
    export.write_csv(run.path("orbit.csv"), export.ORBIT_HEADER,
                     export.orbit_rows(sweeps))
    out = {"vary": s["vary"], "n_meshes": len(sweeps),
           "n_points": sum(len(res.points) for res in sweeps),
           "n_failed": sum(pt.failed for res in sweeps for pt in res.points)}
    return out, EXIT_OK


def _cmd_lyapunov(cfg, p, run):
    s = settings(cfg, "lyapunov", p)
    if s["m"] > s["n_mesh"] + 1:  # the QR of the bundle keeps n_mesh + 1
        raise ConfigError("lyapunov.m", "must not exceed n_mesh + 1")
    sec = _poincare_settings(cfg, p) if "poincare" in cfg else None
    seed = cfg.get("seed", 0) if s["seed"] is None else s["seed"]
    grid = {"transient": s["transient"], "bundle_warmup": s["bundle_warmup"],
            "n_mesh": s["n_mesh"]}
    try:
        span = lyapunov_span(p, s["horizon"], s["reorth"], **grid)
    except ValueError as exc:  # the table has checked the other settings
        raise ConfigError("lyapunov.horizon", str(exc)) from exc
    hist = resolve_history(p, s["history"], "lyapunov.history")
    # integrate the base once so an optional Poincare export can reuse it
    base = integrate(p, hist, span.t_end, rtol=s["rtol"], atol=s["atol"])
    spec = lyapunov_spectrum(p, hist, m=s["m"], horizon=s["horizon"],
                             reorth=s["reorth"], seed=seed, rtol=s["rtol"],
                             atol=s["atol"], base=base, **grid)
    ky = kaplan_yorke(spec.exponents, zero_tol=s["zero_tol"])
    run.notes["interval_loop"] = interval_loop(s["n_mesh"], s["m"])
    n_crossings = None if sec is None else _poincare(sec, base, run)
    export.write_csv(run.path("lyapunov.csv"), export.lyapunov_header(s["m"]),
                     export.lyapunov_rows(spec, every=s["store_every"]))
    out = {"exponents": list(spec.exponents), "drifts": list(spec.drifts),
           "unconverged": list(spec.unconverged), "horizon": spec.horizon,
           "kaplan_yorke": {"dimension": ky.dimension, "k": ky.k,
                            "status": ky.status, "zero_tol": s["zero_tol"]},
           "settings": spec.settings}
    if n_crossings is not None:
        out["poincare_crossings"] = n_crossings
    export.write_json(run.path("lyapunov.json"), _jsonable(out))
    code = EXIT_OK
    if any(spec.unconverged) or ky.status != "ok":
        code = EXIT_UNCONVERGED
    return out, code


def _cmd_slowman(cfg, p, run):
    s = settings(cfg, "slowman", p)
    sf = slowman.singular_params(p)
    marks = slowman.landmarks(p)
    grid = np.linspace(s["q_min"], s["q_max"], s["n"])
    rows = slowman.slow_manifold_profile(p, grid)
    export.write_csv(run.path("slowman.csv"), export.SLOWMAN_HEADER,
                     export.slowman_rows(rows))
    export.write_csv(run.path("nullcline.csv"), export.NULLCLINE_HEADER,
                     export.nullcline_rows(
                         p, np.linspace(s["q_min"], s["q_max"],
                                        s["nullcline_n"])))
    out = {"epsilon": sf.epsilon, "C": sf.C,
           "Q_star": marks.Q_star, "Q_f": marks.Q_f, "Q_h": marks.Q_h,
           "switch": marks.switch, "gap": list(marks.gap),
           "rebound": marks.rebound}
    export.write_json(run.path("landmarks.json"), _jsonable(out))
    return out, EXIT_OK


# the commands that integrate: their manifests record the loop that ran
_INTEGRATING = ("simulate", "embed", "poincare", "sweep", "lyapunov")

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


def _error_json(kind: str, message: str, key: str | None = None) -> str:
    payload = {"error": {"type": kind, "message": message}}
    if key is not None:
        payload["error"]["key"] = key
    return json.dumps(payload, sort_keys=True)


def _execute(command: str, cfg: dict, run: _Run,
             preset_name: str | None) -> int:
    started = time.time()
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
    if command in _INTEGRATING:
        manifest["kernel"] = kernel_status()
    manifest.update(run.notes)
    export.write_json(run.path("manifest.json"), manifest)
    if code == EXIT_UNCONVERGED:
        print(_error_json("unconverged", "result flagged unconverged; data "
                                         "written"), file=sys.stderr)
    return code


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later ``main()`` call of the process (parsing does not change it)."""
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    parser = argparse.ArgumentParser(
        prog="hsclab",
        description="Numerical laboratory for the stem-cell delay model")
    sub = parser.add_subparsers(dest="command")
    for name in _HANDLERS:
        sp = sub.add_parser(name, help=f"run the {name} command")
        _common_args(sp)
    runp = sub.add_parser("run", help="run a named preset")
    runp.add_argument("preset")
    _common_args(runp)
    sub.add_parser("presets", help="list the preset catalog as JSON")
    _PARSER = parser
    return parser


def main(argv=None) -> int:
    parser = _parser()
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
        cfg = _apply_overrides(_value(cfg, dict, "config", None), args.set or [])
        outdir = args.outdir or os.environ.get("HSCLAB_OUTDIR") or "."
        prefix = settings(cfg, "output", None)["prefix"]
        run = _Run(outdir, args.out or (preset_name or command
                                        if prefix is None else prefix))
        return _execute(command, cfg, run, preset_name)
    except (ConfigError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(_error_json("config", str(exc), getattr(exc, "key", None)),
              file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError, ValueError) as exc:
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
