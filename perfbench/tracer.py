"""Outside-in tracing of hsclab's layers.

The program is not edited.  ``Tracer.install`` rebinds the public functions
that ``hsclab.cli``, ``hsclab.analysis`` and ``hsclab.variational`` imported
from the other modules (for ``chareq``, ``slowman`` and ``export``, which
``cli`` imports as modules, a proxy module takes their place in ``cli``).
Each call through a rebound name records a span: name, layer, start, end,
parent span and op id, kept in memory and written out at the end of a run.
A layer's self time is its spans' durations minus the parts their child
spans cover; op time no span accounts for is reported as unattributed.
"""

from __future__ import annotations

import json
import os
import time
import types
import warnings

# (module that calls, bound name, span name, layer)
_PATCHES = [
    ("cli", "main", "cli.main", "cli"),
    ("cli", "derive_homeostasis", "model.derive_homeostasis", "model"),
    ("cli", "steady_state", "model.steady_state", "model"),
    ("cli", "integrate", "integrator.integrate", "integrator"),
    ("cli", "detect_events", "integrator.detect_events", "integrator"),
    ("cli", "history_from_trajectory", "integrator.carry", "integrator"),
    ("cli", "orbit_diagram", "analysis.orbit_diagram", "analysis"),
    ("cli", "lyapunov_spectrum", "analysis.lyapunov_spectrum", "analysis"),
    ("cli", "poincare_section", "analysis.poincare_section", "analysis"),
    ("cli", "delay_embedding", "analysis.delay_embedding", "analysis"),
    ("cli", "kaplan_yorke", "analysis.kaplan_yorke", "analysis"),
    ("analysis", "integrate", "integrator.integrate", "integrator"),
    ("analysis", "find_extrema", "integrator.find_extrema", "integrator"),
    ("analysis", "find_level_crossings", "integrator.find_level_crossings",
     "integrator"),
    ("analysis", "history_from_trajectory", "integrator.carry", "integrator"),
    ("analysis", "integrate_variational", "variational.advance",
     "variational"),
    ("analysis", "orthonormalize", "variational.qr", "variational"),
    ("variational", "h_and_G", "model.h_and_G", "model"),
]

# modules ``cli`` binds whole: (bound name, functions to wrap)
_PROXIES = [
    ("chareq", ("coeffs_at", "stability_region", "critical_delays",
                "real_roots", "complex_roots", "hopf_locus_1p")),
    ("slowman", ("singular_params", "landmarks", "slow_manifold_profile")),
    ("export", ("write_csv", "write_json", "trajectory_rows", "events_rows",
                "roots_rows", "c0_rows", "orbit_rows", "poincare_rows",
                "lyapunov_rows", "slowman_rows", "nullcline_rows")),
]

EVENT_SPANS = ("integrator.detect_events", "integrator.find_extrema",
               "integrator.find_level_crossings")


def _segments_scanned(name, args, kwargs) -> int:
    """Segments an event search walks, from its arguments: the segment
    range of the window, once per extremum or level pass."""
    traj = args[0]
    if name == "integrator.detect_events":
        t0, t1 = kwargs.get("t_start", 0.0), kwargs.get("t_end")
        passes = bool(kwargs.get("extrema", True)) + len(kwargs.get("levels", ()))
    elif name == "integrator.find_extrema":
        t0 = args[1] if len(args) > 1 else kwargs.get("t_start", 0.0)
        t1 = args[2] if len(args) > 2 else kwargs.get("t_end")
        passes = 1
    else:
        t0 = args[3] if len(args) > 3 else kwargs.get("t_start", 0.0)
        t1 = args[4] if len(args) > 4 else kwargs.get("t_end")
        passes = 1
    i0, i1 = traj.segment_range(t0, traj.t_end if t1 is None else t1)
    return passes * max(0, i1 - i0)


class Tracer:
    """Span recorder that rebinds hsclab's cross-module calls."""

    def __init__(self):
        import hsclab.analysis
        import hsclab.cli
        import hsclab.variational

        modules = {"cli": hsclab.cli, "analysis": hsclab.analysis,
                   "variational": hsclab.variational}
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self._replacements: list[tuple] = []
        for mod_name, attr, span, layer in _PATCHES:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            self._replacements.append((mod, attr, self._wrap(fn, span, layer)))
        cli = hsclab.cli
        for attr, names in _PROXIES:
            real = getattr(cli, attr)
            proxy = types.ModuleType(real.__name__)
            proxy.__dict__.update(real.__dict__)
            for fn_name in names:
                proxy.__dict__[fn_name] = self._wrap(
                    getattr(real, fn_name), f"{attr}.{fn_name}", attr)
            self._originals.append((cli, attr, real))
            self._replacements.append((cli, attr, proxy))

    def install(self) -> None:
        for mod, attr, fn in self._replacements:
            setattr(mod, attr, fn)

    def uninstall(self) -> None:
        for mod, attr, fn in self._originals:
            setattr(mod, attr, fn)

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer, "op": self.op_id,
                    "parent": stack[-1] if stack else None}
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            caught = None
            span["start"] = time.perf_counter()
            try:
                if name == "chareq.complex_roots":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            self._count(span, name, args, kwargs, result, caught)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @staticmethod
    def _count(span, name, args, kwargs, result, caught) -> None:
        """Counts taken at the boundary, outside the span's timed part."""
        if name == "integrator.integrate":
            span["segments"] = result.n_segments
        elif name in EVENT_SPANS:
            span["events"] = len(result)
            span["scanned"] = _segments_scanned(name, args, kwargs)
        elif name in ("chareq.real_roots", "chareq.complex_roots"):
            span["roots"] = len(result)
        elif name in ("export.write_csv", "export.write_json"):
            span["bytes"] = os.path.getsize(args[0])
        if caught is not None:
            from hsclab.chareq import IncompleteRootCoverageWarning

            span["coverage_warnings"] = sum(
                issubclass(w.category, IncompleteRootCoverageWarning)
                for w in caught)
            for w in caught:  # hand them on to the caller's own filters
                warnings.warn_explicit(w.message, w.category, w.filename,
                                       w.lineno)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def layer_metrics(spans: list[dict], ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced ops.

    ``ops`` holds one record per traced op: its CLI ``command`` and its
    wall ``time`` as the benchmark measured it around ``cli.main``.
    """
    n_ops = max(1, len(ops))
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    by_name: dict[str, dict] = {}
    layer_self: dict[str, float] = {}
    for s, c in zip(spans, child):
        dur = s["end"] - s["start"]
        own = dur - c
        layer_self[s["layer"]] = layer_self.get(s["layer"], 0.0) + own
        agg = by_name.setdefault(s["name"], {"n": 0, "dur": 0.0, "self": 0.0})
        agg["n"] += 1
        agg["dur"] += dur
        agg["self"] += own
        for key in ("segments", "events", "scanned", "roots", "bytes",
                    "coverage_warnings"):
            if key in s:
                agg[key] = agg.get(key, 0) + s[key]

    def get(name, key="dur"):
        return by_name.get(name, {}).get(key, 0)

    def per_call_ms(*names):
        n = sum(get(x, "n") for x in names)
        return 1e3 * sum(get(x) for x in names) / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    total = sum(r["time"] for r in ops)
    integrate_s = get("integrator.integrate", "self")
    segments = get("integrator.integrate", "segments")
    events_s = sum(get(x, "self") for x in EVENT_SPANS)
    found = sum(get(x, "events") for x in EVENT_SPANS)
    scanned = sum(get(x, "scanned") for x in EVENT_SPANS)
    intervals = get("variational.qr", "n")
    roots_ops = sum(r["command"] == "roots" for r in ops)
    return {
        "integrator.integrate_s": integrate_s / n_ops,
        "integrator.segments": segments / n_ops,
        "integrator.us_per_segment": 1e6 * ratio(integrate_s, segments),
        "integrator.events_s": events_s / n_ops,
        "integrator.events_found": found / n_ops,
        "integrator.segments_scanned": scanned / n_ops,
        "integrator.events_per_segment": ratio(found, scanned),
        "integrator.events_us_per_segment": 1e6 * ratio(events_s, scanned),
        "integrator.carry_ms_per_call": per_call_ms("integrator.carry"),
        "variational.advance_ms_per_interval":
            1e3 * ratio(get("variational.advance", "self"), intervals),
        "variational.qr_ms_per_interval":
            1e3 * ratio(get("variational.qr"), intervals),
        "variational.hprime_ms_per_interval":
            1e3 * ratio(get("model.h_and_G"), intervals),
        "variational.intervals": intervals / n_ops,
        "analysis.self_s": layer_self.get("analysis", 0.0) / n_ops,
        "analysis.self_pct":
            100.0 * ratio(layer_self.get("analysis", 0.0), total),
        "chareq.critical_delays_ms": per_call_ms("chareq.critical_delays"),
        "chareq.hopf_locus_ms": per_call_ms("chareq.hopf_locus_1p"),
        "chareq.roots_ms": 1e3 * ratio(get("chareq.real_roots")
                                       + get("chareq.complex_roots"),
                                       roots_ops),
        "chareq.roots_found": ratio(get("chareq.real_roots", "roots")
                                    + get("chareq.complex_roots", "roots"),
                                    roots_ops),
        "chareq.coverage_warnings":
            get("chareq.complex_roots", "coverage_warnings"),
        "slowman.landmarks_ms": per_call_ms("slowman.landmarks"),
        "slowman.profile_ms": per_call_ms("slowman.slow_manifold_profile"),
        "model.calibrate_ms": 1e3 * (get("model.derive_homeostasis")
                                     + get("model.steady_state")) / n_ops,
        "cli.self_ms": 1e3 * layer_self.get("cli", 0.0) / n_ops,
        "export.write_ms": 1e3 * layer_self.get("export", 0.0) / n_ops,
        "export.bytes": sum(get(x, "bytes") for x in
                            ("export.write_csv", "export.write_json")) / n_ops,
        "unattributed_ms": 1e3 * (total - sum(layer_self.values())) / n_ops,
    }
