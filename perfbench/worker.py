"""Run one benchmark workload in this process and write its result as JSON.

Started by ``run.py`` in a fresh process per workload, with thread pools
pinned to one thread.  Ops run serially, one in flight (a closed loop with a
single client): one untimed warm-up op, then ops from the workload's seeded
pool until the timed op time reaches ``--seconds``.  Every op's files are
checked after it returns (untimed): repeats of an op must reproduce the first
run's files byte for byte, and each distinct op is gated once through the
library API at the end.

With ``--trace 1`` every op runs twice, untraced and traced, in alternating
order; the traced runs give the per-layer metrics and the pair gives the
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from workloads import WORKLOADS, Op, compare_record

MIN_OPS = 20
PREFIX = "op"


def data_digest(outdir: str) -> dict[str, str]:
    """sha256 of every file an op wrote, except the manifest (which records
    a wall time)."""
    out = {}
    for fname in sorted(os.listdir(outdir)):
        if fname.endswith("_manifest.json"):
            continue
        with open(os.path.join(outdir, fname), "rb") as fh:
            out[fname] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Runner:
    """Executes ops through ``hsclab.cli.main`` and keeps their outcomes."""

    def __init__(self, workload, workdir: str, reference: dict | None = None):
        import hsclab.cli

        self.cli = hsclab.cli
        self.workload = workload
        self.workdir = workdir
        self.reference = reference or {}
        self.results: list[dict] = []     # one per timed op
        self.first: dict[int, dict] = {}  # pool key -> digest of first run

    def outdir(self, op: Op) -> str:
        return os.path.join(self.workdir, f"op{op.key}")

    def execute(self, op: Op) -> dict:
        """Run one op; returns its record (time, exit code, problems)."""
        outdir = self.outdir(op)
        argv = op.args + ["--outdir", outdir, "--out", PREFIX]
        problems = []
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a crash
            code = None
            problems.append("raised: " + traceback.format_exc(limit=3))
        dt = time.perf_counter() - t0
        if code != op.expected_code:
            problems.append(f"exit code {code}, expected {op.expected_code}")
        if code is not None and os.path.isdir(outdir):
            digest = data_digest(outdir)
            first = self.first.setdefault(op.key, digest)
            if digest != first:
                problems.append("output files differ from the first run of "
                                "the same op")
        return {"key": op.key, "command": op.command, "time": dt,
                "code": code, "units": op.units, "problems": problems}

    def gate(self, ops: dict[int, Op], seed: int) -> dict[int, list[str]]:
        """Gate each distinct op that ran once; returns problems per key."""
        ref = self.reference.get(self.workload.name, {}).get(str(seed), {})
        out = {}
        for key in sorted({r["key"] for r in self.results}):
            op = ops[key]
            try:
                problems, record = self.workload.verify(
                    op, self.outdir(op), PREFIX, op.expected_code)
                if str(key) in ref:
                    problems += compare_record(record, ref[str(key)])
            except Exception as exc:  # a malformed file fails the op
                problems = [f"gate raised {type(exc).__name__}: {exc}"]
            out[key] = problems
        return out


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it: (value, pct)."""
    s = sorted(times)
    i = max(0, len(s) - 11)
    return s[i], 100.0 * (i + 1) / len(s)


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    ref_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "reference.json")
    reference = {}
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            reference = json.load(fh)
    pool = workload.pool(args.seed, os.path.join(args.workdir, "configs"))
    ops = {op.key: op for op in pool}
    runner = Runner(workload, args.workdir, reference)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    warm = runner.execute(pool[0])  # untimed; imports, caches, first files
    untraced: list[dict] = []
    traced: list[dict] = []
    i = 0
    elapsed = 0.0
    while elapsed < args.seconds or len(runner.results) < MIN_OPS:
        op = pool[i % len(pool)]
        if tracer is None:
            rec = runner.execute(op)
            runner.results.append(rec)
            elapsed += rec["time"]
        else:
            order = (False, True) if i % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    tracer.op_id = i
                    tracer.install()
                    try:
                        rec = runner.execute(op)
                    finally:
                        tracer.uninstall()
                    rec["op"] = i
                    traced.append(rec)
                else:
                    rec = runner.execute(op)
                    untraced.append(rec)
                runner.results.append(rec)
                elapsed += rec["time"]
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gate = runner.gate(ops, args.seed)
    failed = 0
    problems: list[str] = []
    for rec in runner.results:
        rec["problems"] += gate.get(rec["key"], [])
        if rec["problems"]:
            failed += 1
            problems += [f"op {rec['key']}: {p}" for p in rec["problems"]]
    results = runner.results
    out = {"attempted": len(results), "failed": failed,
           "correct": failed == 0 and not warm["problems"],
           "problems": sorted(set(problems))[:20] + warm["problems"][:5]}
    if tracer is None:
        times = [r["time"] for r in results]
        ok = [r for r in results if not r["problems"]]
        value, pct = tail(times)
        out["metrics"] = {
            "work_per_s": sum(r["units"] for r in ok) / sum(times),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_tail_ms": 1e3 * value,
            "ok_ratio": 1.0 - failed / len(results),
            "peak_rss_mb": peak_rss_mb,
        }
        out["tail_pct"] = pct
        out["ops_beyond_tail"] = sum(t > value for t in times)
    else:
        from tracer import layer_metrics

        metrics = layer_metrics(tracer.spans, traced)
        wt = sum(r["units"] for r in traced) / sum(r["time"] for r in traced)
        wu = sum(r["units"] for r in untraced) / sum(r["time"] for r in untraced)
        metrics["trace.work_per_s_traced"] = wt
        metrics["trace.work_per_s_untraced"] = wu
        metrics["trace.overhead_pct"] = 100.0 * (wu / wt - 1.0)
        out["metrics"] = metrics
        if args.spans:
            tracer.write(args.spans)
        out["spans"] = len(tracer.spans)
    out["unit"] = workload.unit
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    out = run(args)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
