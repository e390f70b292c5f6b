"""hsclab benchmark: reduced-scale CLI workloads with an output gate.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the program is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer metrics of a traced run.
The last line of output is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).  ``--workload all`` runs every workload
untraced, then every workload traced, each in a fresh process.

Each run measures set-up time first (several fresh interpreters importing
``hsclab.cli``, the median is reported), then starts a worker process with
BLAS and OpenMP pools pinned to one thread.  Op outputs go to a work
directory under ``.perfbench_work`` that is removed afterwards; spans of a
traced run are written to ``.perfbench_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def bench_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def check_checkout() -> dict:
    """The benchmark spec, after checking the program's sources are here."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    cli = os.path.join(ROOT, "src", "hsclab", "cli.py")
    if not os.path.isfile(cli):
        raise BenchError(f"no program sources: {cli} is missing")
    with open(spec_path) as fh:
        return json.load(fh)


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing hsclab.cli."""
    code = "import hsclab.cli as c; print(c.__file__)"
    want = os.path.join(ROOT, "src", "hsclab", "cli.py")
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("import hsclab.cli failed:\n" + proc.stderr)
        if os.path.realpath(proc.stdout.strip()) != os.path.realpath(want):
            raise BenchError(f"hsclab imported from {proc.stdout.strip()}, "
                             f"not from {want}")
    return statistics.median(times)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 spec: dict) -> dict:
    env = bench_env()
    setup_s = None if trace else measure_setup(env)
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{workload}-{seed}-{trace}-{os.getpid()}")
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    spans = os.path.join(ROOT, ".perfbench_out",
                         f"spans_{workload}_seed{seed}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir, "--result", result_path, "--spans", spans]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise BenchError(f"worker for {workload} exited with "
                             f"{proc.returncode}")
        with open(result_path) as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup_s is not None:
        res["metrics"]["setup_s"] = setup_s
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in res["metrics"]]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    res["metrics"] = {n: {"value": res["metrics"][n], "unit": units[n]}
                      for n in names}
    return res


def describe(workload: str, seed: int, trace: int, res: dict) -> list[str]:
    lines = [f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'}"
             f"): {res['attempted']} ops, {res['failed']} failed"]
    if not trace:
        lines.append(f"   work unit: {res['unit']}; op_tail_ms is the "
                     f"p{res['tail_pct']:.1f} of {res['attempted']} ops "
                     f"({res['ops_beyond_tail']} beyond it)")
    else:
        lines.append(f"   {res['spans']} spans; tracing overhead "
                     f"{res['metrics']['trace.overhead_pct']['value']:.2f}%")
    for name, m in res["metrics"].items():
        lines.append(f"   {name:40s} {m['value']:14.6g} {m['unit']}")
    for p in res["problems"]:
        lines.append(f"   FAILED {p}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed op time per run (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = check_checkout()
        names = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]
        if args.workload == "all":
            runs = [(w, t) for t in (0, 1) for w in names]
        elif args.workload in names:
            runs = [(args.workload, args.trace)]
        else:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {names} or 'all'")
        results = {}
        for workload, trace in runs:
            res = run_workload(workload, args.seed, seconds, trace, spec)
            print("\n".join(describe(workload, args.seed, trace, res)),
                  flush=True)
            results[(workload, trace)] = res
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    def summary(res):
        return {k: res[k] for k in ("correct", "attempted", "failed",
                                    "metrics")}

    if len(runs) == 1:
        print(json.dumps(summary(results[runs[0]])))
    else:
        print(json.dumps({f"{w}/trace{t}": summary(r)
                          for (w, t), r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
