"""Self-tests of the benchmark: the gate must fail corrupted outputs and
wrong exit codes, and a smoke run must print every metric of
BENCHMARK.json with its unit.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, compare_record  # noqa: E402
from worker import PREFIX, Runner, tail  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _runner(name, tmp_path):
    return Runner(WORKLOADS[name], str(tmp_path))


def _flip_digit(path, line_no, field):
    """Change the first decimal of one CSV field in a data file."""
    with open(path) as fh:
        lines = fh.readlines()
    cells = lines[line_no].rstrip("\n").split(",")
    whole, frac = cells[field].split(".")
    cells[field] = f"{whole}.{(int(frac[0]) + 1) % 10}{frac[1:]}"
    lines[line_no] = ",".join(cells) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def test_wrong_exit_code_fails_the_op(tmp_path):
    runner = _runner("lyapunov", tmp_path)
    op = WORKLOADS["lyapunov"].pool(0, str(tmp_path / "configs"))[0]
    assert runner.execute(op)["problems"] == []
    op.expected_code = 0  # short-horizon spectra exit 4
    rec = runner.execute(op)
    assert rec["code"] == 4
    assert any("exit code 4, expected 0" in p for p in rec["problems"])


@pytest.mark.parametrize("name, fname, line_no, field", [
    ("sweep", "orbit.csv", 3, 3),
    ("chaos-events", "trajectory.csv", 400, 1),
    ("chaos-events", "events.csv", 5, 0),
    ("lyapunov", "lyapunov.csv", -1, 1),
    ("linear", "roots.csv", 1, 0),
])
def test_corrupted_data_file_fails_the_op(tmp_path, name, fname, line_no,
                                          field):
    workload = WORKLOADS[name]
    runner = _runner(name, tmp_path)
    op = workload.pool(0, str(tmp_path / "configs"))[0]
    runner.results.append(runner.execute(op))
    ops = {op.key: op}
    assert runner.gate(ops, seed=0) == {op.key: []}
    _flip_digit(os.path.join(runner.outdir(op), f"{PREFIX}_{fname}"),
                line_no, field)
    problems = runner.gate(ops, seed=0)[op.key]
    assert problems, f"corrupted {fname} passed the gate"


def test_changed_output_of_a_repeat_fails_the_op(tmp_path):
    runner = _runner("linear", tmp_path)
    op = WORKLOADS["linear"].pool(0, str(tmp_path / "configs"))[0]
    assert runner.execute(op)["problems"] == []
    runner.first[op.key] = {"op_roots.csv": "0" * 64}
    assert runner.execute(op)["problems"]


def test_reference_comparison():
    ref = {"exact": {"knots_coeffs": "ab"},
           "close": {"events": ([1.0, 2.0], 1e-10)},
           "labels": {"kinds": ["max", "min"]}}
    same = json.loads(json.dumps(ref))
    assert compare_record(same, ref) == []
    moved = json.loads(json.dumps(ref))
    moved["close"]["events"][0][1] += 1e-9
    assert compare_record(moved, ref)
    rehashed = dict(same, exact={"knots_coeffs": "ac"})
    assert compare_record(rehashed, ref)


def test_tail_has_ten_ops_beyond_it():
    times = [float(i) for i in range(40)]
    value, pct = tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == pytest.approx(75.0)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, group):
    proc = _bench("--workload", "lyapunov", "--seed", "0", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 20
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in lines[:-1]), name


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "linear", "--seed", "0", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
