"""Record the gate's reference outputs for a few seeds.

    python3 perfbench/record_reference.py

Runs every distinct op of each workload's pool once for the seeds in
``SEEDS`` (the first ``LINEAR_OPS`` ops for ``linear``, whose pool is never
repeated), gates it, and writes the gate records to
``perfbench/reference.json``.  Benchmark runs on these seeds then compare
their outputs with the reference: knots/coeffs and trajectory CSVs bit for
bit, events, exponents and roots within the gate's tolerances.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402
from worker import PREFIX  # noqa: E402

SEEDS = (0, 1, 2)
LINEAR_OPS = 26  # one whole cycle, hopf included


def main() -> int:
    import hsclab.cli

    workdir = os.path.join(os.path.dirname(HERE), ".perfbench_work", "reference")
    out: dict = {}
    try:
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                pool = workload.pool(seed, os.path.join(workdir, "configs"))
                if name == "linear":
                    pool = pool[:LINEAR_OPS]
                records = {}
                for op in pool:
                    outdir = os.path.join(workdir, f"{name}-{seed}-{op.key}")
                    code = hsclab.cli.main(op.args + ["--outdir", outdir,
                                                      "--out", PREFIX])
                    problems, record = workload.verify(op, outdir, PREFIX,
                                                       code)
                    if code != op.expected_code or problems:
                        print(f"{name} seed {seed} op {op.key}: exit {code}, "
                              f"{problems}", file=sys.stderr)
                        return 1
                    records[str(op.key)] = record
                out.setdefault(name, {})[str(seed)] = records
                print(f"{name} seed {seed}: {len(records)} ops recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
