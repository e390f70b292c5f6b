"""Machine-readable data writers.

Every CSV carries exactly the documented header row.  Floats are written
with shortest round-trip repr, so re-running a computation reproduces the
files byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

__all__ = [
    "fmt",
    "write_csv",
    "trajectory_rows",
    "events_rows",
    "roots_rows",
    "c0_rows",
    "orbit_rows",
    "poincare_rows",
    "lyapunov_rows",
    "slowman_rows",
    "nullcline_rows",
    "write_json",
]

TRAJECTORY_HEADER = ["t", "Q"]
EVENTS_HEADER = ["t", "kind", "level", "direction"]
ROOTS_HEADER = ["re", "im", "residual", "kind"]
C0_HEADER = ["omega", "a_tau", "b_tau"]
ORBIT_HEADER = ["param", "direction", "kind", "Q"]
POINCARE_HEADER = ["t", "proj_x", "proj_y"]
SLOWMAN_HEADER = ["Q_r", "lambda", "Q_prime", "Q_tau", "regime"]
NULLCLINE_HEADER = ["Q_now", "Q_delayed", "branch"]


def fmt(x) -> str:
    if type(x) is float:  # repr writes nan, inf and -inf as fmt always has
        return repr(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "nan"
    return repr(v)


def write_csv(path, header: list[str], rows) -> None:
    """The header and one line per row, fields formatted by ``fmt``, bytes
    exactly as ``csv.writer`` (lineterminator "\n") writes them."""
    rows = list(rows)
    text = "\n".join([",".join(header),
                      *(",".join(map(fmt, row)) for row in rows), ""])
    n_lines = len(rows) + 1
    n_commas = len(header) + sum(map(len, rows)) - n_lines
    # csv.writer leaves every field bare unless one holds a quote, a line
    # break or a comma, or a row is a single empty field: then let it quote
    if (text.count(",") != n_commas or text.count("\n") != n_lines
            or '"' in text or "\r" in text or "\n\n" in text
            or text.startswith("\n")):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows([fmt(x) for x in row] for row in rows)
        text = buf.getvalue()
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def trajectory_rows(traj, ts):
    """(t, Q) rows of Python floats at the sample times ``ts``."""
    ts = np.asarray(ts, dtype=float)
    return list(zip(ts.tolist(), traj(ts).tolist()))


def events_rows(events):
    return [(e.t, e.kind, e.level, e.direction) for e in events]


def roots_rows(roots):
    return [(r.re, r.im, r.residual, r.kind) for r in roots]


def c0_rows(samples):
    """Rows of Python floats, which ``fmt`` writes without numpy dispatch."""
    return samples.tolist()


def orbit_rows(sweeps):
    rows = []
    for sweep in sweeps:
        for pt in sweep.points:
            for kind, q in pt.extrema:
                rows.append((pt.param, sweep.direction, kind, q))
    return rows


def poincare_rows(crossings):
    return [(c.t, c.projection[0], c.projection[1]) for c in crossings]


def lyapunov_rows(spec, every: int = 1):
    """(t, lambda_1, ...) rows of Python floats: every ``every``-th running
    estimate, and the last one."""
    times, hist = spec.times.tolist(), spec.history.tolist()
    rows = [(times[i], *hist[i]) for i in range(0, len(times), every)]
    if (len(times) - 1) % every:
        rows.append((times[-1], *hist[-1]))
    return rows


def lyapunov_header(m: int) -> list[str]:
    return ["t"] + [f"lambda_{i + 1}" for i in range(m)]


def slowman_rows(rows):
    return [(r["Q_r"], r["lambda"], r["Q_prime"], r["Q_tau"], r["regime"])
            for r in rows]


def nullcline_rows(p, q_grid):
    """Nullcline branches over a grid of current-value coordinates; the
    branch column indexes the companion solutions in increasing order."""
    from .slowman import nullcline_grid

    q_grid = [float(q) for q in q_grid]
    rows = []
    for q, ys in zip(q_grid, nullcline_grid(p, "q_now", q_grid)):
        for k, y in enumerate(ys):
            rows.append((q, y, k))
    return rows
