"""Machine-readable data writers.

Every CSV carries exactly the documented header row.  Floats are written
in ``repr``'s notation, with its shortest round-trip digits, so re-running
a computation reproduces the files byte for byte.  The compiled kernel
(``_native``) writes the body of a table, each float column by Ryu's
shortest-digit algorithm and each other column as ``fmt`` formats it;
where the kernel is not in use, or a text field needs ``csv.writer``'s
quotes, ``fmt`` writes every field, and the bytes are the same.
"""

from __future__ import annotations

import array
import csv
import ctypes
import functools
import io
import itertools
import json
import math
import operator
import re

import numpy as np

from . import _native

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
    lib = _kernel() if rows and _bare(header, len(header)) else None
    body = None if lib is None else _compiled_body(lib, rows)
    if body is None:
        text = _fmt_text(header, rows)
    else:
        text = ",".join(header) + "\n" + body
    with open(path, "w", newline="") as fh:
        fh.write(text)


_QUOTED = re.compile('[",\r\n]')


def _bare(fields: list[str], n_cols: int) -> bool:
    """Whether ``csv.writer`` leaves these fields of rows of ``n_cols``
    fields bare: none holds a quote, a comma or a line break, and none is a
    row's one field and empty."""
    text = "".join(fields)
    return _QUOTED.search(text) is None and (n_cols > 1 or all(fields))


def _fmt_text(header, rows) -> str:
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
    return text


_FLOAT_TYPES = {float, np.float64}
_STR_TYPES = {int, str}  # whose fmt text is their str


def _compiled_body(lib, rows):
    """The body of a table of equal, nonempty rows from ``hsc_csv_body``:
    each column of floats as a float64 array, each other column as the
    ``fmt`` text of its fields joined, with their end offsets.  None where
    rows differ in length or a text field is not ASCII that ``csv.writer``
    leaves bare."""
    n_cols = len(rows[0])
    if n_cols == 0 or len(set(map(len, rows))) != 1:
        return None
    cols, ends, size = [], [], len(rows) * n_cols
    for j in range(n_cols):
        # not zip(*rows), whose iterator per row sets off the collector
        col = list(map(operator.itemgetter(j), rows))
        types = set(map(type, col))
        if types <= _FLOAT_TYPES:
            cols.append(array.array("d", col))
            ends.append(None)
            size += 24 * len(rows)
            continue
        fields = list(map(str if types <= _STR_TYPES else fmt, col))
        text = "".join(fields)
        if not text.isascii() or not _bare(fields, n_cols):
            return None
        cols.append(array.array("B", text.encode()))
        ends.append(array.array("q", itertools.accumulate(map(len, fields))))
        size += len(text)
    pointers = _pointer_array(n_cols)
    out = bytearray(size)
    n = lib.hsc_csv_body(
        len(rows), n_cols, pointers(*(c.buffer_info()[0] for c in cols)),
        pointers(*(e if e is None else e.buffer_info()[0] for e in ends)),
        ctypes.addressof(ctypes.c_char.from_buffer(out)))
    return out[:n].decode("ascii")


@functools.cache
def _pointer_array(n: int):
    """The ctypes type of an array of n pointers, made once per n: ctypes
    keeps no array type alive, and a type made per write is cyclic garbage
    that the collector must find, with full collections in long runs."""
    return ctypes.c_void_p * n


def _kernel():
    """``_native.kernel()`` for a table's body.  The writer's load-time
    check registers here, on the first write of a process, not on import."""
    _native.load_check(_writer_matches, "CSV text differs from fmt's")
    return _native.kernel()


#: repr's notation at its edges: either side of 1e-4 and 1e16, 17 digits,
#: integers past 2**53, subnormals, the largest double, zeros and non-finite
_CHECK_FLOATS = (
    0.0, -0.0, 1.0, -1.5, 0.1, 1 / 3, 5e-05, 1e-05, 0.0001, 0.00012, 1e15,
    9999999999999998.0, 1e16, 1.2e16, 1e22, 1e23, 2.0 ** 53 + 2, 5e-324,
    2.2250738585072014e-308, 1.7976931348623157e+308, -1.5e+300, 123456.789,
    float("inf"), float("-inf"), float("nan"), -float("nan"))


def _writer_matches(lib) -> bool:
    rows = [(x, i, "max" if i % 2 else "", -x)
            for i, x in enumerate(_CHECK_FLOATS)]
    return ("a,b,c,d\n" + _compiled_body(lib, rows)
            == _fmt_text(["a", "b", "c", "d"], rows))


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
