import ctypes
import csv
import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hsclab
from hsclab import _native, chareq, export
from hsclab.integrator import History, integrate
from hsclab.model import table1_params


# ---------------------------------------------------------------------------
# oracle: the csv.writer and json.dump writers the joined writes replaced

def _csv_writer(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([export.fmt(x) for x in row])


def _json_dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


MIXED = [
    (float("nan"), float("inf"), float("-inf"), -0.0, 0.1),
    (True, False, np.bool_(True), 3, -7),
    (np.float64(2.5), np.float32(0.1), np.int64(12), np.float64("nan"), 1e-300),
    ("", "max", "degenerate", 1.0, 2),
]

NEEDS_QUOTES = [
    ("a,b", 1.0),
    ('say "hi"', 2.0),
    ("line\nbreak", 3.0),
    ("carriage\rreturn", 4.0),
    ("",),
    (),
    (1.0, ""),
]


def _same_bytes(tmp_path, header, rows):
    export.write_csv(tmp_path / "got.csv", header, rows)
    _csv_writer(tmp_path / "want.csv", header, rows)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    return got


class TestWriteCsv:
    def test_mixed_values(self, tmp_path):
        text = _same_bytes(tmp_path, ["a", "b", "c", "d", "e"], MIXED)
        assert text.splitlines()[1] == b"nan,inf,-inf,-0.0,0.1"
        assert text.splitlines()[2] == b"true,false,true,3,-7"

    @pytest.mark.parametrize("row", NEEDS_QUOTES)
    def test_quoted_rows(self, tmp_path, row):
        _same_bytes(tmp_path, ["x", "y"], [(0.5, "up"), row, (1.5, "down")])

    def test_quoted_header(self, tmp_path):
        _same_bytes(tmp_path, ["t", "a,b"], [(0.5, 1.0)])
        _same_bytes(tmp_path, [""], [(0.5,)])

    def test_no_rows_and_generator_rows(self, tmp_path):
        _same_bytes(tmp_path, ["t", "Q"], [])
        export.write_csv(tmp_path / "gen.csv", ["t", "Q"],
                         ((t, 2.0 * t) for t in (0.0, 0.5)))
        assert (tmp_path / "gen.csv").read_text() == "t,Q\n0.0,0.0\n0.5,1.0\n"

    def test_trajectory_rows(self, tmp_path):
        p = table1_params().with_(kappa=0.3)
        traj = integrate(p, History.default(p), 40.0)
        ts = np.arange(0.0, traj.t_end + 1e-9, 0.5)
        rows = export.trajectory_rows(traj, ts)
        assert all(type(t) is float and type(q) is float for t, q in rows)
        # the rows of numpy scalars the writer was given before
        old = [(t, q) for t, q in zip(ts, traj(ts))]
        export.write_csv(tmp_path / "got.csv", export.TRAJECTORY_HEADER, rows)
        _csv_writer(tmp_path / "want.csv", export.TRAJECTORY_HEADER, old)
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()


def _numpy_lyapunov_rows(spec, every=1):
    """The rows of numpy scalars ``lyapunov_rows`` gave before."""
    rows = []
    for i in range(0, len(spec.times), every):
        rows.append((spec.times[i], *spec.history[i]))
    if (len(spec.times) - 1) % every:
        rows.append((spec.times[-1], *spec.history[-1]))
    return rows


class TestLyapunovRows:
    @pytest.mark.parametrize("n, every", [(10, 1), (10, 3), (10, 9), (10, 10),
                                          (10, 25), (1, 1), (1, 4)])
    def test_same_bytes_as_numpy_scalar_rows(self, tmp_path, n, every):
        rng = np.random.default_rng(n + every)
        history = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-300, 300,
                                                                      (n, 4))
        # the first and the last row are always written
        history[0, 0], history[0, 2] = np.nan, -np.inf
        history[-1, 1], history[-1, 3] = np.inf, -0.0
        spec = SimpleNamespace(times=np.arange(1, n + 1) * 0.975,
                               history=history)
        rows = export.lyapunov_rows(spec, every)
        assert all(type(x) is float for row in rows for x in row)
        header = export.lyapunov_header(4)
        export.write_csv(tmp_path / "got.csv", header, rows)
        _csv_writer(tmp_path / "want.csv", header,
                    _numpy_lyapunov_rows(spec, every))
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert b"nan" in got and b"-inf" in got and b"-0.0" in got


class TestC0Rows:
    def test_same_bytes_as_numpy_scalar_rows(self, tmp_path):
        samples = chareq.c0_curve()
        samples[3, 1], samples[5, 2], samples[7, 0] = np.nan, -0.0, np.inf
        rows = export.c0_rows(samples)
        assert all(type(x) is float for row in rows for x in row)
        export.write_csv(tmp_path / "got.csv", export.C0_HEADER, rows)
        _csv_writer(tmp_path / "want.csv", export.C0_HEADER,
                    [tuple(row) for row in samples])
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert b"nan" in got and b"-0.0" in got and b"inf" in got


@pytest.fixture
def fmt_path(monkeypatch):
    """The kernel not in use: ``fmt`` writes every field."""
    monkeypatch.setattr(_native.status, "lib", None)


@pytest.mark.usefixtures("fmt_path")
class TestWriteCsvFmtPath(TestWriteCsv):
    pass


@pytest.mark.usefixtures("fmt_path")
class TestLyapunovRowsFmtPath(TestLyapunovRows):
    pass


@pytest.mark.usefixtures("fmt_path")
class TestC0RowsFmtPath(TestC0Rows):
    pass


def _kinds():
    text = st.one_of(st.text("ab-_ .", max_size=4),
                     st.sampled_from(["", "a,b", '"q"', "x\ny", "c\rr", "é"]))
    return {"float": st.floats(), "float64": st.floats().map(np.float64),
            "str": text, "int": st.integers(-10 ** 20, 10 ** 20),
            "bool": st.booleans(),
            "mixed": st.one_of(st.floats(), st.integers(), text)}


KINDS = _kinds()


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), max_size=5))
    rows = [tuple(draw(KINDS[k]) for k in kinds)
            for _ in range(draw(st.integers(0, 8)))]
    if draw(st.integers(0, 3)) == 0:  # ragged, with some rows empty
        rows = [row[:draw(st.integers(0, len(row)))] for row in rows]
    return [f"c{i}" for i in range(len(kinds))], rows


class TestGeneratedTables:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=tables())
    def test_same_bytes_as_csv_writer(self, tmp_path, table):
        _same_bytes(tmp_path, *table)


# ---------------------------------------------------------------------------
# the compiled body writer against repr

def ryu_table_source() -> str:
    """The power-of-five tables of ``_kernel.c``, from Python integers:
    Ryu's 2**(bitlen(5**q) + 124) // 5**q + 1 for every q of a double's
    e2 >= 0 branch, and 5**i to 125 significant bits (truncated) for every
    i of its e2 < 0 branch, each split into 64-bit words, low word first."""
    def top_bits(v):
        n = v.bit_length() - 125
        return v >> n if n >= 0 else v << -n

    tables = [("POW5_INV_SPLIT", [(1 << (5 ** q).bit_length() + 124) // 5 ** q
                                  + 1 for q in range(292)]),
              ("POW5_SPLIT", [top_bits(5 ** i) for i in range(326)])]
    lines = []
    for name, values in tables:
        pairs = [f"{{0x{v & (1 << 64) - 1:016x}u, 0x{v >> 64:016x}u}}"
                 for v in values]
        lines.append(f"static const uint64_t {name}[{len(values)}][2] = {{")
        lines += ["    " + ", ".join(pairs[k:k + 2]) + ","
                  for k in range(0, len(pairs), 2)]
        lines.append("};")
    return "\n".join(lines)


@pytest.fixture
def kernel():
    # where gcc is, a kernel that fails the writer's load-time check fails
    # these tests rather than skipping them
    if shutil.which(_native._CC) is None:
        pytest.skip(f"no {_native._CC} on PATH")
    lib = export._kernel()
    assert lib is not None, _native.status.why
    return lib


def _kernel_text(lib, values):
    """repr of each value, one a line, as ``hsc_csv_body`` writes a column."""
    col = np.ascontiguousarray(values, dtype=np.float64)
    out = ctypes.create_string_buffer(25 * len(col))
    pointers = ctypes.c_void_p * 1
    n = lib.hsc_csv_body(len(col), 1, pointers(col.ctypes.data), pointers(),
                         out)
    return ctypes.string_at(out, n).decode("ascii")


def _assert_repr(lib, values):
    values = np.asarray(values, dtype=np.float64)
    got = _kernel_text(lib, values).split("\n")
    want = list(map(repr, values.tolist()))
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert got[-1] == "" and len(got) == len(want) + 1 and bad == []


EDGES = [1e-05, 0.0001, 9999999999999998.0, 1e+16, 5e-324,
         2.2250738585072014e-308, 1.7976931348623157e+308, 0.0, -0.0,
         math.inf, -math.inf]


class TestCompiledBody:
    def test_power_of_five_tables_are_recomputed(self):
        src = Path(export.__file__).with_name("_kernel.c").read_text()
        block = re.search(r"/\* @ryu-tables.*?\*/\n(.*?)\n/\* @end \*/", src,
                          re.S)
        assert block.group(1) == ryu_table_source()

    def test_uniform_bit_patterns(self, kernel):
        bits = np.random.default_rng(10).integers(0, 2 ** 64, 10 ** 6,
                                                  dtype=np.uint64)
        _assert_repr(kernel, bits.view(np.float64))

    def test_uniform_values(self, kernel):
        _assert_repr(kernel, np.random.default_rng(11).uniform(0, 100, 10 ** 6))

    def test_powers_of_ten_and_their_neighbours(self, kernel):
        tens = np.array([float(f"1e{k}") for k in range(-324, 309)])
        _assert_repr(kernel, np.concatenate([
            tens, np.nextafter(tens, -np.inf), np.nextafter(tens, np.inf)]))

    def test_short_decimals(self, kernel):
        # exact or near-exact decimals, where Ryu tracks the removed digits
        d = np.arange(1.0, 2001.0)
        _assert_repr(kernel, np.concatenate([d * 10.0 ** e
                                             for e in range(-30, 31)]))

    def test_near_two_to_the_53(self, kernel):
        k = np.arange(-1000.0, 1001.0)
        _assert_repr(kernel, np.concatenate([2.0 ** 53 + k, -(2.0 ** 53) + k]))

    def test_edges(self, kernel):
        edges = np.array(EDGES)
        with np.errstate(over="ignore"):  # past the largest double
            up, down = np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)
        _assert_repr(kernel, np.concatenate([edges, -edges, up, down]))
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                         0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF,
                         0x7FF4000000000000], dtype=np.uint64)
        assert _kernel_text(kernel, nans.view(np.float64)) == "nan\n" * 5

    def test_text_and_float_columns(self, kernel, tmp_path):
        rows = [(x, i, "max", np.float64(-x), True)
                for i, x in enumerate(EDGES + [math.nan])]
        export.write_csv(tmp_path / "got.csv", list("abcde"), rows)
        _csv_writer(tmp_path / "want.csv", list("abcde"), rows)
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()

    def test_writes_leave_the_collector_idle(self, kernel, tmp_path):
        # an array type made per write was cyclic garbage, and zip(*rows)
        # made an iterator per row: about one collection per write of this
        # table, and full collections of several ms in long runs
        rows = [(0.5 * i, 1.0 / (i + 1)) for i in range(801)]
        export.write_csv(tmp_path / "t.csv", ["t", "Q"], rows)
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(50):
                export.write_csv(tmp_path / "t.csv", ["t", "Q"], rows)
            young = gc.get_stats()[0]["collections"] - before
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert young <= 2 and garbage == []

    def test_load_check_failure_disables_kernel(self, kernel, monkeypatch):
        export._kernel()  # registers the check
        real = export.fmt
        monkeypatch.setattr(export, "fmt", lambda x: real(x).upper())
        monkeypatch.setattr(_native.status, "why", "")
        assert _native._load() is None
        assert _native.status.why == ("failed load-time check: CSV text "
                                      "differs from fmt's")

    def test_loads_at_the_first_write_not_on_import(self, kernel, tmp_path):
        script = """
import sys
import hsclab.cli
from hsclab import _native, export
print(_native.status.lib is _native._UNTRIED)
export.write_csv(sys.argv[1], ["t"], [(0.5,)])
print(_native.kernel_status())
"""
        src = os.path.dirname(os.path.dirname(hsclab.__file__))
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "t.csv")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True).stdout
        assert out.splitlines() == ["True", "compiled"]
        assert (tmp_path / "t.csv").read_text() == "t\n0.5\n"


class TestWriteJson:
    def test_same_bytes_as_json_dump(self, tmp_path):
        obj = {"b": [1.5, float("inf"), -0.0, None, True], "a": {"z": "é\n",
               "y": [{"k": 1}, []]}, "c": "plain"}
        for value in (obj, [], "text", 1.0):
            export.write_json(tmp_path / "got.json", value)
            _json_dump(tmp_path / "want.json", value)
            assert (tmp_path / "got.json").read_bytes() == \
                (tmp_path / "want.json").read_bytes()
