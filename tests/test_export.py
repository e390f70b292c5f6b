import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from hsclab import chareq, export
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


class TestWriteJson:
    def test_same_bytes_as_json_dump(self, tmp_path):
        obj = {"b": [1.5, float("inf"), -0.0, None, True], "a": {"z": "é\n",
               "y": [{"k": 1}, []]}, "c": "plain"}
        for value in (obj, [], "text", 1.0):
            export.write_json(tmp_path / "got.json", value)
            _json_dump(tmp_path / "want.json", value)
            assert (tmp_path / "got.json").read_bytes() == \
                (tmp_path / "want.json").read_bytes()
