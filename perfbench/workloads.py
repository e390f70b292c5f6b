"""Seeded workload generators and the output gate of the hsclab benchmark.

Each workload turns a seed into a pool of CLI operations: the argument list
handed to ``hsclab.cli.main``, the exit code the operation must end with and
the amount of useful work it does.  The program only ever sees these
arguments and the generated config files they name.

The gate replays every distinct operation through the public library API
(``hsclab.model``, ``hsclab.integrator``, ``hsclab.analysis``,
``hsclab.chareq``, ``hsclab.slowman``) and checks the files the CLI wrote
against the replay and against the equations themselves: the delay-equation
residual of the dense solution, Q' = 0 at extrema, Q = level at level
events and small characteristic-equation residuals at roots.  It also
returns a record of hashes and values that is compared with the reference
recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

# Table 1 homeostasis calibration of the paper (the ``TABLE1`` preset base).
TABLE1 = {"Q_h": 1.1, "beta_h": 0.043, "f": 8.0, "s": 2.0,
          "gamma": 0.1, "tau": 2.8}

# Tolerances.  Integrator knots/coeffs and trajectory CSVs are compared
# bit for bit; the rest within these bounds.
EVENT_TOL = 1e-10          # event times and extremum values
EXPONENT_TOL = 1e-4        # printed-value tolerance of lambda_1 in C12
ROOT_TOL = 1e-8            # characteristic roots, Hopf loci, critical delays
ROOT_RESIDUAL = 1e-10      # |p(lambda)| / max(1, |lambda|), as chareq promises
DDE_RESIDUAL = 2e-5        # |Q' - rhs(Q, Q_tau)| on the dense solution:
                           # sweep ops reach 3.5e-6, a wrong equation 1e-3
EVENT_RESIDUAL = 1e-9      # |Q'| at extrema, |Q - level| at level events
NULLCLINE_RESIDUAL = 1e-10

# The kappa window of the fig2 scan and the two Hopf points the paper prints
# in it for the Table 1 calibration, with their significant figures.
HOPF_WINDOW = (0.03, 1.6)
HOPF_LOCI = ((0.17632, 5), (1.5317, 5))


@dataclass
class Op:
    """One CLI call of a workload."""

    key: int                  # index in the workload's pool
    command: str
    args: list[str]           # CLI arguments before --outdir / --out
    expected_code: int
    units: float              # useful work, in the workload's unit
    spec: dict = field(default_factory=dict)  # what the gate replays


class GateError(Exception):
    pass


def _check(ok: bool, message: str, problems: list[str]) -> None:
    if not ok:
        problems.append(message)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise GateError(f"{os.path.basename(path)} is empty")
    return rows[0], rows[1:]


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _fmt(x: float) -> str:
    return repr(float(x))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# checks on the equations, shared by the integrating workloads

def dde_residual(traj, n: int = 400) -> float:
    """max |Q'(t) - rhs(Q(t), Q(t - tau))| over the smooth part of the run."""
    import numpy as np
    from hsclab.model import rhs

    p = traj.params
    lo = min(p.tau, 0.5 * traj.t_end)
    ts = np.linspace(lo, traj.t_end, n + 1)[1:]
    d = traj.derivative(ts)
    q = np.maximum(traj(ts), 0.0)
    qd = np.maximum(traj(ts - p.tau), 0.0)
    return max(abs(float(di) - rhs(float(a), float(b), p))
               for di, a, b in zip(d, q, qd))


def check_trajectory(traj, problems: list[str], label: str) -> None:
    res = dde_residual(traj)
    _check(res <= DDE_RESIDUAL,
           f"{label}: delay-equation residual {res:.3e} > {DDE_RESIDUAL}",
           problems)


def check_events(traj, events, problems: list[str], label: str) -> None:
    for e in events:
        if e.kind in ("max", "min"):
            r = abs(traj.derivative(e.t))
            _check(r <= EVENT_RESIDUAL,
                   f"{label}: |Q'| = {r:.3e} at the {e.kind} at t={e.t}",
                   problems)
        else:
            r = abs(traj(e.t) - e.level)
            _check(r <= EVENT_RESIDUAL,
                   f"{label}: |Q - level| = {r:.3e} at t={e.t}", problems)


def check_manifest(outdir: str, prefix: str, code: int,
                   problems: list[str]) -> dict:
    man = read_json(os.path.join(outdir, f"{prefix}_manifest.json"))
    _check(man.get("exit_code") == code,
           f"manifest exit_code {man.get('exit_code')} != {code}", problems)
    for fname in man.get("outputs", []):
        _check(os.path.exists(os.path.join(outdir, fname)),
               f"manifest lists missing file {fname}", problems)
    return man


def calibrated(set_params: dict | None = None):
    from hsclab.model import derive_homeostasis, spec_from_dict

    p = derive_homeostasis(spec_from_dict(TABLE1))
    return p.with_(**set_params) if set_params else p


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    unit = ""
    pool_size = 12

    def pool(self, seed: int, confdir: str) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make_op(k, rng, confdir) for k in range(self.pool_size)]

    def make_op(self, key: int, rng: random.Random, confdir: str) -> Op:
        raise NotImplementedError

    def verify(self, op: Op, outdir: str, prefix: str, code: int
               ) -> tuple[list[str], dict]:
        """Gate one op's output files.  Returns (problems, record)."""
        raise NotImplementedError


def _write_config(confdir: str, name: str, cfg: dict) -> str:
    os.makedirs(confdir, exist_ok=True)
    path = os.path.join(confdir, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh, sort_keys=True)
    return path


class Sweep(Workload):
    """The fig13-orbit-diagram protocol on a jittered three-point tau mesh:
    up over [start, stop], then back down over the midpoints."""

    name = "sweep"
    unit = "points/s"
    N = 3
    SWEEP = {"vary": "tau", "n": N, "direction": "both",
             "transient": 50.0, "record": 6.0, "record_mode": "last"}

    def make_op(self, key, rng, confdir):
        start = 1.0 + 0.05 * rng.random()
        stop = 5.0 - 0.05 * rng.random()
        cfg = {"homeostasis": TABLE1, "set_params": {"kappa": 0.865},
               "sweep": dict(self.SWEEP, start=start, stop=stop)}
        path = _write_config(confdir, f"sweep_{key}.json", cfg)
        return Op(key, "sweep", ["sweep", "--config", path], 0,
                  units=2 * self.N - 1, spec={"start": start, "stop": stop})

    def verify(self, op, outdir, prefix, code):
        import numpy as np
        from hsclab.integrator import (History, find_extrema,
                                       history_from_trajectory, integrate)
        from hsclab.model import steady_state

        problems: list[str] = []
        man = check_manifest(outdir, prefix, code, problems)
        _check(man["summary"].get("n_failed") == 0, "sweep reports failed "
               "points", problems)
        p = calibrated({"kappa": 0.865})
        up = np.linspace(op.spec["start"], op.spec["stop"], self.N)
        down = (0.5 * (up[:-1] + up[1:]))[::-1]
        want: list[tuple] = []
        knots, coeffs = [], []
        for direction, mesh in (("increasing", up), ("decreasing", down)):
            prev = None
            for v in mesh:
                pv = p.with_(tau=float(v))
                if prev is not None:
                    hist = history_from_trajectory(prev, prev.t_end, pv.tau)
                elif steady_state(pv).nontrivial is None:
                    hist = History.constant(pv.tau, pv.theta)
                else:
                    hist = History.steady_state_perturbation(pv, 0.05)
                t_total = 56.0 * pv.tau
                traj = integrate(pv, hist, t_total)
                label = f"tau={v:.6f} {direction}"
                check_trajectory(traj, problems, label)
                evs = [e for e in find_extrema(traj, t_total - 6.0 * pv.tau,
                                               t_total)
                       if e.direction != "degenerate"]
                check_events(traj, evs, problems, label)
                picked = []
                for kind in ("max", "min"):
                    ofkind = [e for e in evs if e.kind == kind]
                    if ofkind:
                        picked.append((kind, ofkind[-1].value))
                if not picked:
                    q_end = float(traj(t_total))
                    picked = [("max", q_end), ("min", q_end)]
                want += [(float(v), direction, k, q) for k, q in picked]
                knots.append(traj.knots)
                coeffs.append(traj.coeffs)
                prev = traj
        header, rows = read_csv(os.path.join(outdir, f"{prefix}_orbit.csv"))
        _check(header == ["param", "direction", "kind", "Q"],
               f"orbit.csv header {header}", problems)
        _check(len(rows) == len(want),
               f"orbit.csv has {len(rows)} rows, replay {len(want)}", problems)
        for row, w in zip(rows, want):
            ok = (len(row) == 4 and row[1] == w[1] and row[2] == w[2]
                  and _close(float(row[0]), w[0], EVENT_TOL)
                  and _close(float(row[3]), w[3], EVENT_TOL))
            _check(ok, f"orbit.csv row {row} != replay {w}", problems)
        record = {
            "exact": {"knots_coeffs": sha256_arrays(*knots, *coeffs)},
            "close": {"extrema": ([w[3] for w in want], EVENT_TOL)},
            "labels": {"extrema": [f"{w[1]}:{w[2]}" for w in want]},
        }
        return problems, record


class ChaosEvents(Workload):
    """The fig15-transient-chaos simulate run, shortened, with an extremum
    and level-crossing event log and a dense trajectory CSV."""

    name = "chaos-events"
    unit = "days/s"
    T_END = 400.0
    LEVEL = 0.4
    SAMPLE_DT = 0.5

    def make_op(self, key, rng, confdir):
        amp = round(0.02 + 0.18 * rng.random(), 6)
        mode = rng.choice(("constant", "cosine"))
        hist = {"kind": "steady_state_perturbation", "amplitude": amp,
                "mode": mode}
        events = {"extrema": True,
                  "levels": [{"level": self.LEVEL, "direction": "both"}]}
        args = ["simulate", "--preset", "fig15-transient-chaos",
                "--set", f"simulate.t_end={self.T_END}",
                "--set", f"simulate.sample_dt={self.SAMPLE_DT}",
                "--set", "simulate.history=" + json.dumps(hist),
                "--set", "simulate.events=" + json.dumps(events)]
        return Op(key, "simulate", args, 0, units=self.T_END,
                  spec={"amplitude": amp, "mode": mode})

    def verify(self, op, outdir, prefix, code):
        import numpy as np
        from hsclab.integrator import (History, find_extrema,
                                       find_level_crossings, integrate)

        problems: list[str] = []
        check_manifest(outdir, prefix, code, problems)
        p = calibrated({"kappa": 0.68, "gamma": 0.0354608, "tau": 9.88888})
        hist = History.steady_state_perturbation(
            p, op.spec["amplitude"], op.spec["mode"])
        traj = integrate(p, hist, self.T_END)
        check_trajectory(traj, problems, "replay")
        evs = find_extrema(traj) + find_level_crossings(traj, self.LEVEL)
        evs.sort(key=lambda e: e.t)
        check_events(traj, evs, problems, "replay")

        traj_path = os.path.join(outdir, f"{prefix}_trajectory.csv")
        ts = np.arange(0.0, self.T_END + 1e-9, self.SAMPLE_DT)
        expect = "t,Q\n" + "".join(f"{_fmt(t)},{_fmt(q)}\n"
                                   for t, q in zip(ts, traj(ts)))
        with open(traj_path) as fh:
            _check(fh.read() == expect,
                   "trajectory.csv differs from the replayed solution",
                   problems)
        header, rows = read_csv(os.path.join(outdir, f"{prefix}_events.csv"))
        _check(header == ["t", "kind", "level", "direction"],
               f"events.csv header {header}", problems)
        _check(len(rows) == len(evs),
               f"events.csv has {len(rows)} rows, replay {len(evs)}", problems)
        for row, e in zip(rows, evs):
            ok = (len(row) == 4 and row[1] == e.kind
                  and _close(float(row[0]), e.t, EVENT_TOL))
            _check(ok, f"events.csv row {row} != replay ({e.t}, {e.kind})",
                   problems)
        record = {
            "exact": {"knots_coeffs": sha256_arrays(traj.knots, traj.coeffs),
                      "trajectory_csv": sha256_file(traj_path)},
            "close": {"event_times": ([e.t for e in evs], EVENT_TOL),
                      "event_values": ([e.value for e in evs], EVENT_TOL)},
            "labels": {"events": [f"{e.kind}:{e.direction}" for e in evs]},
        }
        return problems, record


class Lyapunov(Workload):
    """fig12-chaos with a short horizon: m=8, reorth 1, n_mesh 128.  The
    running estimates cannot settle in 100 days, so exit 4 (unconverged,
    data written) is the expected outcome."""

    name = "lyapunov"
    unit = "intervals/s"
    TAU = 3.9  # the fig12-chaos delay
    M, N_MESH, REORTH = 8, 128, 1.0
    HORIZON, TRANSIENT, WARMUP = 100.0, 100.0, 10.0

    def make_op(self, key, rng, confdir):
        amp = round(0.02 + 0.08 * rng.random(), 6)
        bundle_seed = rng.randrange(1_000_000)
        hist = {"kind": "steady_state_perturbation", "amplitude": amp}
        args = ["lyapunov", "--preset", "fig12-chaos",
                "--set", f"lyapunov.m={self.M}",
                "--set", f"lyapunov.n_mesh={self.N_MESH}",
                "--set", f"lyapunov.reorth={self.REORTH}",
                "--set", f"lyapunov.horizon={self.HORIZON}",
                "--set", f"lyapunov.transient={self.TRANSIENT}",
                "--set", f"lyapunov.bundle_warmup={self.WARMUP}",
                "--set", f"lyapunov.seed={bundle_seed}",
                "--set", "lyapunov.history=" + json.dumps(hist)]
        # intervals advanced: warm-up plus accumulation, each a whole number
        # of tau/n_mesh steps (the rule lyapunov_spectrum documents)
        h = self.TAU / self.N_MESH
        interval = max(1, round(self.REORTH / h)) * h
        n = math.ceil(self.WARMUP / interval) + math.ceil(self.HORIZON / interval)
        return Op(key, "lyapunov", args, 4, units=n,
                  spec={"amplitude": amp, "seed": bundle_seed})

    def verify(self, op, outdir, prefix, code):
        import numpy as np
        from hsclab.analysis import lyapunov_spectrum
        from hsclab.integrator import History, integrate

        problems: list[str] = []
        check_manifest(outdir, prefix, code, problems)
        p = calibrated({"kappa": 0.865, "tau": self.TAU})
        hist = History.steady_state_perturbation(p, op.spec["amplitude"])
        h = p.tau / self.N_MESH
        interval = max(1, round(self.REORTH / h)) * h
        n_int = op.units
        base = integrate(p, hist, self.TRANSIENT + n_int * interval + h)
        check_trajectory(base, problems, "base")
        spec = lyapunov_spectrum(p, hist, m=self.M, horizon=self.HORIZON,
                                 reorth=self.REORTH, transient=self.TRANSIENT,
                                 bundle_warmup=self.WARMUP,
                                 n_mesh=self.N_MESH, seed=op.spec["seed"],
                                 base=base)
        out = read_json(os.path.join(outdir, f"{prefix}_lyapunov.json"))
        got = [float(x) for x in out["exponents"]]
        _check(len(got) == self.M and all(map(math.isfinite, got)),
               f"exponents {got}", problems)
        _check(all(a >= b for a, b in zip(got, got[1:])),
               "exponents not sorted non-increasing", problems)
        _check(all(_close(a, b, EVENT_TOL)
                   for a, b in zip(got, spec.exponents)),
               f"exponents {got} != replay {list(spec.exponents)}", problems)
        _check(any(spec.unconverged)
               or out["kaplan_yorke"]["status"] != "ok",
               "exit 4 without an unconverged flag", problems)
        header, rows = read_csv(os.path.join(outdir, f"{prefix}_lyapunov.csv"))
        _check(header == ["t"] + [f"lambda_{i + 1}" for i in range(self.M)],
               f"lyapunov.csv header {header}", problems)
        last = [float(x) for x in rows[-1][1:]] if rows else []
        _check(len(last) == self.M and np.allclose(
                   last, spec.history[-1], rtol=0, atol=EVENT_TOL),
               "last lyapunov.csv row differs from the replay", problems)
        record = {
            "exact": {"knots_coeffs": sha256_arrays(base.knots, base.coeffs)},
            "close": {"exponents": (list(spec.exponents), EXPONENT_TOL)},
        }
        return problems, record


class Linear(Workload):
    """Linear-stability commands, which never call the integrator:
    stability and roots on parameter sets drawn from the property-ensemble
    ranges of the test suite, the kappa Hopf loci of the Table 1
    calibration, and slowman on fig10-canard.

    Most ops are stability runs, so the median and the tail both fall
    among them, away from the edges between op kinds of different cost.
    A hopf op (the costliest) comes once per 26 ops, so that fewer than ten
    run in a 20-second run and the tail stays among the stability ops."""

    name = "linear"
    unit = "ops/s"
    CYCLE = ("roots", "slowman", "stability", "stability", "stability") * 5 \
        + ("hopf",)
    pool_size = 8 * len(CYCLE)  # more than a run uses: every op is new

    @staticmethod
    def ensemble_params(rng: random.Random) -> dict:
        """Same ranges as ``random_valid_params`` in tests/conftest.py."""
        f = 10.0 ** rng.uniform(0.0, 1.3)
        theta = 10.0 ** rng.uniform(-2.0, 0.0)
        s = rng.uniform(1.2, 4.0)
        gamma = 10.0 ** rng.uniform(-2.0, -0.5)
        tau = rng.uniform(0.5, 8.0)
        if gamma * tau >= 0.9 * math.log(2.0):
            tau = 0.9 * math.log(2.0) / gamma
        a = 2.0 * math.exp(-gamma * tau)
        kappa = rng.uniform(0.02, 0.9) * f * (a - 1.0)
        return {"kappa": kappa, "gamma": gamma, "tau": tau, "theta": theta,
                "f": f, "s": s}

    def make_op(self, key, rng, confdir):
        kind = self.CYCLE[key % len(self.CYCLE)]
        if kind == "slowman":
            q_max = round(0.24 + 0.02 * rng.random(), 6)
            args = ["slowman", "--preset", "fig10-canard",
                    "--set", f"slowman.q_max={q_max}"]
            return Op(key, kind, args, 0, 1.0, {"q_max": q_max})
        if kind == "hopf":
            # jitter each end by up to half its distance to the nearest locus
            lo, hi = HOPF_WINDOW
            lo += 0.5 * (HOPF_LOCI[0][0] - lo) * rng.random()
            hi -= 0.5 * (hi - HOPF_LOCI[-1][0]) * rng.random()
            cfg = {"homeostasis": TABLE1,
                   "hopf": {"vary": "kappa", "lo": lo, "hi": hi,
                            "n_scan": 100}}
            spec = {}
        else:
            spec = {"params": self.ensemble_params(rng)}
            cfg = {"params": spec["params"], kind: {}}
        path = _write_config(confdir, f"linear_{key}.json", cfg)
        return Op(key, kind, [kind, "--config", path], 0, 1.0, spec)

    def verify(self, op, outdir, prefix, code):
        problems: list[str] = []
        check_manifest(outdir, prefix, code, problems)
        check = getattr(self, "_verify_" + op.command)
        record = check(op, outdir, prefix, problems)
        return problems, record

    def _verify_roots(self, op, outdir, prefix, problems):
        from hsclab import chareq
        from hsclab.model import params_from_dict, steady_state

        p = params_from_dict(op.spec["params"])
        c = chareq.coeffs_at(steady_state(p).nontrivial, p)
        header, rows = read_csv(os.path.join(outdir, f"{prefix}_roots.csv"))
        _check(header == ["re", "im", "residual", "kind"],
               f"roots.csv header {header}", problems)
        _check(len(rows) > 0, "no characteristic roots", problems)
        vals = []
        for row in rows:
            lam = complex(float(row[0]), float(row[1]))
            res = abs(chareq.char_value(c, lam)) / max(1.0, abs(lam))
            _check(res <= ROOT_RESIDUAL,
                   f"root {lam}: residual {res:.3e}", problems)
            vals += [lam.real, lam.imag]
        _check(vals[::2] == sorted(vals[::2], reverse=True),
               "roots not ordered by decreasing real part", problems)
        return {"close": {"roots": (vals, ROOT_TOL)},
                "labels": {"kinds": [r[3] for r in rows]}}

    def _verify_stability(self, op, outdir, prefix, problems):
        from hsclab import chareq
        from hsclab.model import existence_bounds, params_from_dict, steady_state

        p = params_from_dict(op.spec["params"])
        out = read_json(os.path.join(outdir, f"{prefix}_stability.json"))
        c = chareq.coeffs_at(steady_state(p).nontrivial, p)
        _check(_close(out["a"], c.a, 1e-12) and _close(out["b"], c.b, 1e-12),
               f"(a, b) = ({out['a']}, {out['b']}) != ({c.a}, {c.b})", problems)
        delays = out["critical_delays"]
        _check(delays["tau_max"] == existence_bounds(p)[1],
               "tau_max differs from existence_bounds", problems)
        vals = []
        for key in ("tau1_minus", "tau1_plus"):
            t1 = delays[key]
            if t1 is None:
                continue
            pt = p.with_(tau=t1)
            ct = chareq.coeffs_at(steady_state(pt).nontrivial, pt)
            gap = t1 - math.acos(-ct.a / ct.b) / math.sqrt(ct.b**2 - ct.a**2)
            _check(abs(gap) <= ROOT_TOL,
                   f"{key}={t1}: tau - tau1(a, b) = {gap:.3e}", problems)
            vals.append(t1)
        _, rows = read_csv(os.path.join(outdir, f"{prefix}_c0.csv"))
        _check(len(rows) == 257, f"c0.csv has {len(rows)} rows", problems)
        return {"close": {"critical_delays": (vals, ROOT_TOL)},
                "labels": {"state": [out["state"]]}}

    def _verify_hopf(self, op, outdir, prefix, problems):
        from hsclab import chareq
        from hsclab.model import steady_state

        p = calibrated()
        out = read_json(os.path.join(outdir, f"{prefix}_hopf.json"))
        pts = out["crossings"]
        _check(len(pts) == len(HOPF_LOCI),
               f"{len(pts)} Hopf points, the paper has {len(HOPF_LOCI)}",
               problems)
        vals = []
        for pt, (ref, sf) in zip(pts, HOPF_LOCI):
            v, w = pt["value"], pt["omega"]
            pv = p.with_(kappa=v)
            c = chareq.coeffs_at(steady_state(pv).nontrivial, pv)
            res = abs(chareq.char_value(c, complex(0.0, w)))
            _check(res <= ROOT_TOL, f"Hopf point kappa={v}: |p(i omega)| = "
                   f"{res:.3e}", problems)
            # one unit of the last printed digit, as tests/conftest.py allows
            tol = 1.02 * 10.0 ** (math.floor(math.log10(abs(ref))) - (sf - 1))
            _check(abs(v - ref) <= tol,
                   f"Hopf point kappa={v} vs printed {ref}", problems)
            vals += [v, w]
        return {"close": {"hopf": (vals, ROOT_TOL)}}

    def _verify_slowman(self, op, outdir, prefix, problems):
        from hsclab import slowman
        from hsclab.model import rhs

        p = calibrated({"gamma": 0.2453692})
        out = read_json(os.path.join(outdir, f"{prefix}_landmarks.json"))
        marks = slowman.landmarks(p)
        for key in ("Q_star", "Q_f", "switch", "rebound"):
            want = getattr(marks, key)
            ok = (out[key] is None) if want is None else \
                _close(out[key], want, 1e-12)
            _check(ok, f"landmark {key} {out[key]} != {want}", problems)
        _, rows = read_csv(os.path.join(outdir, f"{prefix}_slowman.csv"))
        _check(len(rows) == 200, f"slowman.csv has {len(rows)} rows", problems)
        _, rows = read_csv(os.path.join(outdir, f"{prefix}_nullcline.csv"))
        _check(len(rows) > 0, "empty nullcline", problems)
        worst = max((abs(rhs(float(r[0]), float(r[1]), p)) for r in rows),
                    default=0.0)
        _check(worst <= NULLCLINE_RESIDUAL,
               f"nullcline residual {worst:.3e}", problems)
        return {"close": {"landmarks": ([marks.Q_star, marks.Q_f], ROOT_TOL)}}


WORKLOADS = {w.name: w for w in (Sweep(), ChaosEvents(), Lyapunov(), Linear())}


def compare_record(record: dict, ref: dict) -> list[str]:
    """Differences between a gate record and the recorded reference."""
    problems = []
    for key, digest in ref.get("exact", {}).items():
        if record.get("exact", {}).get(key) != digest:
            problems.append(f"{key} is not bit-identical to the reference")
    for key, (want, tol) in ref.get("close", {}).items():
        got = record.get("close", {}).get(key, ([], tol))[0]
        if len(got) != len(want) or not all(
                _close(a, b, tol) for a, b in zip(got, want)):
            problems.append(f"{key} differs from the reference by more "
                            f"than {tol}")
    for key, want in ref.get("labels", {}).items():
        if record.get("labels", {}).get(key) != want:
            problems.append(f"{key} labels differ from the reference")
    return problems
