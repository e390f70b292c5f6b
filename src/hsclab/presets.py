"""Reproduction presets: named, fully resolved run configurations.

Each preset bundles a command, its configuration, and the reference targets
the run is expected to reproduce, which ``hsclab presets`` lists; a run's
manifest records the preset's name and config but not its targets.  Meshes
documented for the big orbit-diagram scans are generated here so
reduced-resolution variants stay proportional.
"""

from __future__ import annotations

import copy

import numpy as np

__all__ = ["catalog", "get_preset", "fig13_mesh", "snaking_mesh"]

TABLE1 = {"Q_h": 1.1, "beta_h": 0.043, "f": 8.0, "s": 2.0,
          "gamma": 0.1, "tau": 2.8}

_FIG13_PIECES = ((1.0, 3.4, 9121), (3.4, 4.4, 19000), (4.4, 5.0, 2281))


def fig13_mesh(n_total: int = 30400) -> tuple[np.ndarray, np.ndarray]:
    """The documented piecewise delay mesh (9121 + 19000 + 2281 points with
    shared joints, 30400 in total) plus the interleaved decreasing mesh.

    ``n_total`` scales the piece counts proportionally, keeping the density
    ratio between the three pieces.
    """
    scale = n_total / 30400.0
    up_parts = []
    for i, (a, b, n) in enumerate(_FIG13_PIECES):
        ni = max(2, int(round(n * scale)))
        seg = np.linspace(a, b, ni)
        up_parts.append(seg if i == 0 else seg[1:])
    up = np.concatenate(up_parts)
    down = (0.5 * (up[:-1] + up[1:]))[::-1]
    return up, down


def snaking_mesh(n: int = 2000) -> np.ndarray:
    """Decreasing mesh over the snaking interval of the three-parameter
    variant (gamma=0.15, kappa=0.2)."""
    return np.linspace(4.26197, 4.26219, n)[::-1]


_CATALOG: dict[str, dict] = {
    "fig1-stability-chart": {
        "command": "stability",
        "config": {"homeostasis": TABLE1,
                   "stability": {"n_c0": 257}},
        "targets": {"a": 0.020540, "b": -0.064298,
                    "tau1_minus": 5.74851, "tau1_plus": 6.87437,
                    "tau2": 6.87662, "tau_max": 6.90401},
    },
    "fig2-kappa-scan": {
        "command": "sweep",
        "config": {"homeostasis": TABLE1,
                   "sweep": {"vary": "kappa", "start": 0.03, "stop": 1.6,
                             "n": 400, "direction": "both",
                             "transient": 80.0, "record": 8.0,
                             "record_mode": "last"}},
        "targets": {"hopf_low": 0.17632, "hopf_high": 1.5317},
    },
    "fig5-gamma-scan": {
        "command": "sweep",
        "config": {"homeostasis": TABLE1,
                   "sweep": {"vary": "gamma", "start": 0.2, "stop": 0.2455,
                             "n": 300, "direction": "both",
                             "transient": 120.0, "record": 60.0,
                             "record_mode": "last"}},
        "targets": {"hopf_low": 0.227918, "hopf_high": 0.245375},
    },
    "fig7-tau-scan": {
        "command": "sweep",
        "config": {"homeostasis": TABLE1,
                   "sweep": {"vary": "tau", "start": 5.0, "stop": 6.9,
                             "n": 300, "direction": "both",
                             "transient": 120.0, "record": 40.0,
                             "record_mode": "last"}},
        "targets": {"hopf_low": 5.74851, "hopf_high": 6.87437},
    },
    "fig10-canard": {
        "command": "slowman",
        "config": {"homeostasis": TABLE1,
                   "set_params": {"gamma": 0.2453692},
                   "slowman": {"q_min": 0.005, "q_max": 0.25, "n": 200,
                               "nullcline_n": 200}},
        "targets": {"epsilon": 6.132e-3, "C": 2.23, "Q_star": 0.0896868,
                    "Q_f": 0.042263, "switch": 0.0893174,
                    "gap_lo": 0.08626, "gap_hi": 0.09389},
    },
    "fig11-torus": {
        "command": "lyapunov",
        "config": {"homeostasis": TABLE1,
                   "set_params": {"kappa": 0.961, "tau": 3.9},
                   # a 0.5% constant perturbation lands in the torus basin;
                   # larger ones reach the coexisting stable periodic orbit
                   "lyapunov": {"m": 8, "horizon": 30000.0, "reorth": 1.0,
                                "transient": 5000.0, "zero_tol": 2e-3,
                                "history": {"kind": "steady_state_perturbation",
                                            "amplitude": 0.005}},
                   "poincare": {"alpha": 0.0, "level": 0.14,
                                "direction": "up", "t_start": 6000.0}},
        "targets": {"lambda_1": 0.00052, "lambda_2": -0.00066,
                    "lambda_3": -0.0093, "kaplan_yorke": 2.0,
                    "horizon_days": 30000},
    },
    "fig12-chaos": {
        "command": "lyapunov",
        "config": {"homeostasis": TABLE1,
                   "set_params": {"kappa": 0.865, "tau": 3.9},
                   "lyapunov": {"m": 8, "horizon": 30000.0, "reorth": 1.0,
                                "transient": 2000.0, "zero_tol": 2e-3,
                                "history": {"kind": "steady_state_perturbation",
                                            "amplitude": 0.05}}},
        "targets": {"lambda_1": 0.0107, "kaplan_yorke": 2.11},
    },
    "chaos-tau407": {
        "command": "lyapunov",
        "config": {"homeostasis": TABLE1,
                   "set_params": {"kappa": 0.865, "tau": 4.07},
                   "lyapunov": {"m": 8, "horizon": 30000.0, "reorth": 1.0,
                                "transient": 2000.0, "zero_tol": 2e-3,
                                "history": {"kind": "steady_state_perturbation",
                                            "amplitude": 0.05}}},
        "targets": {"lambda_1": 0.03027, "kaplan_yorke": 2.268},
    },
    "hidim-chaos": {
        "command": "lyapunov",
        "config": {"homeostasis": TABLE1,
                   "set_params": {"kappa": 0.662, "gamma": 0.0354608,
                                  "tau": 9.88888},
                   "lyapunov": {"m": 12, "horizon": 30000.0, "reorth": 1.0,
                                "transient": 2000.0, "zero_tol": 2e-3,
                                "history": {"kind": "steady_state_perturbation",
                                            "amplitude": 0.05}}},
        "targets": {"lambda_1": 0.02444, "lambda_2": 0.008055,
                    "kaplan_yorke": 5.3},
    },
    "fig13-orbit-diagram": {
        "command": "sweep",
        "config": {"homeostasis": TABLE1,
                   "set_params": {"kappa": 0.865},
                   "sweep": {"vary": "tau", "mesh": "fig13",
                             "direction": "both",
                             "transient": 50.0, "record": 6.0,
                             "record_mode": "last"}},
        "targets": {"hopf_onset_low": 1.1364, "hopf_onset_high": 4.6841,
                    "folds": [2.4379, 2.4451, 4.3281, 4.4364],
                    "period_doublings": [3.1303, 4.3909, 4.4215, 4.5575],
                    "mesh_points": 30400},
    },
    "fig15-transient-chaos": {
        "command": "simulate",
        "config": {"homeostasis": TABLE1,
                   "set_params": {"kappa": 0.68, "gamma": 0.0354608,
                                  "tau": 9.88888},
                   "simulate": {"t_end": 15000.0, "sample_dt": 0.5,
                                "history": {"kind": "steady_state_perturbation",
                                            "amplitude": 0.05},
                                "events": {"extrema": True}}},
        "targets": {"final_period": 87.75},
    },
    "fig17-snaking-diagram": {
        "command": "sweep",
        "config": {"homeostasis": TABLE1,
                   "set_params": {"kappa": 0.2, "gamma": 0.15},
                   "sweep": {"vary": "tau", "mesh": "snaking",
                             "direction": "down",
                             "transient": 1530.0, "record": 170.0,
                             "record_mode": "all"}},
        "targets": {"fold": 4.262041,
                    "period_doublings": [4.261984, 4.262038, 4.262054,
                                         4.262184],
                    "mesh_points": 2000},
    },
    "phase-locked-3": {
        "command": "poincare",
        "config": {"homeostasis": TABLE1,
                   "set_params": {"kappa": 0.965, "tau": 3.9},
                   # seeded off the settled torus of the fig11 run; locking
                   # onto the 3-cycle needs a long transient
                   "simulate": {"t_end": 30000.0,
                                "history": {"kind": "carried",
                                            "vary": "kappa", "value": 0.961,
                                            "settle": 8000.0,
                                            "amplitude": 0.005}},
                   "poincare": {"alpha": 0.0, "level": 0.14,
                                "direction": "up", "t_start": 24000.0}},
        "targets": {"crossings_per_period": 3, "period": 38.3},
    },
    "phase-locked-7": {
        "command": "poincare",
        "config": {"homeostasis": TABLE1,
                   "set_params": {"kappa": 0.957, "tau": 3.9},
                   "simulate": {"t_end": 60000.0,
                                "history": {"kind": "carried",
                                            "vary": "kappa", "value": 0.961,
                                            "settle": 8000.0,
                                            "amplitude": 0.005}},
                   "poincare": {"alpha": 0.0, "level": 0.14,
                                "direction": "up", "t_start": 52000.0}},
        "targets": {"crossings_per_period": 7, "period": 90.5},
    },
}


def catalog() -> dict[str, dict]:
    """Deep copy of the preset catalog (callers may mutate their copy)."""
    return copy.deepcopy(_CATALOG)


def get_preset(name: str) -> dict:
    if name not in _CATALOG:
        raise KeyError(f"unknown preset {name!r}; see hsclab presets")
    return copy.deepcopy(_CATALOG[name])
