"""The benchmark's workloads: the CLI commands of one operation and their checks.

A workload is prepared once per process from the workload seed: it writes
the configs it needs and returns the argument lists of the CLI commands that
make up one operation, plus the check for that operation's output directory.
Every command gets the workload seed as `--seed`, so it also lands in each
CSV's metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

#: The reference source and two-level molecule of the shipped figure configs.
REF_PDC = {"pump_freq": 25000.0, "signal_center": 12000.0, "entanglement_time": 2.5, "gain": 0.15}
TWO_LEVEL = {"levels": [{"energy": 18000.0, "dipole": 1.0}, {"energy": 18500.0, "dipole": 1.0}]}
TIMES_100 = {"min": 0.0, "max": 100.0, "count": 2001}


@dataclass
class Plan:
    commands: list[list[str]]
    check: Callable[[Path], list[str]]


def _write(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return path


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _command(name: str, config: Path, seed: int) -> list[str]:
    return [name, "--config", str(config), "--seed", str(seed)]


def dynamics_fig2(shipped: Path, cfg_dir: Path, seed: int) -> Plan:
    """The shipped fig2 config: PDC and black-body trajectories, L=2, N=8192, T=2001."""
    path = shipped / "fig2.json"
    config = _load(path)
    return Plan(
        [_command("dynamics", path, seed)],
        lambda out: checks.check_dynamics(out, config, seed),
    )


def exact_field_grid(pdc: dict, time_span: float) -> dict:
    """The default exact-quadrature grid of the 512-herald average, named explicitly.

    Giving every herald the same grid keeps the work per operation the same
    whichever herald times the seed picks.
    """
    from pseudosun import PdcParams, default_field_grid

    field = default_field_grid(PdcParams(**pdc), time_span=time_span)
    return {"min": field.min, "max": field.max, "count": field.count}


#: A 4-parameter fit of the reference source to 5777 K over the visible band.
FIT = {
    "window": {"min": 14000.0, "max": 25000.0, "count": 401},
    "thermal": {"temperature": 5777.0},
    "initial": REF_PDC,
    "free_params": ["pump_freq", "signal_center", "entanglement_time", "gain"],
    "bounds": {
        "pump_freq": [24000.0, 26000.0],
        "signal_center": [10000.0, 14000.0],
        "entanglement_time": [1.5, 4.0],
        "gain": [0.05, 0.3],
    },
    "max_iters": 500,
    "tol": 1e-8,
    "report": "fit_report.txt",
    "output": "fit_spectrum.csv",
}


def herald_exact(shipped: Path, cfg_dir: Path, seed: int) -> Plan:
    """Exact-quadrature heralds at four seeded times, a 512-herald average, a
    coincidence, and the 4-parameter fit (so the fitting layer is measured)."""
    rng = np.random.default_rng([seed, 2])
    # One herald in each quarter of 15-90 fs, on a 0.25 fs lattice; 15 fs
    # leaves room for the pulse before it and 10 fs after 90 fs for the
    # post-pulse ratio.
    heralds = [15.0 + 18.75 * k + 0.25 * int(rng.integers(75)) for k in range(4)]
    field_grid = exact_field_grid(REF_PDC, TIMES_100["max"] + REF_PDC["entanglement_time"])
    common = {
        "molecule": TWO_LEVEL,
        "pdc": REF_PDC,
        "method": "exact_quadrature",
        "times": TIMES_100,
        "field_grid": field_grid,
    }
    config = {
        "heralded": dict(
            common,
            herald_times=heralds,
            normalization="max_diag",
            average={"samples": 512, "sampling": "uniform"},
            output_prefix="exact_heralded",
            average_output="exact_average.csv",
        ),
        "coincidence": dict(
            common, herald_time=heralds[int(rng.integers(4))], output="exact_coincidence.csv"
        ),
        "fit": FIT,
    }
    path = _write(cfg_dir / "herald_exact.json", config)
    return Plan(
        [
            _command("heralded", path, seed),
            _command("coincidence", path, seed),
            _command("fit", path, seed),
        ],
        lambda out: checks.check_herald_exact(out, config, seed),
    )


WORKLOADS = {
    "dynamics_fig2": dynamics_fig2,
    "herald_exact": herald_exact,
}
