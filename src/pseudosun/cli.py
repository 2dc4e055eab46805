"""Command-line interface.

    pseudosun <spectrum|fit|dynamics|heralded|coincidence> --config <path>
              [--out <dir>] [--seed <u64>]

Each command reads its block from the JSON config, computes and normalizes
its tables, and only then writes them as CSV files plus matching gnuplot
scripts into the output directory, so a command that fails writes nothing.
Exit codes: 0 success, 2 config or validation error, 3 numerical failure,
4 I/O error, 5 out of memory. The computation runs with numpy's overflow and
invalid-operation warnings raised as errors, so an overflow ends the run as
one exit-3 line and no warning reaches stderr.

main, and never `import pseudosun`, first raises glibc's M_TRIM_THRESHOLD to
16 MiB and M_MMAP_THRESHOLD to 1 MiB through mallopt, once per process, so
the memory one array frees stays mapped for the next instead of going back
to the kernel and faulting in again. Where the C library has no mallopt it
does nothing, and the outputs are the same bytes either way. In one process
after a warm-up, a fig2 dynamics run faulted 400-1,250 times before (the
median of each process, which depends on its allocation history) and 0
after (0-8 in nearly every run), and an operation of the herald_exact
benchmark (exact heralds, a 512-herald average, a coincidence and a fit)
250-780 times before and 5-6 after (0-23). With the dynamics kernel cache, a
fig2 run in a fresh process faults 550 times in main, where it faulted 1,166
times.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    command_block,
    load_config,
    parse_coincidence,
    parse_dynamics,
    parse_fit,
    parse_heralded,
    parse_spectrum,
)
from .errors import NumericalError, ValidationError
from .fitting import PARAM_ORDER, fit_objective, fit_pdc_to_thermal
from .heralded import (
    average_over_heralds,
    coincidence_signal,
    evolve_heralded,
    heralded_field,
)
from .dynamics import (
    DensityTrajectory,
    NormalizationMode,
    evolve_unconditional,
    normalize_trajectory,
)
from .output import format_value, metadata_lines, script_name, write_csv, write_gnuplot, write_text
from .pdc import mean_photon_number, thermal_mean

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3
_EXIT_IO = 4
_EXIT_MEMORY = 5


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return _EXIT_CONFIG
    try:
        block = command_block(load_config(args.config), args.command)
        with np.errstate(over="raise", invalid="raise"):
            writers = _RUNNERS[args.command](block, args.seed)
        header = metadata_lines(__version__, args.command, block, args.seed)
        for write in writers:
            write(Path(args.out), header)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except FloatingPointError as exc:
        print(f"numerical failure: {args.command}: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {args.command}: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return _EXIT_MEMORY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    return _EXIT_OK


#: glibc's mallopt parameters, from malloc.h, and the values main sets.
_M_TRIM_THRESHOLD, _TRIM_THRESHOLD = -1, 16 << 20
_M_MMAP_THRESHOLD, _MMAP_THRESHOLD = -3, 1 << 20


@functools.cache
def _keep_freed_memory() -> None:
    """Once per process, have glibc keep freed memory for the next array instead of unmapping it.

    By default glibc gives a freed heap top back to the kernel and maps larger
    blocks afresh, so each array of the next computation faults its pages in
    again. Where the C library has no mallopt, this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosun",
        description="Sunlight-like photon statistics from CW down-conversion "
        "and the molecular dynamics they drive.",
    )
    parser.add_argument("--version", action="version", version=f"pseudosun {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, runner in _RUNNERS.items():
        sub = subparsers.add_parser(command, help=runner.__doc__)
        sub.add_argument("--config", required=True, help="JSON config file")
        sub.add_argument("--out", default=".", help="output directory (default: .)")
        sub.add_argument("--seed", type=int, default=None, help="seed for random herald sampling")
    return parser


def _table(name: str, columns: list[str], rows: np.ndarray, title: str, extra=()):
    """Writer of one CSV and the gnuplot script that plots it; the rows must be finite."""
    if not np.all(np.isfinite(rows)):
        raise NumericalError(f"{name}: non-finite values in output")

    def write(out_dir: Path, header: list[str]) -> None:
        write_csv(out_dir / name, header + list(extra), columns, rows)
        write_gnuplot(out_dir / script_name(name), name, columns, title)

    return write


def _trajectory_table(
    name: str, traj: DensityTrajectory, mode: NormalizationMode, title: str, extra=()
):
    """Normalize the trajectory by mode; columns t_fs, re_rho_ab, im_rho_ab for a <= b (1-based)."""
    traj = normalize_trajectory(traj, mode)
    dim = traj.dim
    columns = ["t_fs"]
    series = [traj.times.points]
    for a in range(dim):
        for b in range(a, dim):
            columns.append(f"re_rho_{a + 1}{b + 1}")
            series.append(traj.matrices[:, a, b].real)
            columns.append(f"im_rho_{a + 1}{b + 1}")
            series.append(traj.matrices[:, a, b].imag)
    return _table(name, columns, np.column_stack(series), title, extra)


def _run_spectrum(block: dict, seed: int | None) -> list[Callable]:
    """Source vs. black-body mean photon number on a frequency grid."""
    config = parse_spectrum(block)
    produced = mean_photon_number(config.grid, config.pdc)
    reference = thermal_mean(config.grid, config.thermal)
    rows = np.column_stack([config.grid.points, produced.values, reference.values])
    columns = ["omega_cm1", "n_pdc", "n_thermal"]
    return [_table(config.output, columns, rows, "Mean photon number per mode")]


def _run_fit(block: dict, seed: int | None) -> list[Callable]:
    """Fit source parameters to the black-body curve over a window."""
    config = parse_fit(block)
    problem = config.problem
    baseline = fit_objective(problem.initial, problem)
    result = fit_pdc_to_thermal(problem, config.max_iters, config.tol)
    fitted = mean_photon_number(problem.window, result.params)

    report = [
        f"converged: {'true' if result.converged else 'false'}",
        f"iterations: {result.iterations}",
        f"objective: {format_value(result.objective_value)}",
        f"initial_objective: {format_value(baseline)}",
    ]
    for name in PARAM_ORDER:
        report.append(f"{name}: {format_value(getattr(result.params, name))}")
    report.append("trace:")
    for k, value in enumerate(result.trace):
        report.append(f"{k},{format_value(value)}")

    def write_report(out_dir: Path, header: list[str]) -> None:
        write_text(out_dir / config.report, "\n".join(header + report) + "\n")

    rows = np.column_stack([problem.window.points, fitted.values, problem.target.values])
    columns = ["omega_cm1", "n_fit", "n_target"]
    return [write_report, _table(config.output, columns, rows, "Fitted source spectrum vs. target")]


def _run_dynamics(block: dict, seed: int | None) -> list[Callable]:
    """Unheralded excited-state trajectory (and black-body reference)."""
    config = parse_dynamics(block)
    molecule = config.molecule.system
    lights = [(config.output, "source", mean_photon_number(config.grid, config.pdc), "pdc")]
    if config.blackbody is not None:
        reference = thermal_mean(config.grid, config.blackbody)
        lights.append((config.blackbody_output, "black-body", reference, "blackbody.temperature"))
    for _, light, spectrum, key in lights:
        if not np.any(spectrum.values):
            raise ValidationError(
                f"dynamics.{key}: the {light} spectrum is 0 at every point of dynamics.grid"
            )
    tables = []
    for name, light, spectrum, _ in lights:
        traj = evolve_unconditional(
            molecule, spectrum, config.times, amplitude_ref=config.pdc.signal_center
        )
        title = f"Excited-state dynamics ({light} light)"
        tables.append(_trajectory_table(name, traj, config.normalization, title))
    return tables


def _heralded_trajectory(config, herald_time: float) -> DensityTrajectory:
    """The raw trajectory of config's molecule under its field heralded at herald_time."""
    field = heralded_field(config.times, herald_time, config.pdc, config.field_grid, config.method)
    return evolve_heralded(config.molecule.system, field)


def _run_heralded(block: dict, seed: int | None) -> list[Callable]:
    """Trajectories conditioned on idler detection times."""
    config = parse_heralded(block)
    if config.average is not None and config.average.sampling == "random" and seed is None:
        raise ValidationError(
            "heralded.average.sampling: random sampling needs --seed, so that a rerun "
            "writes the same average"
        )
    tables = []
    for herald_time in config.herald_times:
        traj = _heralded_trajectory(config, herald_time)
        tag = format_value(herald_time)
        title = f"Heralded dynamics, herald at {tag} fs"
        extra = (f"# t_i_fs: {tag}",)
        name = config.herald_output(herald_time)
        tables.append(_trajectory_table(name, traj, config.normalization, title, extra))

    if config.average is not None:
        averaged = average_over_heralds(
            config.molecule.system,
            config.pdc,
            config.field_grid,
            config.times,
            config.average.samples,
            method=config.method,
            pad=config.average.pad,
            sampling=config.average.sampling,
            seed=seed,
        )
        title = f"Herald-averaged dynamics ({config.average.samples} samples)"
        name = config.average_output
        tables.append(_trajectory_table(name, averaged, config.normalization, title))
    return tables


def _run_coincidence(block: dict, seed: int | None) -> list[Callable]:
    """Two-photon coincidence signal for one herald time."""
    config = parse_coincidence(block)
    traj = _heralded_trajectory(config, config.herald_time)
    rows = np.column_stack([config.times.points, coincidence_signal(config.molecule.system, traj)])
    title = f"Coincidence signal, herald at {format_value(config.herald_time)} fs"
    return [_table(config.output, ["t_fs", "S"], rows, title)]


#: Every command, in the order --help lists them; each runner's docstring is its help.
_RUNNERS = {
    "spectrum": _run_spectrum,
    "fit": _run_fit,
    "dynamics": _run_dynamics,
    "heralded": _run_heralded,
    "coincidence": _run_coincidence,
}


if __name__ == "__main__":
    sys.exit(main())
