"""Command-line interface.

    pseudosun <spectrum|fit|dynamics|heralded|coincidence> --config <path>
              [--out <dir>] [--seed <u64>]

Each command reads its block from the JSON config, computes, and writes CSV
files plus matching gnuplot scripts into the output directory. Exit codes:
0 success, 2 config or validation error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    COMMANDS,
    CoincidenceConfig,
    DynamicsConfig,
    FitConfig,
    HeraldedConfig,
    SpectrumConfig,
    command_block,
    load_config,
    parse_coincidence,
    parse_dynamics,
    parse_fit,
    parse_heralded,
    parse_spectrum,
)
from .errors import NumericalError, ValidationError
from .fitting import fit_objective, fit_pdc_to_thermal
from .heralded import (
    average_over_heralds,
    coincidence_signal,
    evolve_heralded,
    heralded_field,
)
from .dynamics import (
    DensityTrajectory,
    evolve_unconditional,
    normalize_trajectory,
)
from .output import format_value, metadata_lines, write_csv, write_gnuplot, write_text
from .pdc import mean_photon_number, thermal_mean

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3
_EXIT_IO = 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return _EXIT_CONFIG
    try:
        config = load_config(args.config)
        block = command_block(config, args.command)
        out_dir = Path(args.out)
        runner = _RUNNERS[args.command]
        runner(block, out_dir, args.seed)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosun",
        description="Sunlight-like photon statistics from CW down-conversion "
        "and the molecular dynamics they drive.",
    )
    parser.add_argument("--version", action="version", version=f"pseudosun {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "spectrum": "source vs. black-body mean photon number on a frequency grid",
        "fit": "fit source parameters to the black-body curve over a window",
        "dynamics": "unheralded excited-state trajectory (and black-body reference)",
        "heralded": "trajectories conditioned on idler detection times",
        "coincidence": "two-photon coincidence signal for one herald time",
    }
    for command in COMMANDS:
        sub = subparsers.add_parser(command, help=help_text[command])
        sub.add_argument("--config", required=True, help="JSON config file")
        sub.add_argument("--out", default=".", help="output directory (default: .)")
        sub.add_argument("--seed", type=int, default=None, help="seed for random herald sampling")
    return parser


def _check_finite(name: str, *arrays) -> None:
    for array in arrays:
        if not np.all(np.isfinite(array)):
            raise NumericalError(f"{name}: non-finite values in output")


def _trajectory_rows(traj: DensityTrajectory) -> tuple[list[str], np.ndarray]:
    """Column names and rows t_fs, re_rho_ab, im_rho_ab for all a <= b (1-based)."""
    dim = traj.dim
    columns = ["t_fs"]
    series = [traj.times.points]
    for a in range(dim):
        for b in range(a, dim):
            columns.append(f"re_rho_{a + 1}{b + 1}")
            series.append(traj.matrices[:, a, b].real)
            columns.append(f"im_rho_{a + 1}{b + 1}")
            series.append(traj.matrices[:, a, b].imag)
    return columns, np.column_stack(series)


def _emit(out_dir: Path, name: str, header, columns, rows, title: str, extra=None) -> None:
    csv_path = out_dir / name
    write_csv(csv_path, header, columns, rows, extra_header=extra)
    write_gnuplot(csv_path.with_suffix(".gp"), name, columns, title)


def _run_spectrum(block: dict, out_dir: Path, seed: int | None) -> None:
    config: SpectrumConfig = parse_spectrum(block)
    produced = mean_photon_number(config.grid, config.pdc)
    reference = thermal_mean(config.grid, config.thermal)
    _check_finite("spectrum", produced.values, reference.values)
    header = metadata_lines(__version__, "spectrum", block, seed)
    rows = np.column_stack([config.grid.points, produced.values, reference.values])
    _emit(
        out_dir,
        config.output,
        header,
        ["omega_cm1", "n_pdc", "n_thermal"],
        rows,
        "Mean photon number per mode",
    )


def _run_fit(block: dict, out_dir: Path, seed: int | None) -> None:
    config: FitConfig = parse_fit(block)
    baseline = fit_objective(config.problem.initial, config.problem)
    result = fit_pdc_to_thermal(config.problem, config.max_iters, config.tol)
    fitted = mean_photon_number(config.problem.window, result.params)
    target = thermal_mean(config.problem.window, config.problem.target)
    _check_finite("fit", fitted.values, target.values)

    header = metadata_lines(__version__, "fit", block, seed)
    report = list(header)
    report.append(f"converged: {'true' if result.converged else 'false'}")
    report.append(f"iterations: {result.iterations}")
    report.append(f"objective: {format_value(result.objective_value)}")
    report.append(f"initial_objective: {format_value(baseline)}")
    for name in ("pump_freq", "signal_center", "entanglement_time", "gain"):
        report.append(f"{name}: {format_value(getattr(result.params, name))}")
    report.append("trace:")
    for k, value in enumerate(result.trace):
        report.append(f"{k},{format_value(value)}")
    write_text(out_dir / config.report, "\n".join(report) + "\n")

    rows = np.column_stack([config.problem.window.points, fitted.values, target.values])
    _emit(
        out_dir,
        config.output,
        header,
        ["omega_cm1", "n_fit", "n_target"],
        rows,
        "Fitted source spectrum vs. target",
    )


def _run_dynamics(block: dict, out_dir: Path, seed: int | None) -> None:
    config: DynamicsConfig = parse_dynamics(block)
    header = metadata_lines(__version__, "dynamics", block, seed)
    spectrum = mean_photon_number(config.grid, config.pdc)
    traj = normalize_trajectory(
        evolve_unconditional(
            config.molecule, spectrum, config.times, amplitude_ref=config.pdc.signal_center
        ),
        config.normalization,
    )
    columns, rows = _trajectory_rows(traj)
    _check_finite("dynamics", rows)
    _emit(out_dir, config.output, header, columns, rows, "Excited-state dynamics (source light)")

    if config.blackbody is not None:
        reference = thermal_mean(config.grid, config.blackbody)
        traj_bb = normalize_trajectory(
            evolve_unconditional(
                config.molecule,
                reference,
                config.times,
                amplitude_ref=config.pdc.signal_center,
            ),
            config.normalization,
        )
        columns_bb, rows_bb = _trajectory_rows(traj_bb)
        _check_finite("dynamics (blackbody)", rows_bb)
        _emit(
            out_dir,
            config.blackbody_output,
            header,
            columns_bb,
            rows_bb,
            "Excited-state dynamics (black-body light)",
        )


def _herald_file_name(prefix: str, herald_time: float) -> str:
    tag = format_value(herald_time).replace("-", "m").replace(".", "p")
    return f"{prefix}_ti{tag}.csv"


def _run_heralded(block: dict, out_dir: Path, seed: int | None) -> None:
    config: HeraldedConfig = parse_heralded(block)
    header = metadata_lines(__version__, "heralded", block, seed)
    for herald_time in config.herald_times:
        field = heralded_field(
            config.times, herald_time, config.pdc, config.field_grid, config.method
        )
        traj = normalize_trajectory(evolve_heralded(config.molecule, field), config.normalization)
        columns, rows = _trajectory_rows(traj)
        _check_finite("heralded", rows)
        _emit(
            out_dir,
            _herald_file_name(config.output_prefix, herald_time),
            header,
            columns,
            rows,
            f"Heralded dynamics, herald at {format_value(herald_time)} fs",
            extra=[f"# t_i_fs: {format_value(herald_time)}"],
        )

    if config.average is not None:
        averaged = normalize_trajectory(
            average_over_heralds(
                config.molecule,
                config.pdc,
                config.field_grid,
                config.times,
                config.average.samples,
                method=config.method,
                pad=config.average.pad,
                sampling=config.average.sampling,
                seed=seed,
            ),
            config.normalization,
        )
        columns, rows = _trajectory_rows(averaged)
        _check_finite("heralded average", rows)
        _emit(
            out_dir,
            config.average_output,
            header,
            columns,
            rows,
            f"Herald-averaged dynamics ({config.average.samples} samples)",
        )


def _run_coincidence(block: dict, out_dir: Path, seed: int | None) -> None:
    config: CoincidenceConfig = parse_coincidence(block)
    field = heralded_field(
        config.times, config.herald_time, config.pdc, config.field_grid, config.method
    )
    signal = coincidence_signal(config.molecule, evolve_heralded(config.molecule, field))
    scale = float(np.max(np.abs(signal)))
    if not np.isfinite(scale) or scale <= 0:
        raise NumericalError("coincidence: signal is zero or non-finite, cannot normalize")
    signal = signal / scale
    _check_finite("coincidence", signal)
    header = metadata_lines(__version__, "coincidence", block, seed)
    rows = np.column_stack([config.times.points, signal])
    _emit(
        out_dir,
        config.output,
        header,
        ["t_fs", "S"],
        rows,
        f"Coincidence signal, herald at {format_value(config.herald_time)} fs",
    )


_RUNNERS = {
    "spectrum": _run_spectrum,
    "fit": _run_fit,
    "dynamics": _run_dynamics,
    "heralded": _run_heralded,
    "coincidence": _run_coincidence,
}


if __name__ == "__main__":
    sys.exit(main())
