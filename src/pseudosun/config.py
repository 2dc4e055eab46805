"""JSON run configurations for the command-line interface.

A config file holds one top-level block per command, e.g.

    {"spectrum": {"grid": {...}, "pdc": {...}, "thermal": {...}}}

so a single file can drive several commands. Each block is read into a
frozen dataclass by one reader driven by the dataclass fields and their type
hints: a JSON object is a dataclass, whose keys are its fields, or a
dict[str, X] of free keys; a list is a tuple. A key is optional if and only
if its field has a default, and an absent key takes that default.

Parsing is strict: duplicate and unknown keys are rejected anywhere, so are
the non-standard literals NaN, Infinity and -Infinity and any non-finite
number, missing keys are reported with their full path, and all domain
invariants are enforced before any computation starts. An error raised by
a constructor is prefixed with the path of the block it was building.
Every output key holds a plain file name, and the files one command writes,
each CSV's gnuplot script included, have distinct names, so no run writes
outside its output directory or over its own tables.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import sys
import types
import typing
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import FieldError, ValidationError
from .fitting import FitProblem, _check_settings
from .heralded import FieldMethod, default_field_grid, field_span, herald_window
from .dynamics import MolecularSystem, NormalizationMode, _check_step
from .numerics import FrequencyGrid, TimeGrid
from .output import format_value, script_name
from .pdc import PdcParams, ThermalParams, thermal_mean

COMMANDS = ("spectrum", "fit", "dynamics", "heralded", "coincidence")


def example_config(name: str) -> Path:
    """Path of a config shipped with the package (fig1, fig2, fig3a, fig3b)."""
    path = resources.files("pseudosun").joinpath("configs", f"{name}.json")
    return Path(str(path))


class _NonFinite:
    """Placeholder the JSON reader puts where a file has NaN, Infinity or -Infinity."""

    def __init__(self, literal: str):
        self.literal = literal


def _unique_keys(pairs: list) -> dict:
    block = {}
    for key, value in pairs:
        if key in block:
            raise ValidationError(f"duplicate key '{key}'")
        block[key] = value
    return block


def _non_finite_error(value, where: str) -> str | None:
    """Message naming the path of the first non-finite literal in a parsed config."""
    if isinstance(value, _NonFinite):
        return f"{where}: non-finite number {value.literal} is not allowed"
    if isinstance(value, dict):
        children = ((f"{where}.{key}" if where else key, v) for key, v in value.items())
    elif isinstance(value, list):
        children = ((f"{where}[{k}]", v) for k, v in enumerate(value))
    else:
        return None
    for child_where, child in children:
        error = _non_finite_error(child, child_where)
        if error:
            return error
    return None


def load_config(path) -> dict:
    """Load a config file and check its top-level keys are command names."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, parse_constant=_NonFinite, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path}: invalid JSON ({exc})")
    except ValueError as exc:  # a duplicate key, non-UTF-8 bytes, an integer past the digit limit
        raise ValidationError(f"config {path}: {exc}")
    if not isinstance(raw, dict):
        raise ValidationError(f"config {path}: top level must be an object")
    error = _non_finite_error(raw, "")
    if error:
        raise ValidationError(f"config {path}: {error}")
    for key in raw:
        if key not in COMMANDS:
            raise ValidationError(f"config {path}: unknown top-level key '{key}'")
    return raw


def command_block(config: dict, command: str) -> dict:
    if command not in config:
        raise ValidationError(f"config has no '{command}' block")
    return config[command]


_EXPECTED = {float: "a number", int: "an integer", str: "a string"}


def _read(kind, value, where: str):
    """Build a value of the declared type `kind` from the JSON `value` at path `where`."""
    if dataclasses.is_dataclass(kind):
        return _read_block(kind, value, where)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        # Declared as X | None: an absent key takes the default, a present one must be an X.
        return _read(args[0], value, where)
    if origin is dict:
        if not isinstance(value, dict):
            raise ValidationError(f"{where}: must be an object")
        return {key: _read(args[1], v, f"{where}.{key}") for key, v in value.items()}
    if origin is tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{where}: expected a list, got {value!r}")
        kinds = (args[0],) * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(kinds):
            raise ValidationError(f"{where}: expected {len(kinds)} entries, got {len(value)}")
        return tuple(_read(k, v, f"{where}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    if issubclass(kind, enum.Enum):
        try:
            return kind(value)
        except ValueError:
            choices = ", ".join(member.value for member in kind)
            raise ValidationError(f"{where}: must be one of: {choices}; got {value!r}") from None
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValidationError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")
    if kind is float:
        # Compared, not converted, so an integer too large for a float is rejected too.
        if not abs(value) <= sys.float_info.max:
            raise ValidationError(f"{where}: must be finite, got {value}")
        return float(value)
    return value


def _read_block(cls, value, where: str):
    """Build the dataclass `cls` from the JSON object `value` at path `where`."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: must be an object")
    declared = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(value) - set(declared))
    if unknown:
        raise ValidationError(f"{where}: unknown key(s): {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for name, declaration in declared.items():
        if name in value:
            values[name] = _read(hints[name], value[name], f"{where}.{name}")
        elif declaration.default is dataclasses.MISSING:
            raise ValidationError(f"{where}.{name}: missing required key")
    try:
        return cls(**values)
    except FieldError as exc:
        raise ValidationError(f"{where}.{exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class Level:
    energy: float
    dipole: float


@dataclass(frozen=True)
class Molecule:
    """The molecule block: its levels as {energy, dipole} objects."""

    levels: tuple[Level, ...]
    system: MolecularSystem = field(init=False)

    def __post_init__(self):
        levels = tuple((level.energy, level.dipole) for level in self.levels)
        object.__setattr__(self, "system", MolecularSystem(levels))


def _check_thermal_grid(key: str, grid: FrequencyGrid) -> None:
    """The grid at key samples a black body, so it must start above 0."""
    if not grid.min > 0:
        raise FieldError(f"{key}.min: must be > 0 for a black-body spectrum, got {grid.min}")


def _check_normalization(molecule: Molecule, mode: NormalizationMode) -> None:
    """Every off-diagonal entry is proportional to mu_a mu_b, so two levels must be bright."""
    bright = sum(1 for level in molecule.levels if level.dipole)
    if mode is NormalizationMode.MAX_REPART_OFFDIAG and bright < 2:
        raise FieldError(
            f"normalization: max_repart_offdiag needs two levels with nonzero dipoles, got {bright}"
        )


def _check_heralds(config, heralds: dict[str, float], window: tuple[float, float] | None = None):
    """The rules on the heralds of a heralded or coincidence config, each naming its key.

    heralds maps each single herald's key to its time, and window is the average's (lo, hi).
    rect_approx takes no field_grid, and each pulse, nonzero within entanglement_time / 2,
    must reach a time. Without a field_grid exact_quadrature takes the default grid, which
    must exist at the field_span of each field source: a herald at the window's center,
    blamed on times, each herald, and the average.
    """
    method, pdc, times = config.method, config.pdc, config.times
    if method is FieldMethod.RECT_APPROX:
        if config.field_grid is not None:
            raise FieldError(
                "field_grid: only method exact_quadrature uses a field grid, got method rect_approx"
            )
        half = 0.5 * pdc.entanglement_time
        for key, herald in heralds.items():
            if not _reaches_a_time(times, herald, half):
                raise FieldError(
                    f"{key}: the {pdc.entanglement_time} fs rect_approx pulse heralded at "
                    f"{herald} fs reaches no time of times (all over {half} fs away), so the "
                    "molecule sees no light"
                )
        return
    if config.field_grid is not None:
        return
    try:
        default_field_grid(pdc)
    except ValidationError as exc:
        raise FieldError(
            f"pdc.entanglement_time: {pdc.entanglement_time} fs leaves no default field grid "
            f"around signal_center {pdc.signal_center} ({exc}); set field_grid"
        ) from None
    center = 0.5 * times.min + 0.5 * times.max
    spans = {key: field_span(times, t, t) for key, t in {"times": center, **heralds}.items()}
    if window is not None:
        spans["average"] = field_span(times, *window)
    for key, span in spans.items():
        try:
            default_field_grid(pdc, time_span=span)
        except ValidationError as exc:
            raise FieldError(
                f"{key}: a herald {span:.6g} fs from the far end of the window leaves no "
                f"default field grid ({exc}); set field_grid"
            ) from None


def _reaches_a_time(times: TimeGrid, herald: float, half: float) -> bool:
    """(abs(times.points - herald) <= half).any(), decided from at most three points.

    The points before the last rise with their index, so their distance to the herald is least
    at the last one not past it, found by bisection, or at the one after; the last point, max,
    is tried on its own.
    """
    lo, hi = -1, times.count - 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if times.point(mid) <= herald:
            lo = mid
        else:
            hi = mid - 1
    nearest = {max(lo, 0), min(lo + 1, times.count - 2), times.count - 1}
    return any(abs(times.point(k) - herald) <= half for k in nearest)


def _check_outputs(config, keys: tuple[str, ...], tables: list, texts=()) -> None:
    """The rules on the files one command writes, each error naming its key.

    Each of keys holds a plain file name: not empty, '.' or '..', and without
    '/' or NUL, so nothing is written outside the output directory. The CSVs
    in tables with their gnuplot scripts, and the files in texts, all given as
    (key, name), have distinct names, so no file is written over another.
    """
    for key in keys:
        name = getattr(config, key)
        if name in ("", ".", "..") or "/" in name or "\0" in name:
            raise FieldError(
                f"{key}: must be a plain file name (not empty, '.' or '..', no '/' or NUL), "
                f"got {name!r}"
            )
    written = []
    for key, name in tables:
        written += [(key, "CSV", name), (key, "plot script", script_name(name))]
    written += [(key, "file", name) for key, name in texts]
    owners = {}
    for key, role, name in written:
        if name in owners:
            raise FieldError(f"{key}: its {role} {name!r} is also the {owners[name]}")
        owners[name] = f"{role} of {key}"


@dataclass(frozen=True)
class SpectrumConfig:
    grid: FrequencyGrid
    pdc: PdcParams
    thermal: ThermalParams
    output: str = "spectrum.csv"

    def __post_init__(self):
        _check_thermal_grid("grid", self.grid)
        _check_outputs(self, ("output",), [("output", self.output)])


def parse_spectrum(block: dict) -> SpectrumConfig:
    return _read(SpectrumConfig, block, "spectrum")


@dataclass(frozen=True)
class FitConfig:
    window: FrequencyGrid
    thermal: ThermalParams
    initial: PdcParams
    free_params: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    max_iters: int = 500
    tol: float = 1e-8
    report: str = "fit_report.txt"
    output: str = "fit_spectrum.csv"
    problem: FitProblem = field(init=False)

    def __post_init__(self):
        _check_thermal_grid("window", self.window)
        _check_settings(self.max_iters, self.tol)
        _check_outputs(
            self, ("output", "report"), [("output", self.output)], [("report", self.report)]
        )
        target = thermal_mean(self.window, self.thermal)
        problem = FitProblem(self.window, target, self.free_params, self.initial, self.bounds)
        object.__setattr__(self, "problem", problem)


def parse_fit(block: dict) -> FitConfig:
    return _read(FitConfig, block, "fit")


@dataclass(frozen=True)
class _TrajectoryConfig:
    """The keys every trajectory command shares, the switch-on rule and the time-step rule."""

    molecule: Molecule
    pdc: PdcParams
    times: TimeGrid

    def __post_init__(self):
        if self.times.min < 0:
            raise FieldError("times.min: must be >= 0 (light switches on at t = 0)")
        _check_step(self.times)


@dataclass(frozen=True)
class DynamicsConfig(_TrajectoryConfig):
    grid: FrequencyGrid
    blackbody: ThermalParams | None = None
    normalization: NormalizationMode = NormalizationMode.MAX_REPART_OFFDIAG
    output: str = "dynamics_pdc.csv"
    blackbody_output: str = "dynamics_blackbody.csv"

    def __post_init__(self):
        super().__post_init__()
        _check_normalization(self.molecule, self.normalization)
        tables = [("output", self.output)]
        if self.blackbody is not None:
            _check_thermal_grid("grid", self.grid)
            tables.append(("blackbody_output", self.blackbody_output))
        _check_outputs(self, ("output", "blackbody_output"), tables)


def parse_dynamics(block: dict) -> DynamicsConfig:
    return _read(DynamicsConfig, block, "dynamics")


@dataclass(frozen=True)
class AverageSpec:
    """Settings of a herald average; heralded.herald_window holds their rules."""

    samples: int
    pad: float | None = None
    sampling: str = "uniform"


@dataclass(frozen=True)
class HeraldedConfig(_TrajectoryConfig):
    herald_times: tuple[float, ...]
    method: FieldMethod = FieldMethod.RECT_APPROX
    field_grid: FrequencyGrid | None = None
    normalization: NormalizationMode = NormalizationMode.MAX_DIAG
    average: AverageSpec | None = None
    output_prefix: str = "heralded"
    average_output: str = "heralded_average.csv"

    def __post_init__(self):
        if not self.herald_times:
            raise FieldError("herald_times: must list at least one herald time")
        if len(set(self.herald_times)) != len(self.herald_times):
            raise FieldError(f"herald_times: duplicate herald times in {list(self.herald_times)}")
        super().__post_init__()
        window = None
        if self.average is not None:
            try:
                window = herald_window(self.pdc, self.times, **vars(self.average))
            except ValidationError as exc:
                raise FieldError(f"average: {exc}") from None
        heralds = {f"herald_times[{k}]": t for k, t in enumerate(self.herald_times)}
        _check_heralds(self, heralds, window)
        _check_normalization(self.molecule, self.normalization)
        tables = [("output_prefix", self.herald_output(t)) for t in self.herald_times]
        if self.average is not None:
            tables.append(("average_output", self.average_output))
        _check_outputs(self, ("output_prefix", "average_output"), tables)

    def herald_output(self, herald_time: float) -> str:
        """Name of the CSV for one herald time: the time with '-' as 'm' and '.' as 'p'."""
        tag = format_value(herald_time).replace("-", "m").replace(".", "p")
        return f"{self.output_prefix}_ti{tag}.csv"


def parse_heralded(block: dict) -> HeraldedConfig:
    return _read(HeraldedConfig, block, "heralded")


@dataclass(frozen=True)
class CoincidenceConfig(_TrajectoryConfig):
    herald_time: float
    method: FieldMethod = FieldMethod.RECT_APPROX
    field_grid: FrequencyGrid | None = None
    output: str = "coincidence.csv"

    def __post_init__(self):
        super().__post_init__()
        _check_heralds(self, {"herald_time": self.herald_time})
        _check_outputs(self, ("output",), [("output", self.output)])


def parse_coincidence(block: dict) -> CoincidenceConfig:
    return _read(CoincidenceConfig, block, "coincidence")
