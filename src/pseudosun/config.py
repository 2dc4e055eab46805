"""JSON run configurations for the command-line interface.

A config file holds one top-level block per command, e.g.

    {"spectrum": {"grid": {...}, "pdc": {...}, "thermal": {...}}}

so a single file can drive several commands. Parsing is strict: duplicate
and unknown keys are rejected anywhere, so are the non-standard literals
NaN, Infinity and -Infinity, missing keys are reported with their full
path, and all domain invariants are enforced before any computation starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import isfinite
from pathlib import Path

from .errors import ValidationError
from .fitting import PARAM_ORDER, FitProblem
from .heralded import FieldMethod
from .dynamics import MolecularSystem, NormalizationMode
from .numerics import FrequencyGrid, TimeGrid
from .pdc import PdcParams, ThermalParams

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
    except ValidationError as exc:
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
    block = config[command]
    if not isinstance(block, dict):
        raise ValidationError(f"'{command}' block must be an object")
    return block


_MISSING = object()


def _as_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"expected a number, got {value!r}")
    return float(value)


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {value!r}")
    return value


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"expected a string, got {value!r}")
    return value


def _as_list(value) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"expected a list, got {value!r}")
    return value


_CONVERTERS = {float: _as_float, int: _as_int, str: _as_str, list: _as_list}


class _Block:
    """Key-by-key reader that tracks its path and rejects leftovers."""

    def __init__(self, data: dict, where: str):
        if not isinstance(data, dict):
            raise ValidationError(f"{where}: must be an object")
        self._data = dict(data)
        self._where = where

    def take(self, key, kind, default=_MISSING):
        if key not in self._data:
            if default is _MISSING:
                raise ValidationError(f"{self._where}.{key}: missing required key")
            return default
        value = self._data.pop(key)
        converter = _CONVERTERS.get(kind, kind)
        try:
            return converter(value)
        except ValidationError as exc:
            raise ValidationError(f"{self._where}.{key}: {exc}")

    def sub(self, key, required=True):
        if key not in self._data:
            if required:
                raise ValidationError(f"{self._where}.{key}: missing required key")
            return None
        return _Block(self._data.pop(key), f"{self._where}.{key}")

    def finish(self):
        if self._data:
            extra = ", ".join(sorted(self._data))
            raise ValidationError(f"{self._where}: unknown key(s): {extra}")

    @property
    def where(self) -> str:
        return self._where


def _frequency_grid(block: _Block) -> FrequencyGrid:
    grid = FrequencyGrid(
        block.take("min", float), block.take("max", float), block.take("count", int)
    )
    block.finish()
    return grid


def _time_grid(block: _Block) -> TimeGrid:
    grid = TimeGrid(block.take("min", float), block.take("max", float), block.take("count", int))
    block.finish()
    return grid


def _pdc_params(block: _Block) -> PdcParams:
    params = PdcParams(
        pump_freq=block.take("pump_freq", float),
        signal_center=block.take("signal_center", float),
        entanglement_time=block.take("entanglement_time", float),
        gain=block.take("gain", float),
    )
    block.finish()
    return params


def _thermal_params(block: _Block) -> ThermalParams:
    params = ThermalParams(temperature=block.take("temperature", float))
    block.finish()
    return params


def _molecule(block: _Block) -> MolecularSystem:
    raw_levels = block.take("levels", list)
    block.finish()
    levels = []
    for k, entry in enumerate(raw_levels):
        level = _Block(entry, f"{block.where}.levels[{k}]")
        levels.append((level.take("energy", float), level.take("dipole", float)))
        level.finish()
    return MolecularSystem(tuple(levels))


def _normalization(value: str) -> NormalizationMode:
    try:
        return NormalizationMode(value)
    except ValueError:
        choices = ", ".join(mode.value for mode in NormalizationMode)
        raise ValidationError(f"normalization must be one of: {choices}; got {value!r}")


def _field_method(value: str) -> FieldMethod:
    try:
        return FieldMethod(value)
    except ValueError:
        choices = ", ".join(method.value for method in FieldMethod)
        raise ValidationError(f"method must be one of: {choices}; got {value!r}")


@dataclass(frozen=True)
class SpectrumConfig:
    grid: FrequencyGrid
    pdc: PdcParams
    thermal: ThermalParams
    output: str


def parse_spectrum(block: dict) -> SpectrumConfig:
    reader = _Block(block, "spectrum")
    config = SpectrumConfig(
        grid=_frequency_grid(reader.sub("grid")),
        pdc=_pdc_params(reader.sub("pdc")),
        thermal=_thermal_params(reader.sub("thermal")),
        output=reader.take("output", str, "spectrum.csv"),
    )
    reader.finish()
    return config


@dataclass(frozen=True)
class FitConfig:
    problem: FitProblem
    max_iters: int
    tol: float
    report: str
    output: str


def parse_fit(block: dict) -> FitConfig:
    reader = _Block(block, "fit")
    window = _frequency_grid(reader.sub("window"))
    thermal = _thermal_params(reader.sub("thermal"))
    initial = _pdc_params(reader.sub("initial"))
    free = reader.take("free_params", list)
    if not free:
        raise ValidationError("fit.free_params: must list at least one parameter")
    bounds_block = reader.sub("bounds")
    bounds = {}
    for name in PARAM_ORDER:
        pair = bounds_block.take(name, list, None)
        if pair is not None:
            if len(pair) != 2:
                raise ValidationError(f"fit.bounds.{name}: expected [lo, hi]")
            try:
                bounds[name] = (_as_float(pair[0]), _as_float(pair[1]))
            except ValidationError as exc:
                raise ValidationError(f"fit.bounds.{name}: {exc}")
    bounds_block.finish()
    config = FitConfig(
        problem=FitProblem(
            window=window,
            target=thermal,
            free_params=tuple(str(name) for name in free),
            initial=initial,
            bounds=bounds,
        ),
        max_iters=reader.take("max_iters", int, 500),
        tol=reader.take("tol", float, 1e-8),
        report=reader.take("report", str, "fit_report.txt"),
        output=reader.take("output", str, "fit_spectrum.csv"),
    )
    reader.finish()
    return config


@dataclass(frozen=True)
class DynamicsConfig:
    molecule: MolecularSystem
    pdc: PdcParams
    blackbody: ThermalParams | None
    grid: FrequencyGrid
    times: TimeGrid
    normalization: NormalizationMode
    output: str
    blackbody_output: str


def parse_dynamics(block: dict) -> DynamicsConfig:
    reader = _Block(block, "dynamics")
    blackbody_block = reader.sub("blackbody", required=False)
    config = DynamicsConfig(
        molecule=_molecule(reader.sub("molecule")),
        pdc=_pdc_params(reader.sub("pdc")),
        blackbody=_thermal_params(blackbody_block) if blackbody_block else None,
        grid=_frequency_grid(reader.sub("grid")),
        times=_time_grid(reader.sub("times")),
        normalization=reader.take(
            "normalization", _normalization, NormalizationMode.MAX_REPART_OFFDIAG
        ),
        output=reader.take("output", str, "dynamics_pdc.csv"),
        blackbody_output=reader.take("blackbody_output", str, "dynamics_blackbody.csv"),
    )
    reader.finish()
    if config.times.min < 0:
        raise ValidationError("dynamics.times.min: must be >= 0 (light switches on at t = 0)")
    return config


@dataclass(frozen=True)
class AverageSpec:
    samples: int
    pad: float | None
    sampling: str


def _average(block: _Block | None) -> AverageSpec | None:
    if block is None:
        return None
    spec = AverageSpec(
        samples=block.take("samples", int),
        pad=block.take("pad", float, None),
        sampling=block.take("sampling", str, "uniform"),
    )
    block.finish()
    if spec.samples < 1:
        raise ValidationError("heralded.average.samples: must be >= 1")
    if spec.pad is not None and not isfinite(spec.pad):
        raise ValidationError(f"heralded.average.pad: must be finite, got {spec.pad}")
    if spec.sampling not in ("uniform", "random"):
        raise ValidationError("heralded.average.sampling: must be 'uniform' or 'random'")
    return spec


@dataclass(frozen=True)
class HeraldedConfig:
    molecule: MolecularSystem
    pdc: PdcParams
    herald_times: tuple[float, ...]
    method: FieldMethod
    times: TimeGrid
    field_grid: FrequencyGrid | None
    normalization: NormalizationMode
    average: AverageSpec | None
    output_prefix: str
    average_output: str


def parse_heralded(block: dict) -> HeraldedConfig:
    reader = _Block(block, "heralded")
    raw_times = reader.take("herald_times", list)
    if not raw_times:
        raise ValidationError("heralded.herald_times: must list at least one herald time")
    try:
        herald_times = tuple(_as_float(t) for t in raw_times)
    except ValidationError as exc:
        raise ValidationError(f"heralded.herald_times: {exc}")
    if len(set(herald_times)) != len(herald_times):
        raise ValidationError(
            f"heralded.herald_times: duplicate herald times in {list(herald_times)}"
        )
    field_grid_block = reader.sub("field_grid", required=False)
    config = HeraldedConfig(
        molecule=_molecule(reader.sub("molecule")),
        pdc=_pdc_params(reader.sub("pdc")),
        herald_times=herald_times,
        method=reader.take("method", _field_method, FieldMethod.RECT_APPROX),
        times=_time_grid(reader.sub("times")),
        field_grid=_frequency_grid(field_grid_block) if field_grid_block else None,
        normalization=reader.take("normalization", _normalization, NormalizationMode.MAX_DIAG),
        average=_average(reader.sub("average", required=False)),
        output_prefix=reader.take("output_prefix", str, "heralded"),
        average_output=reader.take("average_output", str, "heralded_average.csv"),
    )
    reader.finish()
    if config.times.min < 0:
        raise ValidationError("heralded.times.min: must be >= 0 (light switches on at t = 0)")
    return config


@dataclass(frozen=True)
class CoincidenceConfig:
    molecule: MolecularSystem
    pdc: PdcParams
    herald_time: float
    method: FieldMethod
    times: TimeGrid
    field_grid: FrequencyGrid | None
    output: str


def parse_coincidence(block: dict) -> CoincidenceConfig:
    reader = _Block(block, "coincidence")
    field_grid_block = reader.sub("field_grid", required=False)
    config = CoincidenceConfig(
        molecule=_molecule(reader.sub("molecule")),
        pdc=_pdc_params(reader.sub("pdc")),
        herald_time=reader.take("herald_time", float),
        method=reader.take("method", _field_method, FieldMethod.RECT_APPROX),
        times=_time_grid(reader.sub("times")),
        field_grid=_frequency_grid(field_grid_block) if field_grid_block else None,
        output=reader.take("output", str, "coincidence.csv"),
    )
    reader.finish()
    if config.times.min < 0:
        raise ValidationError("coincidence.times.min: must be >= 0 (light switches on at t = 0)")
    return config
