"""Photon statistics of a CW-pumped down-conversion source.

The source is characterized by a frequency-dependent squeeze profile

    r(nu) = gain * sinc(pi * c * (nu - signal_center) * entanglement_time),

from which everything else follows: per-mode photon numbers obey the
geometric law P(n) = (1 - zeta) * zeta^n with zeta = tanh(r)^2, and the mean
photon number per mode is sinh(r)^2. A Bose-Einstein reference spectrum and
the square-root-of-frequency vacuum amplitude live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numerics import C2_CM_K, C_CM_PER_FS, FrequencyGrid, _check_count, _check_positive, sinc

#: Upper bound on the gain; keeps tanh(r)^2 < 1 so the geometric law is
#: normalizable. The sunlight-emulation regime sits far below it.
MAX_GAIN = np.pi / 2


@dataclass(frozen=True)
class PdcParams:
    """Down-conversion source parameters.

    pump_freq and signal_center in cm^-1, entanglement_time in fs, gain
    dimensionless. The idler center frequency is pump_freq - signal_center.
    pump_freq and entanglement_time must be finite and > 0, signal_center
    must lie in (0, pump_freq) and gain in (0, pi/2).
    """

    pump_freq: float
    signal_center: float
    entanglement_time: float
    gain: float

    def __post_init__(self):
        _check_positive("PdcParams: pump_freq", self.pump_freq)
        if not 0 < self.signal_center < self.pump_freq:
            raise ValidationError(
                "PdcParams: signal_center must lie in (0, pump_freq), got "
                f"{self.signal_center} vs pump {self.pump_freq}"
            )
        _check_positive("PdcParams: entanglement_time", self.entanglement_time)
        if not 0 < self.gain < MAX_GAIN:
            raise ValidationError(
                f"PdcParams: gain must lie in (0, pi/2), got {self.gain}"
            )

    @property
    def idler_center(self) -> float:
        return self.pump_freq - self.signal_center


@dataclass(frozen=True)
class CrystalParams:
    """Crystal length (mm) and group velocities (mm/fs) of pump, signal, idler.

    Each of the four must be finite and > 0.
    """

    length: float
    group_velocity_pump: float
    group_velocity_signal: float
    group_velocity_idler: float

    def __post_init__(self):
        for name in (
            "length",
            "group_velocity_pump",
            "group_velocity_signal",
            "group_velocity_idler",
        ):
            _check_positive(f"CrystalParams: {name}", getattr(self, name))


@dataclass(frozen=True)
class ThermalParams:
    """Black-body reference temperature in kelvin, finite and > 0."""

    temperature: float

    def __post_init__(self):
        _check_positive("ThermalParams: temperature", self.temperature)


@dataclass(frozen=True)
class PhotonSpectrum:
    """Mean photon number per mode sampled on a frequency grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.count,):
            raise ValidationError(
                f"PhotonSpectrum: expected {self.grid.count} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("PhotonSpectrum: values must be finite")
        if np.any(values < 0):
            raise ValidationError("PhotonSpectrum: values must be non-negative")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def squeeze_profile(omega, params: PdcParams):
    """Squeeze strength r at wavenumber omega; |r| is bounded by the gain."""
    phase = (
        np.pi
        * C_CM_PER_FS
        * (np.asarray(omega, dtype=float) - params.signal_center)
        * params.entanglement_time
    )
    return params.gain * sinc(phase)


def entanglement_time_from_crystal(crystal: CrystalParams) -> tuple[float, float, float]:
    """Group-delay differences (T_signal, T_idler) and their gap, the entanglement time."""
    transit_pump = crystal.length / crystal.group_velocity_pump
    t_signal = transit_pump - crystal.length / crystal.group_velocity_signal
    t_idler = transit_pump - crystal.length / crystal.group_velocity_idler
    return t_signal, t_idler, abs(t_signal - t_idler)


def squeeze_fraction(omega, params: PdcParams):
    """Geometric-law ratio zeta = tanh(r)^2 in [0, 1)."""
    return np.tanh(squeeze_profile(omega, params)) ** 2


def photon_number_pmf(omega: float, params: PdcParams, n_max: int) -> np.ndarray:
    """Probabilities of finding 0..n_max photons in the mode at omega.

    The tail mass beyond n_max equals zeta^(n_max + 1).
    """
    _check_count("photon_number_pmf: n_max", n_max, 0)
    zeta = float(squeeze_fraction(omega, params))
    return (1.0 - zeta) * zeta ** np.arange(int(n_max) + 1)


def mean_photon_number(grid: FrequencyGrid, params: PdcParams) -> PhotonSpectrum:
    """Mean photon number per mode, sinh(r)^2, sampled on the grid."""
    return PhotonSpectrum(grid, np.sinh(squeeze_profile(grid.points, params)) ** 2)


def thermal_mean(grid: FrequencyGrid, thermal: ThermalParams) -> PhotonSpectrum:
    """Bose-Einstein mean photon number on the grid; requires strictly positive frequencies."""
    if grid.min <= 0:
        raise ValidationError(
            "thermal_mean: grid must be strictly positive (Bose-Einstein diverges at 0), "
            f"got min = {grid.min}"
        )
    exponent = C2_CM_K * grid.points / thermal.temperature
    # expm1 overflows to inf for very cold targets; 1/inf = 0 is the right limit.
    with np.errstate(over="ignore"):
        return PhotonSpectrum(grid, 1.0 / np.expm1(exponent))


def vacuum_amplitude(omega, reference: float):
    """Dimensionless vacuum amplitude sqrt(omega / reference), unity at the reference."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ValidationError("vacuum_amplitude: omega must be non-negative")
    _check_positive("vacuum_amplitude: reference", reference)
    out = np.sqrt(omega / reference)
    if out.ndim == 0:
        return float(out)
    return out
