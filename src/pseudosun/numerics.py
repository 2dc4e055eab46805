"""Unit conventions, uniform grids, and quadrature shared by every module.

Conventions used throughout the package:

- frequencies are wavenumbers in cm^-1,
- times are in femtoseconds,
- a phase omega*t is evaluated as 2*pi*C_CM_PER_FS*nu*t,
- a thermal exponent hbar*omega/(k_B*T) is evaluated as C2_CM_K*nu/T.

All quadrature is composite trapezoid on uniform, endpoint-inclusive grids;
integrals over frequency use the cm^-1 measure (constant 2*pi*c factors are
absorbed into output normalization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Speed of light in cm/fs (exact).
C_CM_PER_FS = 2.99792458e-5

#: Second radiation constant hc/k_B in cm*K.
C2_CM_K = 1.4387769

_SINC_TAYLOR_CUTOFF = 1e-4


def angular_frequency(wavenumber):
    """Phase rate in rad/fs for a wavenumber (or array of wavenumbers) in cm^-1."""
    return 2.0 * np.pi * C_CM_PER_FS * np.asarray(wavenumber, dtype=float)


def sinc(x):
    """Unnormalized sinc, sin(x)/x, total on the reals.

    Below |x| = 1e-4 the Taylor form 1 - x^2/6 + x^4/120 is used so the
    removable singularity never touches a division.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_TAYLOR_CUTOFF
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x * x / 6.0 + x**4 / 120.0, np.sin(safe) / safe)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class _UniformGrid:
    """Uniform, endpoint-inclusive grid; errors are prefixed with the concrete class name."""

    min: float
    max: float
    count: int

    def __post_init__(self):
        kind = type(self).__name__
        if not (np.isfinite(self.min) and np.isfinite(self.max)):
            raise ValidationError(f"{kind}: endpoints must be finite")
        if not self.max > self.min:
            raise ValidationError(f"{kind}: max ({self.max}) must exceed min ({self.min})")
        if int(self.count) != self.count or self.count < 2:
            raise ValidationError(f"{kind}: count must be an integer >= 2, got {self.count}")

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / (self.count - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class FrequencyGrid(_UniformGrid):
    """Uniform, endpoint-inclusive wavenumber grid in cm^-1 with min >= 0."""

    def __post_init__(self):
        super().__post_init__()
        if self.min < 0:
            raise ValidationError(
                f"FrequencyGrid: negative frequencies are rejected (min = {self.min})"
            )


@dataclass(frozen=True)
class TimeGrid(_UniformGrid):
    """Uniform, endpoint-inclusive time grid in fs."""


def trapezoid_weights(count: int, spacing: float) -> np.ndarray:
    """Composite trapezoid weights for a uniform grid (endpoints get spacing/2)."""
    w = np.full(count, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w
