"""Unit conventions, uniform grids, quadrature and the chirp-z Fourier-sum synthesizer.

Conventions used throughout the package:

- frequencies are wavenumbers in cm^-1,
- times are in femtoseconds,
- a phase omega*t is evaluated as 2*pi*C_CM_PER_FS*nu*t,
- a thermal exponent hbar*omega/(k_B*T) is evaluated as C2_CM_K*nu/T.

All quadrature is composite trapezoid on uniform, endpoint-inclusive grids;
integrals over frequency use the cm^-1 measure (constant 2*pi*c factors are
absorbed into output normalization). A Fourier sum sum_n c_n exp(-i w_n t)
over a uniform frequency grid, wanted at every point of a uniform time grid,
is one chirp-z transform (_ChirpZ), for the heralded field and the
unconditional dynamics alike.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from math import frexp, inf, ldexp

import numpy as np

from .errors import ValidationError

#: Speed of light in cm/fs (exact).
C_CM_PER_FS = 2.99792458e-5

#: Second radiation constant hc/k_B in cm*K.
C2_CM_K = 1.4387769


def angular_frequency(wavenumber):
    """Phase rate in rad/fs for a wavenumber (or array of wavenumbers) in cm^-1."""
    return 2.0 * np.pi * C_CM_PER_FS * np.asarray(wavenumber, dtype=float)


def sinc(x):
    """Unnormalized sinc, sin(x)/x, total on the reals: 1.0 at +0 and -0.

    Every nonzero x takes the quotient, which for small |x| is already
    within about an ulp of the true value, so only an exact zero needs the
    limit. It allocates the result, the sine and the boolean mask.
    """
    x = np.asarray(x, dtype=float)
    out = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
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
        _check_count(f"{kind}: count", self.count, 2)

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / (self.count - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)

    def point(self, k: int) -> float:
        """points[k] without the array, computed as np.linspace computes it: max for the last."""
        if k == self.count - 1:
            return self.max
        if self.spacing == 0:
            # np.linspace's path for a spacing that underflows to 0.
            return float(k) / float(self.count - 1) * (self.max - self.min) + self.min
        return float(k) * self.spacing + self.min


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


def _check_count(name: str, count, low: int) -> None:
    """Reject a count that is not a whole number in [low, 2**60), naming it.

    Below 2**60 points a float64 array takes under 2**63 bytes, which numpy can
    address. The range test comes first, so int() never sees an inf or nan
    count, and an integer of any size is compared exactly, never through float().
    """
    if not low <= count < 2**60 or int(count) != count:
        # A finite count past the limit is quoted in short form, such as 4.07e+302, by decimal,
        # which rounds an int of any size; importing it with the module costs every run 0.4 MB.
        from decimal import Decimal
        shown = f"{Decimal(int(count)):.3g}" if 2**60 <= count < inf else count
        raise ValidationError(f"{name} must be an integer >= {low} and below 2**60, got {shown}")


def trapezoid_weights(count: int, spacing: float) -> np.ndarray:
    """Composite trapezoid weights for a uniform grid (endpoints get spacing/2)."""
    w = np.full(count, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a transform length numpy.fft handles at full speed."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


class _ChirpZ:
    """Fourier-sum synthesizer F_k = sum_n c_n exp(-i w_n k dtau), k < count.

    w_n runs over the uniform grid, so with nk = (n^2 + k^2 - (k - n)^2) / 2
    the sum is a convolution with the chirp exp(i dw dtau m^2 / 2)
    (Bluestein's chirp-z transform). The chirps and the FFT of the kernel
    are built once, at the smallest 2-3-5-smooth size >= N + count - 1; each
    call is then one FFT and one inverse FFT: O((N + T) log(N + T)) time and
    O(N + T) memory. On a 2-core Xeon box a smooth size was as fast as the
    fastest of its smooth neighbours and up to 1.7x faster than the next
    power of two. Both transforms write their result into one work buffer
    kept across calls (so calls must not overlap): allocating and freeing
    transform-sized arrays on every call made the allocator hand memory
    back and fault it in again, and 512 calls at the figure sizes took
    0.37 s instead of 0.27 s. numpy's FFT still allocates scratch of about
    twice the transform size inside each transform, even with out= (seen
    as page faults; tracemalloc does not count it). The heralded field and
    the unconditional dynamics both synthesize their sums here; the
    dynamics keep one plan across calls and give each call a twin of it.
    """

    def __init__(self, grid: FrequencyGrid, dtau: float, count: int):
        k = np.arange(count, dtype=float)
        m = np.arange(grid.count, dtype=float) if grid.count >= count else k
        step = C_CM_PER_FS * grid.spacing
        offset = C_CM_PER_FS * grid.min
        chirp = _phasor(0.5 * step * dtau, m * m)
        self.size = _fft_length(grid.count + count - 1)
        self.count = count
        self.pre = chirp[: grid.count].conj()
        self.post = _phasor(-offset * dtau, k) * chirp[:count].conj()
        kernel = np.zeros(self.size, dtype=complex)
        kernel[:count] = chirp[:count]
        kernel[self.size - grid.count + 1 :] = chirp[1 : grid.count][::-1]
        self.kernel = np.fft.fft(kernel)
        self.work = np.empty(self.size, dtype=complex)

    def __call__(self, coefficients: np.ndarray) -> np.ndarray:
        work, n = self.work, self.pre.size
        np.multiply(coefficients, self.pre, out=work[:n])
        work[n:] = 0
        np.fft.fft(work, out=work)
        work *= self.kernel
        np.fft.ifft(work, out=work)
        return self.post * work[: self.count]

    def twin(self) -> _ChirpZ:
        """A synthesizer on this one's tables with a work buffer of its own."""
        twin = copy.copy(self)
        twin.work = np.empty(self.size, dtype=complex)
        return twin


def _phasor(turns: float, steps: np.ndarray) -> np.ndarray:
    """exp(2 pi i turns steps) for whole-number steps >= 0, whole turns removed exactly.

    The chirp phase grows as m^2, far past where radians keep their last
    digits. turns is split into a head short enough that head * steps is
    exact in float64, so its whole turns drop out exactly, and a tail small
    enough that tail * steps stays accurate.
    """
    bits = 52 - int(steps[-1]).bit_length()
    exponent = frexp(turns)[1]
    head = ldexp(round(ldexp(turns, bits - exponent)), exponent - bits)
    phase = head * steps
    phase -= np.floor(phase)
    phase += (turns - head) * steps
    return np.exp(2j * np.pi * phase)
