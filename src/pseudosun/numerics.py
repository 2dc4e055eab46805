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
        shown = _shown(count)
        raise ValidationError(f"{name} must be an integer >= {low} and below 2**60, got {shown}")


def _shown(number):
    """number for a message: in short form, such as 4.07e+302, if finite and 2**60 or more in size.

    decimal rounds an int of any size; importing it with the module costs every run 0.4 MB.
    """
    from decimal import Decimal
    return f"{Decimal(int(number)):.3g}" if 2**60 <= abs(number) < inf else number


def _check_positive(name: str, value) -> None:
    """Reject a value that is not in (0, inf), nan included, naming it."""
    if not 0 < value < inf:
        raise ValidationError(f"{name} must be finite and > 0, got {value}")


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
    """Fourier-sum synthesizer F_k = sum_m c_m exp(-2 pi i (offset + step m) k), k < outputs.

    m runs over the inputs, and step and offset are in turns. A sum over a
    uniform frequency grid at the points of a uniform time grid, sum_n c_n
    exp(-i w_n k dtau), takes step = c dnu dtau and offset = c nu_min dtau
    (c = C_CM_PER_FS, see on), and the herald average's sums over the herald
    comb take their own steps, so one plan class serves both. With mk =
    (m^2 + k^2 - (k - m)^2) / 2 the sum is a convolution with the chirp
    exp(i pi step m^2) (Bluestein's chirp-z transform). The chirps and the FFT
    of the kernel are built once, at the smallest 2-3-5-smooth size >= inputs +
    outputs - 1; each call is then one FFT and one inverse FFT: O((N + T)
    log(N + T)) time and O(N + T) memory. On a 2-core Xeon box a smooth size
    was as fast as the fastest of its smooth neighbours and up to 1.7x faster
    than the next power of two. A plan is read-only data, so threads may share
    it. Both transforms run in the first size entries of a complex work buffer
    at least that long, which the caller owns and may reuse across calls,
    whatever it holds, and in which it may form the coefficients: allocating
    and freeing transform-sized arrays on every call made the allocator hand
    memory back and fault it in again, and 512 calls at the figure sizes took
    0.37 s instead of 0.27 s. The kernel is transformed in place, so a plan's
    set-up holds one size-long array. numpy's FFT still allocates
    scratch of about twice the transform size inside each transform, even
    with out= (seen as page faults; tracemalloc does not count it). The
    heralded field, the herald average and the unconditional dynamics all
    synthesize their sums here.
    """

    def __init__(self, step: float, inputs: int, outputs: int, offset: float = 0.0):
        k = np.arange(outputs, dtype=float)
        m = np.arange(inputs, dtype=float) if inputs >= outputs else k
        chirp = _phasor(0.5 * step, m * m)
        self.size = _fft_length(inputs + outputs - 1)
        self.pre = chirp[:inputs].conj()
        self.post = _phasor(-offset, k) * chirp[:outputs].conj()
        self.kernel = np.zeros(self.size, dtype=complex)
        self.kernel[:outputs] = chirp[:outputs]
        self.kernel[self.size - inputs + 1 :] = chirp[1:inputs][::-1]
        np.fft.fft(self.kernel, out=self.kernel)
        for table in (self.pre, self.post, self.kernel):
            table.flags.writeable = False

    @classmethod
    def on(cls, grid: FrequencyGrid, dtau: float, count: int) -> _ChirpZ:
        """The plan of sum_n c_n exp(-i w_n k dtau) over grid's frequencies, k < count."""
        offset = C_CM_PER_FS * grid.min * dtau
        return cls(C_CM_PER_FS * grid.spacing * dtau, grid.count, count, offset)

    def __call__(self, coefficients: np.ndarray, work: np.ndarray) -> np.ndarray:
        n, work = self.pre.size, work[: self.size]
        np.multiply(coefficients, self.pre, out=work[:n])
        work[n:] = 0
        np.fft.fft(work, out=work)
        work *= self.kernel
        np.fft.ifft(work, out=work)
        return self.post * work[: self.post.size]


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
