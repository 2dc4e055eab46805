"""Dynamics conditioned on detecting the partner photon at a known time.

Detecting the idler photon at herald_time collapses the signal beam into a
one-photon wavepacket whose effective field is either

- exact_quadrature: the frequency integral of the amplitude-weighted
  tanh(r) profile (evaluated on a wide sinc-lobe grid), or
- rect_approx: its analytic narrow-band limit, a rectangular pulse of
  duration entanglement_time carrying the signal-center phase, with edge
  value one half at exactly +/- half the duration.

The exact field F(t_k) = sum_n p_n exp(-i w_n (t_k - t_h)) is synthesized
by one chirp-z transform (Bluestein's algorithm on numpy.fft, the
numerics._ChirpZ synthesizer that the unconditional dynamics use too), since
both the frequencies and the times lie on uniform grids: O((N + T) log(N +
T)) time and O(N + T) memory for N frequencies and T times. The transform runs
over the steps k of the time grid; the herald enters only through its
coefficients, p_n exp(i w_n (t_h - t_0)) with t_0 the first time. A single
herald and a herald average take their field from one source, which picks
the method and the frequency grid and builds the transform once, so the
average is exactly the mean of the single-herald trajectories.

Since the conditioned field correlation factorizes, the conditioned
trajectory is an outer product of single-excitation amplitudes and is
exactly rank one. It is returned as a plain dynamics.DensityTrajectory, like
the herald average and the unheralded trajectory, so the rank-one defect is
read the same way on all three. One builder serves a single herald and a
herald average: it sums the upper-triangle products of each field's
amplitudes into one total, divides by the field count and makes the result
exactly Hermitian, as the unheralded trajectories are. The long-time closed
form, the impulsive (zero-duration) limit, herald-time averaging, and the
two-photon coincidence observable live here as well.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from math import ceil, isfinite

import numpy as np

from .errors import NormalizationError, NumericalError, ValidationError
from .numerics import (
    C_CM_PER_FS,
    FrequencyGrid,
    TimeGrid,
    _ChirpZ,
    angular_frequency,
    sinc,
    trapezoid_weights,
)
from .dynamics import (
    DensityTrajectory,
    MolecularSystem,
    _check_switch_on,
    _hermitian,
    _level_phasors,
)
from .pdc import PdcParams, squeeze_profile, vacuum_amplitude

#: Default integration window for the exact field: this many sinc lobes on
#: each side of the signal center (clipped at zero frequency), with at
#: least this many grid points per lobe.
DEFAULT_FIELD_LOBES = 50
DEFAULT_POINTS_PER_LOBE = 32


class FieldMethod(enum.Enum):
    EXACT_QUADRATURE = "exact_quadrature"
    RECT_APPROX = "rect_approx"


@dataclass(frozen=True)
class HeraldedField:
    """Complex effective-field samples on a time grid for one herald time."""

    times: TimeGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if amplitudes.shape != (self.times.count,):
            raise ValidationError(
                f"HeraldedField: expected {self.times.count} amplitudes, got {amplitudes.shape}"
            )
        object.__setattr__(self, "amplitudes", amplitudes)


def default_field_grid(params: PdcParams, time_span: float | None = None) -> FrequencyGrid:
    """Frequency window of DEFAULT_FIELD_LOBES sinc lobes each side, clipped at 0.

    A field sampled on a discrete frequency grid is periodic in time with
    period 1 / (c * spacing); when time_span is given the spacing is refined
    so that period exceeds twice the span, keeping the spurious revival of
    the pulse well outside the window of interest.
    """
    lobe_width = 1.0 / (C_CM_PER_FS * params.entanglement_time)
    lo = max(0.0, params.signal_center - DEFAULT_FIELD_LOBES * lobe_width)
    hi = params.signal_center + DEFAULT_FIELD_LOBES * lobe_width
    spacing = lobe_width / DEFAULT_POINTS_PER_LOBE
    if time_span is not None and time_span > 0:
        spacing = min(spacing, 1.0 / (C_CM_PER_FS * 2.0 * time_span))
    count = ceil((hi - lo) / spacing) + 1
    return FrequencyGrid(lo, hi, count)


def heralded_field(
    times: TimeGrid,
    herald_time: float,
    params: PdcParams,
    grid: FrequencyGrid | None = None,
    method: FieldMethod = FieldMethod.EXACT_QUADRATURE,
) -> HeraldedField:
    """Effective field seen by the molecule when the idler fires at herald_time.

    Both methods depend on time only through t - herald_time, so shifting the
    herald shifts the whole profile.
    """
    if not isfinite(herald_time):
        raise ValidationError(f"heralded_field: herald_time must be finite, got {herald_time}")
    field_at = _field_source(times, params, grid, method, herald_time, herald_time)
    return HeraldedField(times, field_at(herald_time))


def _field_source(
    times: TimeGrid,
    params: PdcParams,
    grid: FrequencyGrid | None,
    method: FieldMethod,
    first: float,
    last: float,
) -> Callable[[float], np.ndarray]:
    """The field on times as a function of the herald time, for heralds in [first, last].

    The default exact grid resolves the largest herald-to-window distance.
    """
    if method is FieldMethod.RECT_APPROX:
        points = times.points
        return lambda herald_time: _rect_field(points - herald_time, params)
    if method is not FieldMethod.EXACT_QUADRATURE:
        raise ValidationError(f"unknown field method {method!r}")
    if grid is None:
        grid = default_field_grid(params, time_span=max(times.max - first, last - times.min))
    profile = _field_profile(params, grid)
    omega = angular_frequency(grid.points)
    synthesize = _ChirpZ(grid, times.spacing, times.count)
    return lambda herald_time: synthesize(profile * np.exp(1j * omega * (herald_time - times.min)))


def _rect_field(delay: np.ndarray, params: PdcParams) -> np.ndarray:
    half = 0.5 * params.entanglement_time
    box = np.where(
        np.abs(delay) < half, 1.0, np.where(np.abs(delay) == half, 0.5, 0.0)
    )
    height = params.gain / (C_CM_PER_FS * params.entanglement_time)
    carrier = np.exp(-1j * angular_frequency(params.signal_center) * delay)
    return height * box * carrier


def _field_profile(params: PdcParams, grid: FrequencyGrid) -> np.ndarray:
    """Quadrature weights times the amplitude-weighted tanh of the squeeze profile."""
    nu = grid.points
    weights = trapezoid_weights(grid.count, grid.spacing)
    return (
        weights
        * vacuum_amplitude(nu, params.signal_center)
        * np.tanh(squeeze_profile(nu, params))
    )


def evolve_heralded(mol: MolecularSystem, field: HeraldedField) -> DensityTrajectory:
    """Rank-one trajectory driven by a heralded one-photon field.

    Populations sit at 0 before the pulse and stay constant after it;
    coherences keep rotating at the level splittings. Built as the herald
    average is, so each matrix is exactly Hermitian.
    """
    return _assemble(mol, field.times, [field.amplitudes], "evolve_heralded")


def _assemble(
    mol: MolecularSystem, times: TimeGrid, fields: Iterable[np.ndarray], caller: str
) -> DensityTrajectory:
    """Mean of the rank-one matrices phi phi^dagger over the fields, exactly Hermitian.

    phi is the dipole-weighted cumulative trapezoid response of each level to
    one field. Its products for a <= b go straight into one total, one field
    at a time, as a (n_times, L, L) array per field had the allocator fault in
    fresh pages for every herald. _hermitian fills in the lower triangle.
    """
    _check_switch_on(times, caller)
    phasors = _level_phasors(mol, times)
    weights = mol.dipoles[:, None] * phasors.conj()
    pairs = list(zip(*np.triu_indices(mol.size)))
    total = np.zeros((times.count, mol.size, mol.size), dtype=complex)
    for count, values in enumerate(fields, 1):
        phi = phasors * values[None, :]
        phi = np.cumsum(0.5 * times.spacing * (phi[:, 1:] + phi[:, :-1]), axis=1)
        phi = weights * np.concatenate([np.zeros((mol.size, 1), dtype=complex), phi], axis=1)
        conj = phi.conj()
        for a, b in pairs:
            total[:, a, b] += phi[a] * conj[b]
    return DensityTrajectory(times, _hermitian(total / count))


def long_time_closed_form(
    mol: MolecularSystem, params: PdcParams, t: float, herald_time: float
) -> np.ndarray:
    """Post-pulse density matrix in the narrow-band limit, largest diagonal scaled to 1.

    Valid once the pulse is over, t > herald_time + entanglement_time / 2.
    """
    if not t > herald_time + 0.5 * params.entanglement_time:
        raise ValidationError(
            "long_time_closed_form: requires t beyond the field support, "
            f"t > {herald_time + 0.5 * params.entanglement_time}, got {t}"
        )
    overlap = mol.dipoles * sinc(
        np.pi * C_CM_PER_FS * (mol.energies - params.signal_center) * params.entanglement_time
    )
    return _phase_rotated_outer(mol, overlap, t - herald_time)


def impulsive_limit(mol: MolecularSystem, t: float, herald_time: float) -> np.ndarray:
    """Zero-duration-pulse density matrix, largest diagonal scaled to 1."""
    return _phase_rotated_outer(mol, mol.dipoles, t - herald_time)


def _phase_rotated_outer(mol: MolecularSystem, overlap: np.ndarray, elapsed: float) -> np.ndarray:
    level_ang = angular_frequency(mol.energies)
    splitting = level_ang[:, None] - level_ang[None, :]
    matrix = np.outer(overlap, overlap) * np.exp(-1j * splitting * elapsed)
    peak = float(np.max(matrix.real.diagonal()))
    if not peak > 0:
        raise NormalizationError("closed form: all diagonal entries vanish, cannot normalize")
    return matrix / peak


def herald_pad(params: PdcParams, samples: int, pad: float | None, sampling: str) -> float:
    """Check the settings of a herald average and return its pad.

    samples must be a whole number >= 1 and sampling 'uniform' or 'random'.
    pad defaults to the entanglement time and must be finite and at least
    that long, so a pulse reaching into the window is sampled whole.
    """
    if not (samples >= 1 and float(samples).is_integer()):
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if sampling not in ("uniform", "random"):
        raise ValidationError(f"sampling must be 'uniform' or 'random', got {sampling!r}")
    if pad is None:
        return params.entanglement_time
    if not (isfinite(pad) and pad >= params.entanglement_time):
        raise ValidationError(
            "pad must be finite and at least the entanglement time "
            f"({params.entanglement_time} fs), got {pad}"
        )
    return pad


def average_over_heralds(
    mol: MolecularSystem,
    params: PdcParams,
    grid: FrequencyGrid | None,
    times: TimeGrid,
    herald_samples: int,
    method: FieldMethod = FieldMethod.EXACT_QUADRATURE,
    pad: float | None = None,
    sampling: str = "uniform",
    seed: int | None = None,
) -> DensityTrajectory:
    """Equal-weight average of heralded trajectories over sampled herald times.

    Herald times cover the trajectory window padded by at least the
    entanglement time on both sides: a deterministic uniform grid by default,
    or uniform random draws when sampling="random" (seeded). The accumulation
    order is fixed, so results are reproducible. With many samples the
    average converges to the unheralded trajectory. The fields go one at a
    time through the builder evolve_heralded uses, so the average is bit for
    bit the mean of the single-herald trajectories.
    """
    try:
        pad = herald_pad(params, herald_samples, pad, sampling)
    except ValidationError as exc:
        raise ValidationError(f"average_over_heralds: {exc}") from None
    lo, hi = times.min - pad, times.max + pad
    if sampling == "random":
        rng = np.random.default_rng(seed)
        herald_times = rng.uniform(lo, hi, int(herald_samples))
    elif herald_samples == 1:
        herald_times = np.array([0.5 * (lo + hi)])
    else:
        herald_times = np.linspace(lo, hi, int(herald_samples))

    field_at = _field_source(times, params, grid, method, lo, hi)
    return _assemble(mol, times, map(field_at, herald_times), "average_over_heralds")


def coincidence_signal(mol: MolecularSystem, trajectory: DensityTrajectory) -> np.ndarray:
    """Two-photon coincidence observable: the dipole quadratic form of the trajectory.

    Real by Hermiticity (constant prefactors are left to output
    normalization), so the real part is returned. Raises NumericalError when
    the largest |real part| is zero or not finite, or when the imaginary
    residue exceeds 1e-10 times it, which means the trajectory is not
    Hermitian.
    """
    mu = mol.dipoles
    raw = np.einsum("a,tab,b->t", mu, trajectory.matrices, mu)
    scale = np.max(np.abs(raw.real))
    if not (np.isfinite(scale) and scale > 0):
        raise NumericalError(f"coincidence: signal peak is zero or non-finite ({scale})")
    if not np.max(np.abs(raw.imag)) <= 1e-10 * scale:
        raise NumericalError("coincidence: signal has a non-negligible imaginary part")
    return raw.real
