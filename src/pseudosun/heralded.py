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
coefficients, p_n exp(i w_n (t_h - t_0)) with t_0 the first time. With
B = ceil(sqrt(N)) and n = q B + r the phase factorizes exactly,
exp(i w_n s) = exp(i (w_min + q B dw) s) exp(i r dw s), so a herald costs
about 2 sqrt(N) exponentials (a coarse and a fine phase table), two
broadcast multiplies of N values into one coefficient buffer kept by the
source, and one transform pair. The field is within 1e-11 of its peak of
the one taken with an exponential per frequency, and the phase within a
factor 2 of its error against an extended-precision reference. A single
herald and a herald average take their field from one source, which picks
the method and the frequency grid and builds the tables, the buffer and the
transform once.

Since the profile p_n is real, conj(F(t_{T-1-k})) is the field at t_k of
the herald reflected through the window's centre, at
t_h' = 2 t_0 + (T - 1) dt - t_h. A uniform herald average places its
heralds symmetrically about that centre, so one transform serves herald j
and its mirror J-1-j: ceil(J/2) transforms for J heralds. The mirror
herald sits at the reflected time, within 1.4e-14 fs of linspace's, and
its field is within 6.6e-12 of its peak of the one computed there directly
(512 heralds on 0-100 fs). The average is exactly the mean of the
single-herald trajectories of those fields. Random herald times have no
mirrors and take one transform each.

Since the conditioned field correlation factorizes, the conditioned
trajectory is an outer product of single-excitation amplitudes and is
exactly rank one. It is returned as a plain dynamics.DensityTrajectory, like
the herald average and the unheralded trajectory, so the rank-one defect is
read the same way on all three. One builder serves a single herald and a
herald average: it sums the upper-triangle products of each field's
amplitudes into one total, in arrays made once per call, divides by the
field count and makes the result exactly Hermitian, as the unheralded
trajectories are. The long-time closed form, the impulsive (zero-duration)
limit, herald-time averaging, and the two-photon coincidence observable live
here as well.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from math import ceil, isfinite, isqrt

import numpy as np

from .errors import NormalizationError, NumericalError, ValidationError
from .numerics import (
    C_CM_PER_FS,
    FrequencyGrid,
    TimeGrid,
    _ChirpZ,
    _check_count,
    angular_frequency,
    sinc,
    trapezoid_weights,
)
from .dynamics import (
    DensityTrajectory,
    MolecularSystem,
    _check_step,
    _check_switch_on,
    _hermitian,
    _level_phasors,
)
from .pdc import PdcParams

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
    # A span past the float range leaves a spacing of 0, and ceil fails on inf and nan;
    # FrequencyGrid rejects such a count (or the endpoints) itself.
    intervals = (hi - lo) / spacing if spacing > 0 else float("inf")
    count = ceil(intervals) + 1 if isfinite(intervals) else intervals
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


def field_span(times: TimeGrid, first: float, last: float) -> float:
    """Largest distance from a herald time in [first, last] to a time of the window.

    The default exact field grid resolves this span; the config reader checks
    that grid at the span the computation will use.
    """
    return max(times.max - first, last - times.min)


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
    The exact field keeps its profile zero-padded to a (rows, B) array and one
    coefficient buffer of that shape; each herald writes the profile times
    its two phase tables into the buffer and synthesizes from it.
    """
    if method is FieldMethod.RECT_APPROX:
        points = times.points
        return lambda herald_time: _rect_field(points - herald_time, params)
    if method is not FieldMethod.EXACT_QUADRATURE:
        raise ValidationError(f"unknown field method {method!r}")
    if grid is None:
        grid = default_field_grid(params, time_span=field_span(times, first, last))
    phases = _phase_tables(grid)
    coarse, fine = phases(0.0)  # for the sizes of the tables
    profile = np.zeros((coarse.size, fine.size))
    profile.reshape(-1)[: grid.count] = _field_profile(params, grid)
    coefficients = np.empty(profile.shape, dtype=complex)
    head = coefficients.reshape(-1)[: grid.count]
    synthesize = _ChirpZ(grid, times.spacing, times.count)

    def field_at(herald_time: float) -> np.ndarray:
        coarse, fine = phases(herald_time - times.min)
        np.multiply(profile, coarse[:, None], out=coefficients)
        np.multiply(coefficients, fine, out=coefficients)
        return synthesize(head)

    return field_at


def _phase_tables(grid: FrequencyGrid) -> Callable[[float], tuple[np.ndarray, np.ndarray]]:
    """exp(i w_n s) for the N grid frequencies, as two tables of about sqrt(N) phasors.

    With B = ceil(sqrt(N)) and n = q B + r, w_n = (w_min + q B dw) + r dw, so
    exp(i w_n s) = coarse[q] * fine[r]: the function of s returns coarse
    (ceil(N / B) values) and fine (B values), about 2 sqrt(N) exponentials
    in place of N.
    """
    width = isqrt(grid.count - 1) + 1
    rows = -(-grid.count // width)
    coarse = angular_frequency(grid.min + grid.spacing * np.arange(0, rows * width, width))
    fine = angular_frequency(grid.spacing * np.arange(width))
    return lambda s: (np.exp(1j * s * coarse), np.exp(1j * s * fine))


def _rect_field(delay: np.ndarray, params: PdcParams) -> np.ndarray:
    half = 0.5 * params.entanglement_time
    box = np.where(
        np.abs(delay) < half, 1.0, np.where(np.abs(delay) == half, 0.5, 0.0)
    )
    height = params.gain / (C_CM_PER_FS * params.entanglement_time)
    carrier = np.exp(-1j * angular_frequency(params.signal_center) * delay)
    return height * box * carrier


def _field_profile(params: PdcParams, grid: FrequencyGrid) -> np.ndarray:
    """Quadrature weights times the amplitude-weighted tanh of the squeeze profile.

    That is weights * vacuum_amplitude(nu, signal_center) * tanh(squeeze_profile(nu, params)),
    computed in place in the same order of operations, so it is bit-identical to that expression
    with at most three float arrays of N alive.
    """
    nu = grid.points
    phase = np.subtract(nu, params.signal_center)
    phase *= np.pi * C_CM_PER_FS
    phase *= params.entanglement_time
    squeeze = np.sin(phase)
    np.divide(squeeze, phase, out=squeeze, where=phase != 0)
    squeeze[phase == 0] = 1.0
    del phase
    squeeze *= params.gain
    np.tanh(squeeze, out=squeeze)
    np.divide(nu, params.signal_center, out=nu)
    np.sqrt(nu, out=nu)
    weights = trapezoid_weights(grid.count, grid.spacing)
    weights *= nu
    weights *= squeeze
    return weights


def evolve_heralded(mol: MolecularSystem, field: HeraldedField) -> DensityTrajectory:
    """Rank-one trajectory driven by a heralded one-photon field.

    Populations sit at 0 before the pulse and stay constant after it;
    coherences keep rotating at the level splittings. Built as the herald
    average is, so each matrix is exactly Hermitian.
    """
    _check_switch_on(field.times, "evolve_heralded")
    _check_step(field.times)
    return _assemble(mol, field.times, [field.amplitudes])


def _assemble(
    mol: MolecularSystem, times: TimeGrid, fields: Iterable[np.ndarray]
) -> DensityTrajectory:
    """Mean of the rank-one matrices phi phi^dagger over the fields, exactly Hermitian.

    phi is the dipole-weighted cumulative trapezoid response of each level to
    one field. Its products for a <= b go straight into one (pairs, n_times)
    total, one field at a time. Every array is made once per call and each
    field is written into them with out=, in the order of operations of
    allocating them per field, so the bits are the same and no temporary is
    made per field. _hermitian fills in the lower triangle.
    """
    phasors = _level_phasors(mol, times)
    weights = mol.dipoles[:, None] * phasors.conj()
    upper = np.triu_indices(mol.size)
    half = 0.5 * times.spacing
    phi = np.empty_like(phasors)
    conj = np.empty_like(phasors)
    steps = np.empty((mol.size, times.count - 1), dtype=complex)
    cumulative = np.zeros_like(phasors)
    product = np.empty(times.count, dtype=complex)
    sums = np.zeros((upper[0].size, times.count), dtype=complex)
    for count, values in enumerate(fields, 1):
        np.multiply(phasors, values, out=phi)
        np.add(phi[:, 1:], phi[:, :-1], out=steps)
        np.multiply(half, steps, out=steps)
        np.cumsum(steps, axis=1, out=cumulative[:, 1:])
        np.multiply(weights, cumulative, out=phi)
        np.conjugate(phi, out=conj)
        for pair, (a, b) in enumerate(zip(*upper)):
            np.multiply(phi[a], conj[b], out=product)
            sums[pair] += product
    total = np.empty((times.count, mol.size, mol.size), dtype=complex)
    total[:, upper[0], upper[1]] = (sums / count).T
    return DensityTrajectory(times, _hermitian(total))


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


def herald_window(
    params: PdcParams, times: TimeGrid, samples: int, pad: float | None, sampling: str
) -> tuple[float, float]:
    """Check the settings of a herald average and return its window (t_min - pad, t_max + pad).

    samples must be a whole number in [1, 2**60) and sampling 'uniform' or
    'random'. pad defaults to the entanglement time and must be finite and at
    least that long, so a pulse reaching into the window is sampled whole, and
    the padded window, (t_max - t_min) + 2 pad long, must be finite.
    """
    _check_count("samples", samples, 1)
    if sampling not in ("uniform", "random"):
        raise ValidationError(f"sampling must be 'uniform' or 'random', got {sampling!r}")
    if pad is None:
        pad = params.entanglement_time
    if not (isfinite(pad) and pad >= params.entanglement_time):
        raise ValidationError(
            "pad must be finite and at least the entanglement time "
            f"({params.entanglement_time} fs), got {pad}"
        )
    lo, hi = times.min - pad, times.max + pad
    if not isfinite(hi - lo):
        raise ValidationError(
            f"pad must keep the padded window (t_max - t_min) + 2 pad finite, got {pad}"
        )
    return lo, hi


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
    or uniform random draws when sampling="random" (seeded). The uniform grid
    is symmetric about the window's centre, so herald j's field gives herald
    J-1-j's too, as its time-reversed conjugate (see the module docstring):
    the fields go herald 0, its mirror, herald 1, its mirror, ..., and the
    middle herald of an odd count last. The accumulation order is fixed, so
    results are reproducible. With many samples the average converges to the
    unheralded trajectory. The fields go one at a time through the builder
    evolve_heralded uses, so the average is bit for bit the mean of the
    single-herald trajectories of those fields.
    """
    _check_switch_on(times, "average_over_heralds")
    _check_step(times)
    try:
        lo, hi = herald_window(params, times, herald_samples, pad, sampling)
    except ValidationError as exc:
        raise ValidationError(f"average_over_heralds: {exc}") from None
    field_at = _field_source(times, params, grid, method, lo, hi)
    if sampling == "random":
        rng = np.random.default_rng(seed)
        fields = map(field_at, rng.uniform(lo, hi, int(herald_samples)))
    elif herald_samples == 1:
        fields = [field_at(0.5 * (lo + hi))]
    else:
        fields = _mirrored(field_at, np.linspace(lo, hi, int(herald_samples)))
    return _assemble(mol, times, fields)


def _mirrored(
    field_at: Callable[[float], np.ndarray], herald_times: np.ndarray
) -> Iterator[np.ndarray]:
    """The fields of heralds placed symmetrically about the window's centre, two per call.

    Herald j yields f_j and then conj(f_j[::-1]), the field of the herald
    reflected through the centre (see the module docstring; the rect field
    is even in the delay up to its carrier's conjugation), in place of
    herald J-1-j, written into one buffer kept across pairs. The middle
    herald of an odd J is computed alone. Each field must be used before
    the next is asked for.
    """
    mirror = None
    half, odd = divmod(len(herald_times), 2)
    for herald_time in herald_times[:half]:
        field = field_at(herald_time)
        yield field
        mirror = np.conjugate(field[::-1], out=mirror)
        yield mirror
    if odd:
        yield field_at(herald_times[half])


def coincidence_signal(mol: MolecularSystem, trajectory: DensityTrajectory) -> np.ndarray:
    """Two-photon coincidence observable: the dipole quadratic form of the trajectory.

    Real by Hermiticity, so its real part is returned, divided by its largest
    absolute value: the signal has peak 1, and constant prefactors drop out.
    Raises NumericalError when that peak is zero or not finite, or when the
    imaginary residue exceeds 1e-10 times it, which means the trajectory is
    not Hermitian.
    """
    mu = mol.dipoles
    raw = np.einsum("a,tab,b->t", mu, trajectory.matrices, mu)
    scale = np.max(np.abs(raw.real))
    if not (np.isfinite(scale) and scale > 0):
        raise NumericalError(f"coincidence: signal peak is zero or non-finite ({scale})")
    if not np.max(np.abs(raw.imag)) <= 1e-10 * scale:
        raise NumericalError("coincidence: signal has a non-negligible imaginary part")
    return raw.real / scale
