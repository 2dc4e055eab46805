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
broadcast multiplies of N values and one transform pair, all in one work
buffer. The field is within 1e-11 of its peak of the one taken with an
exponential per frequency, and the phase within a factor 2 of its error
against an extended-precision reference. A single herald, and every
average the comb below leaves to the loop, get their fields from one
source, which picks the method and the frequency grid and builds the
tables, the transform and that buffer once; they are the only arrays kept
across heralds (see _field_source), and every field it returns is a new
array.

A heralded response is integrated from the first time of its grid, t_0 =
times.min, where it is 0: the light before t_0 is dropped. The unheralded
trajectories integrate from the switch-on at t = 0, so the two pipelines
describe the same experiment only when t_0 = 0.

A uniform average of exact fields over J >= 3 heralds is taken over the
herald comb s_j = lo + j ds in closed form, with no field per herald. The
trapezoid sum of exp(i theta t) over t_0..t_k, theta = eps_a - w_n, is
kappa (exp(i theta t_k) - exp(i theta t_0)) with kappa = -i (dt/2)
cot(theta dt/2). So with u_a,n = p_n kappa_a,n and g_a(tau) = sum_n u_a,n
exp(-i w_n tau), herald j's response of level a is mu_a [g_a(t_k - s_j) -
E_a(k) beta_a^j], with E_a(k) = exp(-i eps_a (t_k - t_0)) and beta_a^j =
g_a(t_0 - s_j). The mean of its products needs only

- the comb's Dirichlet kernel D_d = mean_j exp(i d dw s_j), one chirp-z
  transform over the comb;
- mean_j g_a conj(g_b) = sum_d D_d Q_ab(d) exp(-i d dw t_k), with the
  correlation Q_ab(d) = sum_n u_a,n conj(u_b,n-d) from FFTs: two transforms
  over the lags d >= 0 per pair a < b, one per level;
- beta and v_b,n = mean_j exp(i w_n s_j) conj(beta_b^j), one transform from
  the frequencies to the comb and one back per level;
- mean_j conj(beta_b) g_a(t_k - s_j) = sum_n u_a,n v_b,n exp(-i w_n t_k),
  one transform per ordered level pair, and mean_j beta_a conj(beta_b).

kappa diverges at bins whose theta lies within dw/2 of a multiple of 2 pi/dt
(resonant, or aliased by the time step). u leaves those bins out, and each
one's response is its explicit cumulative trapezoid; its products with the
far bins take one transform per level (of u_a,n D_(n - m)), and its
products with the other resonant bins one matrix product. Row t_0 is
exactly 0, as an empty trapezoid gives. For two levels and two resonant
bins that is 17 transforms whatever J. At T = 2,001, N = 4,175 and 512
heralds on 0-100 fs it takes about 6 ms, against about 140 ms for a
transform and a trapezoid per herald, and it is 2.7e-14 of its largest
entry off that loop. A time step that does not resolve the grid's band
aliases a bin onto each level every 1/(c dt) cm^-1, each one more transform
per level: the comb runs only while those L transforms per resonant bin are
at most the loop's, one per herald (5 fs steps on 0-100 fs leave 204
resonant bins on the default grid, 10 fs steps 408), and the loop serves
the rest. The comb's terms are each as large as |g|^2, the response to the
grid field's periodic pulse train, and cancel to the average. Two heralds
sit a pad outside each end of the window, so their average is about 1e-5
of those terms, and the comb was 7e-11 off the loop there: two heralds
always take the loop.

Since the conditioned field correlation factorizes, the conditioned
trajectory is an outer product of single-excitation amplitudes and is
exactly rank one. It is returned as a plain dynamics.DensityTrajectory, like
the herald average and the unheralded trajectory, so the rank-one defect is
read the same way on all three. One builder serves a single herald and
the loop's averages: it sums the upper-triangle products of each field's
amplitudes into one total, divides by the field count and makes the result
exactly Hermitian, as the unheralded trajectories are; the comb makes its
result Hermitian the same way. The long-time closed form, the impulsive
(zero-duration) limit, herald-time averaging, and the two-photon coincidence
observable live here as well.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
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
    _fft_length,
    _phasor,
    angular_frequency,
    sinc,
    trapezoid_weights,
)
from .dynamics import (
    DensityTrajectory,
    MolecularSystem,
    _check_times,
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
    """Complex effective-field samples, each finite, on a time grid for one herald time."""

    times: TimeGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if amplitudes.shape != (self.times.count,):
            raise ValidationError(
                f"HeraldedField: expected {self.times.count} amplitudes, got {amplitudes.shape}"
            )
        if not np.all(np.isfinite(amplitudes)):
            raise ValidationError("HeraldedField: amplitudes must be finite")
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
    try:
        field_at = _field_source(times, params, grid, method, herald_time, herald_time)
    except ValidationError as exc:
        raise ValidationError(f"heralded_field: {exc}") from None
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
    work buffer of max(transform size, rows B) values; each herald writes the
    profile times its two phase tables into the head of the work buffer and
    synthesizes from there into a new array. With the work buffer made per
    herald instead, every 512-herald uniform loop average on 0-100 fs after a
    process's first faulted 10,629-14,677 times, against 173 with it kept
    (numpy 2.4.6, glibc 2.36), as the allocator handed each freed buffer back
    and faulted it in again.
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
    synthesize = _ChirpZ.on(grid, times.spacing, times.count)
    work = np.empty(max(synthesize.size, profile.size), dtype=complex)
    coefficients = work[: profile.size].reshape(profile.shape)

    def field_at(herald_time: float) -> np.ndarray:
        coarse, fine = phases(herald_time - times.min)
        np.multiply(profile, coarse[:, None], out=coefficients)
        np.multiply(coefficients, fine, out=coefficients)
        return synthesize(work[: grid.count], work)

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
    """Quadrature weights times the amplitude-weighted tanh of the squeeze profile."""
    nu = grid.points
    return (
        trapezoid_weights(grid.count, grid.spacing)
        * vacuum_amplitude(nu, params.signal_center)
        * np.tanh(squeeze_profile(nu, params))
    )


def evolve_heralded(mol: MolecularSystem, field: HeraldedField) -> DensityTrajectory:
    """Rank-one trajectory driven by a heralded one-photon field.

    Populations sit at 0 before the pulse and stay constant after it;
    coherences keep rotating at the level splittings. Built as the herald
    average is, so each matrix is exactly Hermitian.
    """
    _check_times(field.times, "evolve_heralded")
    return _assemble(mol, field.times, [field.amplitudes])


def _assemble(
    mol: MolecularSystem, times: TimeGrid, fields: Iterable[np.ndarray]
) -> DensityTrajectory:
    """Mean of the rank-one matrices phi phi^dagger over the fields, exactly Hermitian.

    phi is the dipole-weighted cumulative trapezoid response of each level to
    one field, whose first column stays zero. Its products for a <= b go
    straight into one (pairs, n_times) total, one field at a time; the
    field's own arrays, (L, n_times) at most, are made per field.
    _hermitian fills in the lower triangle.
    """
    phasors = _level_phasors(mol, times)
    weights = mol.dipoles[:, None] * phasors.conj()
    upper = np.triu_indices(mol.size)
    half = 0.5 * times.spacing
    cumulative = np.zeros_like(phasors)
    sums = np.zeros((upper[0].size, times.count), dtype=complex)
    for count, values in enumerate(fields, 1):
        phi = phasors * values
        cumulative[:, 1:] = np.cumsum(half * (phi[:, 1:] + phi[:, :-1]), axis=1)
        phi = weights * cumulative
        conj = phi.conj()
        for pair, (a, b) in enumerate(zip(*upper)):
            sums[pair] += phi[a] * conj[b]
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
    entanglement time on both sides: a deterministic uniform grid
    (np.linspace) by default, or uniform random draws when sampling="random"
    (seeded). Each response integrates from times.min (see the module
    docstring), so only from times.min = 0 does the average approach the
    unheralded trajectory as the heralds grow many. With 192 exact heralds
    and both scaled to their largest population, the populations differ
    from evolve_unconditional's by at most 1.4e-3 on 0-60 fs and 0.25 on
    20-80 fs.

    - Exact fields at J >= 3 uniform heralds, while L times the resonant
      bins is at most J: the mean over the herald comb in closed form (see
      the module docstring), a number of transforms that does not grow with
      J, within 1e-13 of the mean of the single-herald trajectories at the
      same times.
    - Otherwise the field of each herald, in order, goes through the builder
      evolve_heralded uses, so the average is bit for bit the mean of the
      single-herald trajectories at those herald times. Each field is a new
      array, and only the source's work buffer is kept across heralds.
    """
    _check_times(times, "average_over_heralds")
    try:
        lo, hi = herald_window(params, times, herald_samples, pad, sampling)
        if grid is None and method is FieldMethod.EXACT_QUADRATURE:
            grid = default_field_grid(params, time_span=field_span(times, lo, hi))
    except ValidationError as exc:
        raise ValidationError(f"average_over_heralds: {exc}") from None
    if method is FieldMethod.EXACT_QUADRATURE and sampling == "uniform" and herald_samples > 2:
        resonant = _resonant_bins(mol, grid, times)
        if mol.size * np.count_nonzero(resonant) <= herald_samples:
            return _comb_average(mol, params, grid, times, lo, hi, int(herald_samples), resonant)
    if sampling == "random":
        heralds = np.random.default_rng(seed).uniform(lo, hi, int(herald_samples))
    elif herald_samples == 1:
        heralds = [0.5 * (lo + hi)]
    else:
        heralds = np.linspace(lo, hi, int(herald_samples))
    field_at = _field_source(times, params, grid, method, lo, hi)
    return _assemble(mol, times, map(field_at, heralds))


def _resonant_bins(mol: MolecularSystem, grid: FrequencyGrid, times: TimeGrid) -> np.ndarray:
    """(L, N) mask of the bins whose theta = eps_a - w_n lies within dw/2 of a multiple of 2 pi/dt.

    At those bins the comb's cot(theta dt/2) diverges: the level itself, and its aliases
    every 1/(c dt) cm^-1 that the time step folds onto it.
    """
    theta = angular_frequency(mol.energies)[:, None] - angular_frequency(grid.points)
    half = 0.5 * times.spacing * theta
    reach = 0.25 * times.spacing * angular_frequency(grid.spacing)
    return np.abs(half - np.pi * np.round(half / np.pi)) <= reach


def _comb_average(
    mol: MolecularSystem,
    params: PdcParams,
    grid: FrequencyGrid,
    times: TimeGrid,
    lo: float,
    hi: float,
    samples: int,
    resonant: np.ndarray,
) -> DensityTrajectory:
    """The exact-field average over the herald comb s_j = lo + j ds, j < samples, in closed form.

    The terms are the module docstring's. Each stage frees its plans and tables, every
    coefficient array is formed in the one work buffer, and the sums go straight into
    the result.
    """
    levels, bins, count = mol.size, grid.count, times.count
    dt, t0 = times.spacing, times.min
    ds = (hi - lo) / (samples - 1)
    turns = C_CM_PER_FS * grid.spacing  # dw in turns per fs
    energy = angular_frequency(mol.energies)
    profile = _field_profile(params, grid)
    theta = energy[:, None] - angular_frequency(grid.points)
    start = _phasor(-turns * t0, np.arange(bins, dtype=float))  # exp(-i n dw t0)
    level_of, bin_of = np.nonzero(resonant)
    angle, weight = theta[level_of, bin_of], profile[bin_of] * start[bin_of]
    # u_a,n exp(-i n dw t0) on the far bins, 0 on the resonant ones
    u = np.divide(
        (-0.5j * dt) * profile * start,
        np.tan(0.5 * dt * theta),
        out=np.zeros(theta.shape, dtype=complex),
        where=~resonant,
    )
    del profile, theta, start
    lead = np.exp(-1j * angular_frequency(grid.min) * t0)  # exp(-i w_min t0)
    at_lo = np.outer(*_phase_tables(grid)(lo)).reshape(-1)[:bins]  # exp(i w_n lo)

    comb = _ChirpZ(-turns * ds, samples, bins)  # sum_j c_j exp(i n dw j ds)
    heralds = _ChirpZ(-turns * ds, bins, samples, -C_CM_PER_FS * grid.min * ds)
    correlation = _fft_length(2 * bins - 1)
    work = np.empty(
        max(comb.size, heralds.size, _fft_length(bins + count - 1), correlation), dtype=complex
    )

    def transform(plan: _ChirpZ, left, right) -> np.ndarray:
        """plan(left * right), the product formed in the work buffer."""
        return plan(np.multiply(left, right, out=work[: plan.pre.size]), work)

    # D_d = mean_j exp(i d dw s_j) for 0 <= d < N, D_-d = conj(D_d); beta_a^j = g_a(t0 - s_j)
    # and v_b,n = mean_j exp(i w_n s_j) conj(beta_b^j)
    dirichlet = comb(np.ones(samples), work)
    dirichlet *= _phasor(turns * lo, np.arange(bins, dtype=float)) / samples
    beta = lead * np.stack([transform(heralds, u_a, at_lo) for u_a in u])
    del heralds
    shift = _phasor(C_CM_PER_FS * grid.min * ds, np.arange(samples, dtype=float))
    v = np.stack([transform(comb, b.conj(), shift) for b in beta])
    v *= at_lo / samples
    cross = beta @ beta.conj().T / samples
    del comb, at_lo, beta, shift

    plan = _ChirpZ(turns * dt, bins, count)  # sum_n c_n exp(-i n dw k dt)
    rotation = np.exp(-1j * np.outer(energy, dt * np.arange(count)))  # E_a(t_k)
    carrier = np.exp(-1j * angular_frequency(grid.min) * times.points)  # exp(-i w_min t_k)
    pairs = list(zip(*np.triu_indices(levels)))
    total = np.empty((count, levels, levels), dtype=complex)
    # E_a conj(E_b) mean_j beta_a conj(beta_b), less conj(E_b) mean_j conj(beta_b) g_a(t_k - s_j)
    # and its conjugate with a and b swapped
    for a, b in pairs:
        term = total[:, a, b]
        np.multiply(rotation[a], rotation[b].conj(), out=term)
        term *= cross[a, b]
        swept = transform(plan, u[a], v[b])
        swept *= carrier * rotation[b].conj()
        term -= swept
        if a != b:
            swept = transform(plan, u[b], v[a])
            swept *= carrier * rotation[a].conj()
        term -= swept.conj()
    projected = v[:, bin_of].conj()
    del v, swept

    # plus mean_j g_a conj(g_b) = sum_d D_d Q_ab(d) exp(-i d dw t_k): Q_ab(d) = sum_n
    # u_a,n conj(u_b,n-d) from one correlation, and Q_ab(-d) = conj(Q_ba(d))
    for a, b in pairs:
        spectrum = np.fft.fft(u[a], correlation, out=work[:correlation])
        if a == b:
            np.multiply(spectrum, spectrum.conj(), out=spectrum)
        else:
            other = np.fft.fft(u[b], correlation)
            spectrum *= np.conjugate(other, out=other)
            del other
        np.fft.ifft(spectrum, out=spectrum)
        if a == b:
            at_zero = (dirichlet[0] * spectrum[0]).real
            total[:, a, a] += 2 * transform(plan, dirichlet, spectrum[:bins]).real - at_zero
        else:
            behind = np.zeros(bins, dtype=complex)
            np.conjugate(spectrum[: -bins : -1], out=behind[1:])
            behind *= dirichlet
            total[:, a, b] += transform(plan, dirichlet, spectrum[:bins])
            total[:, a, b] += plan(behind, work).conj()
            del behind
    del spectrum

    # A resonant bin r = (c, m) responds as G_r(t_k) = exp(-i eps_c t_k) p_m C(t_k), with C the
    # cumulative trapezoid of exp(i theta t) from t0; X_a,r(t_k) = mean_j exp(-i w_m s_j)
    # times level a's far response to herald j, and mean_j exp(i (w_m - w_m') s_j) = D_(m - m')
    responses = np.zeros((angle.size, count), dtype=complex)
    resonances = zip(level_of, bin_of, angle, weight, responses, projected.T)
    for c, m, theta_r, weight_r, response, conj_v in resonances:
        steps = np.exp(1j * theta_r * dt * np.arange(count))
        steps = steps[1:] + steps[:-1]
        steps *= 0.5 * dt
        np.cumsum(steps, out=response[1:])
        response *= (weight_r * lead) * rotation[c]
        shifted = np.empty(bins, dtype=complex)  # D_(n - m)
        np.conjugate(dirichlet[m:0:-1], out=shifted[:m])
        shifted[m:] = dirichlet[: bins - m]
        for a, u_a in enumerate(u):
            term = transform(plan, u_a, shifted)  # X_a,r, then times conj(G_r)
            term *= carrier
            term -= rotation[a] * conj_v[a]
            term *= response.conj()
            if a <= c:
                total[:, a, c] += term
            if a >= c:
                total[:, c, a] += term.conj()
        del steps, shifted, term
    for a, b in pairs:
        rows, cols = level_of == a, level_of == b
        lag = bin_of[rows, None] - bin_of[None, cols]
        kernel = np.where(lag >= 0, dirichlet[np.abs(lag)], dirichlet[np.abs(lag)].conj())
        total[:, a, b] += np.sum((kernel.T @ responses[rows]) * responses[cols].conj(), axis=0)
    total *= np.outer(mol.dipoles, mol.dipoles)
    total[0] = 0.0
    return DensityTrajectory(times, _hermitian(total))


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
