"""Excited-state density-matrix dynamics under broadband stationary light.

The light couples the ground state to a manifold of excited levels in
first-order perturbation theory, with the interaction switched on at t = 0.
For stationary light the field enters only through its first-order
correlation function, which is the frequency integral of the weighted mean
photon number; the double time integral over that correlation collapses to
a single frequency quadrature of

    J_level(nu, t) = (exp(i*(w - w_level)*t) - 1) / (i*(w - w_level))
                   = t * exp(i*theta*t/2) * sinc(theta*t/2),

with theta = w - w_level: entry (a, b) needs the frequency sum of
weight * conj(J_a) * J_b at every time. On a uniform time grid
t_k = t0 + k*dt the kernel obeys, exactly,

    J(t0 + k*dt) = J(t0) + exp(i*theta*t0) * sum_{j<k} exp(i*theta*j*dt) * J(dt),

so every pair's sum comes from the lag sums of the one-step kernel

    G_ab(m) = sum_n weight_n * conj(J_a,n(dt)) * J_b,n(dt) * exp(i*w_n*m*dt).

With the real s = sinc(theta*dt/2), conj(J_a(dt)) * J_b(dt) is
dt^2 * exp(i*(eps_a - eps_b)*dt/2) * s_a * s_b, so the coefficients are real
up to a phase that does not depend on n: one chirp-z transform of
dt^2 * weight * s_a * s_b per unordered level pair a <= b (numerics._ChirpZ,
the synthesizer of the heralded field too) gives G_ab(-m) for all lags
0 <= m < T at once, and G_ab(m) is the same with the transform's conjugate.
That is L(L + 1)/2 transforms, and the one-step kernel needs no complex
exponential. From t0 = 0 the sum at t_k is the running sum over j < k of
the steps

    exp(i(eps_a - eps_b) j dt) [G_ab(0) + sum_{m=1..j} exp(i eps_b m dt) G_ab(-m)
                                        + sum_{m=1..j} exp(-i eps_a m dt) G_ab(m)],

themselves running sums over the lags. From t0 > 0 the sum at t0 is
t0^2 exp(i(eps_a - eps_b) t0/2) times a real matrix product of the sincs
at t0, the double sum takes the phase exp(i(eps_a - eps_b) t0), and the
cross terms between J(t0) and the steps are real sinc products up to the
one delay table exp(-i theta (t0 + dt)/2): one transform per ordered pair,
L^2 more, and one more running sum. Nothing divides by theta, so the bins
near a level and those far from all go through the same sums: O(L^2 (N + T)
log(N + T)) work and a few (L^2, T) arrays of memory. Each running sum is
taken in blocks of ceil(sqrt(T)) steps whose totals are summed apart, so an
entry carries about 2 sqrt(T) roundings instead of T.

Where the lag sums decay, as for the shipped spectra on their grids, the
result agrees with the direct sinc form to about 2e-15 relative at every
time. A coarse frequency grid makes them periodic in 1/(c * spacing)
instead, and the error then grows with the steps summed: 3.6e-14 after
20,001 steps on 101 frequency points, of which exact lag sums leave 2.1e-14
and the chirp-z transform adds the rest. The direct double-time quadrature
is kept in the test suite as an independent oracle.

Everything the sums need of the level energies and the two grids alone, the
chirp-z plan, the sinc table, the rotation, increment and output phase
tables and, from t0 > 0, the sincs at t0 and the half-phase and delay
tables, is kept in a cache of one entry (_kernel). Its key is the exact bits
of the energies and of both grids' ends, with the molecule and the two grids
the tables are built from, so 0.0 and -0.0, which compare equal, are
different keys. The second light of fig2 and every later call on the same
molecule and grids find it, and any other call replaces it. It holds
0.71 MB at the fig2 sizes (L = 2, N = 8,192, T = 2,001), 2.8 MB for five
levels from 3 fs and 12.4 MB at L = 5, T = 20,001. Its arrays are
read-only, the plan's too, and each call transforms in a work buffer it
allocates, so concurrent calls are safe.

DensityTrajectory is the one trajectory type: the unheralded trajectories
here, and the heralded and herald-averaged ones of the heralded module. It
carries the three health metrics, the Hermiticity defect, the minimum
eigenvalue and the rank-one defect (zero for a single herald, large for an
average). Raw trajectories carry arbitrary overall scale; figures and
comparisons use normalize_trajectory, which rescales a whole trajectory by
one positive number so a chosen reference entry peaks at 1.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import FieldError, NormalizationError, ValidationError
from .numerics import (
    FrequencyGrid,
    TimeGrid,
    _ChirpZ,
    _check_positive,
    angular_frequency,
    sinc,
    trapezoid_weights,
)
from .pdc import PhotonSpectrum


class NormalizationMode(enum.Enum):
    RAW = "raw"
    MAX_REPART_OFFDIAG = "max_repart_offdiag"
    MAX_DIAG = "max_diag"


@dataclass(frozen=True)
class MolecularSystem:
    """Excited levels as (transition energy in cm^-1, real transition dipole) pairs."""

    levels: tuple[tuple[float, float], ...]

    def __post_init__(self):
        levels = tuple((float(e), float(d)) for e, d in self.levels)
        if not levels:
            raise ValidationError("MolecularSystem: at least one level is required")
        for energy, dipole in levels:
            _check_positive("MolecularSystem: transition energies", energy)
            if not np.isfinite(dipole):
                raise ValidationError(f"MolecularSystem: dipoles must be finite, got {dipole}")
        if not any(dipole for _, dipole in levels):
            raise ValidationError("MolecularSystem: at least one dipole must be nonzero")
        object.__setattr__(self, "levels", levels)

    @property
    def size(self) -> int:
        return len(self.levels)

    @property
    def energies(self) -> np.ndarray:
        return np.array([e for e, _ in self.levels])

    @property
    def dipoles(self) -> np.ndarray:
        return np.array([d for _, d in self.levels])


@dataclass(frozen=True)
class DensityTrajectory:
    """Time series of complex Hermitian matrices over the excited-state manifold.

    Every trajectory the package returns, unheralded, heralded or
    herald-averaged, is exactly Hermitian: the lower triangle is the conjugate
    of the upper one and the diagonal is real (imaginary part +0.0), so its
    hermiticity_defect() is 0.0. A trajectory built from a caller's matrices
    is taken as given.
    """

    times: TimeGrid
    matrices: np.ndarray

    def __post_init__(self):
        matrices = np.asarray(self.matrices, dtype=complex)
        if matrices.ndim != 3 or matrices.shape[0] != self.times.count:
            raise ValidationError(
                "DensityTrajectory: matrices must have shape (n_times, L, L), got "
                f"{matrices.shape}"
            )
        if matrices.shape[1] != matrices.shape[2]:
            raise ValidationError("DensityTrajectory: matrices must be square")
        object.__setattr__(self, "matrices", matrices)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def hermiticity_defect(self) -> float:
        """Largest absolute deviation from M = M-dagger over the trajectory."""
        return float(np.max(np.abs(self.matrices - self.matrices.conj().transpose(0, 2, 1))))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the Hermitian part over the trajectory."""
        sym = 0.5 * (self.matrices + self.matrices.conj().transpose(0, 2, 1))
        return float(np.min(np.linalg.eigvalsh(sym)))

    def rank1_defect(self) -> float:
        """Largest ratio of second to leading eigenvalue over the trajectory."""
        eigenvalues = np.linalg.eigvalsh(self.matrices)
        leading = eigenvalues[:, -1]
        second = np.abs(eigenvalues[:, :-1]).max(axis=1) if self.dim > 1 else np.zeros_like(leading)
        nonzero = leading > 0
        if not np.any(nonzero):
            return 0.0
        return float(np.max(second[nonzero] / leading[nonzero]))


def _amplitude_weight(spectrum: PhotonSpectrum, amplitude_ref: float) -> np.ndarray:
    """Trapezoid weights times the square-root-of-frequency coupling, squared.

    The reference frequency only sets an overall constant and cancels in any
    normalized output.
    """
    _check_positive("amplitude_ref", amplitude_ref)
    weights = trapezoid_weights(spectrum.grid.count, spectrum.grid.spacing)
    return weights * (spectrum.grid.points / amplitude_ref) * spectrum.values


def _hermitian(matrices: np.ndarray) -> np.ndarray:
    """Make each matrix exactly Hermitian in place: (b, a) = conj (a, b), the diagonal real."""
    a, b = np.triu_indices(matrices.shape[1], 1)
    matrices[:, b, a] = matrices[:, a, b].conj()
    diagonal = np.arange(matrices.shape[1])
    matrices[:, diagonal, diagonal] = matrices[:, diagonal, diagonal].real
    return matrices


def _check_step(times: TimeGrid) -> None:
    """Reject a time step whose square, which scales every trajectory entry, is not a normal float.

    dt^2 scales every lag sum of the unconditional dynamics, and a heralded entry is a
    product of two trapezoid sums over the steps. Below np.finfo(float).tiny dt^2 is
    subnormal and loses digits (5e-6 of the normalized fig2 trajectory at dt = 5e-161 fs),
    then underflows to 0, which zeroes every entry. tiny is 2^-1022, so dt^2 >= tiny exactly
    when dt >= 2^-511, a test that cannot overflow as a huge step's square does.
    """
    if not times.spacing >= 2.0**-511:
        raise FieldError(
            f"times: the step {times.spacing} fs is below 1.5e-154 fs, so its square is not a "
            "normal float"
        )


def _check_times(times: TimeGrid, caller: str) -> None:
    """Reject a grid starting before the light switches on at t = 0, then run _check_step."""
    if times.min < 0:
        raise ValidationError(f"{caller}: times must start at or after 0, got {times.min}")
    _check_step(times)


def _level_phasors(mol: MolecularSystem, times: TimeGrid) -> np.ndarray:
    """exp(i eps_a t) for every level a and time t, shape (L, n_times)."""
    return np.exp(1j * np.outer(angular_frequency(mol.energies), times.points))


def evolve_unconditional(
    mol: MolecularSystem,
    spectrum: PhotonSpectrum,
    times: TimeGrid,
    amplitude_ref: float,
) -> DensityTrajectory:
    """Raw excited-state trajectory under stationary light switched on at t = 0.

    Populations grow linearly once t exceeds the inverse spectral bandwidth;
    coherences between levels a and b rotate at their splitting.

    The frequency sums sum_n w_n conj(K_a,n) K_b,n of the window kernel come
    from the lag sums of the one-step kernel, summed over the steps (see the
    module docstring), for every bin and every start alike. Against the direct
    sinc form at every time they differ by at most 1.1e-15 (source) and 1.4e-15
    (5777 K black body) in relative Frobenius norm per time on the fig2 grids,
    1.3e-15 and 1.5e-15 on them from 37.3 fs, 1.8e-15 and 2.3e-15 with five
    levels and 8,001 times over 400 fs, and under 2e-15 from a start at 1e7 fs.
    The t = 0 matrix is exactly zero. Each matrix is exactly Hermitian: the
    lower triangle is the conjugate of the upper one, and the diagonal is real.

    The tables that depend only on the levels and the two grids come from a
    cache of one entry (see the module docstring), so the second light of
    fig2 only weighs, transforms and sums; the result has the same bits
    whether the tables were cached or built for the call.
    """
    _check_times(times, "evolve_unconditional")
    weight = _amplitude_weight(spectrum, amplitude_ref)
    kernel = _kernel(mol, spectrum.grid, times)
    plan, work = kernel.plan, np.empty(kernel.plan.size, dtype=complex)
    rotation = kernel.rotation
    a, b = np.triu_indices(mol.size)

    # conj(K_a(dt)) K_b(dt) = dt^2 exp(i (eps_a - eps_b) dt / 2) s_a s_b with the real
    # s = sinc(theta dt / 2), so with the lag sums R_ab(m) = dt^2 sum_n w_n s_a,n s_b,n
    # exp(-i w_n m dt) of one pair a <= b, G_ab(-m) = exp(i (eps_a - eps_b) dt / 2) R_ab(m),
    # and G_ab(m) is the same with conj(R_ab(m)); np.square, as a float's ** raises on overflow
    step = kernel.step
    lagged = _lag_sums(plan, work, np.square(times.spacing) * weight * step, step, a, b)
    # terms[p, m] = exp(i eps_b m dt) R_ab(m) + exp(-i eps_a m dt) conj(R_ab(m)); R_ab(0) at m = 0
    terms = rotation[b] * lagged + (rotation[a] * lagged).conj()
    terms[:, 0] = lagged[:, 0].real
    del lagged
    increments = kernel.increment * _running_sum(terms)
    at_start = 0.0
    if times.min > 0:
        # h_ab = exp(i (eps_a - eps_b) t0 / 2), tau = (t0 + dt) / 2: conj(K_a(t0)) K_b(t0) =
        # h_ab t0^2 s_a(t0) s_b(t0), conj(K_a(t0)) exp(i theta_b t0) K_b(dt) = h_ab t0 dt s_a(t0)
        # s_b(dt) exp(i theta_b tau), and cross[a, b, j] is the conj of its lag sum at j over h_ab
        first, half = kernel.first, kernel.half
        scaled = weight * first
        at_start = np.square(times.min) * (scaled @ first.T)[a, b, None] * half
        ordered = np.indices((mol.size, mol.size)).reshape(2, -1)
        cross = _lag_sums(plan, work, times.min * times.spacing * scaled, kernel.delayed, *ordered)
        cross = cross.reshape(mol.size, mol.size, times.count)
        increments *= half
        increments += rotation[a] * cross[b, a] + (rotation[b] * cross[a, b]).conj()
        increments *= half

    # conj_overlaps[p, k] = sum_n w_n conj(K_a,n) K_b,n at times[k], pair p = (a, b)
    conj_overlaps = np.zeros((a.size, times.count), dtype=complex)
    conj_overlaps[:, 1:] = _running_sum(increments[:, :-1])
    conj_overlaps += at_start
    matrices = np.zeros((times.count, mol.size, mol.size), dtype=complex)
    matrices[:, a, b] = mol.dipoles[a] * mol.dipoles[b] * kernel.phase * conj_overlaps.T
    return DensityTrajectory(times, _hermitian(matrices))


@dataclass(frozen=True)
class _Kernel:
    """The tables of evolve_unconditional that depend only on the levels and the two grids.

    For L levels, N frequencies, T times and the P = L(L + 1)/2 pairs a <= b, with
    theta = w - eps_a and m the lag: the chirp-z plan, the real step = sinc(theta dt / 2)
    (L, N), rotation = exp(i eps_a m dt) (L, T), increment = exp(i (eps_a - eps_b) (m + 1/2)
    dt) (P, T) and phase = exp(-i (eps_a - eps_b) t_k) (T, P); from t0 > 0 also the real
    first = sinc(theta t0 / 2) (L, N), half = exp(i (eps_a - eps_b) t0 / 2) (P, 1) and
    delayed = step exp(-i theta (t0 + dt) / 2) (L, N), else None. Every array is read-only,
    the plan's too: a call synthesizes in a work buffer of its own.
    """

    plan: _ChirpZ
    step: np.ndarray
    rotation: np.ndarray
    increment: np.ndarray
    phase: np.ndarray
    first: np.ndarray | None
    half: np.ndarray | None
    delayed: np.ndarray | None


def _kernel(mol: MolecularSystem, grid: FrequencyGrid, times: TimeGrid) -> _Kernel:
    """The kernel tables of mol's levels on grid and times, from a cache of one entry.

    The key holds the exact bits of the energies and grid ends: 0.0 and -0.0 compare equal, so
    a key of the objects alone would hand a grid that starts at -0.0 the tables built for 0.0.
    """
    floats = (*mol.energies.tolist(), grid.min, grid.max, times.min, times.max)
    return _build_kernel(struct.pack(f"{len(floats)}d", *floats), mol, grid, times)


@lru_cache(maxsize=1)
def _build_kernel(bits, mol: MolecularSystem, grid: FrequencyGrid, times: TimeGrid) -> _Kernel:
    """_kernel's tables, built afresh from mol, grid and times; bits is only part of the key."""
    level_ang = angular_frequency(mol.energies)
    theta = angular_frequency(grid.points)[None, :] - level_ang[:, None]
    plan = _ChirpZ.on(grid, times.spacing, times.count)
    lags = times.spacing * np.arange(times.count)
    a, b = np.triu_indices(level_ang.size)
    splitting = level_ang[a] - level_ang[b]
    step = sinc(0.5 * times.spacing * theta)
    first = half = delayed = None
    if times.min > 0:
        first = sinc(0.5 * times.min * theta)
        half = np.exp(0.5j * splitting * times.min)[:, None]
        delayed = step * np.exp(-0.5j * (times.min + times.spacing) * theta)
    kernel = _Kernel(
        plan=plan,
        step=step,
        rotation=np.exp(1j * np.outer(level_ang, lags)),
        increment=np.exp(1j * np.outer(splitting, lags + 0.5 * times.spacing)),
        phase=np.exp(-1j * np.outer(times.points, splitting)),
        first=first,
        half=half,
        delayed=delayed,
    )
    for table in vars(kernel).values():
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return kernel


def _lag_sums(
    plan: _ChirpZ,
    work: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """plan(left[a[p]] * right[b[p]], work) for every pair p of levels, shape (pairs, T)."""
    sums = np.empty((a.size, plan.post.size), dtype=complex)
    for pair, (first, second) in enumerate(zip(a, b)):
        sums[pair] = plan(left[first] * right[second], work)
    return sums


def _running_sum(values: np.ndarray) -> np.ndarray:
    """Cumulative sum along the last axis, in blocks of ceil(sqrt(T)) values.

    Each block is summed from zero and the block totals are summed apart, so
    an entry carries about 2 sqrt(T) roundings instead of up to T.
    """
    *lead, count = values.shape
    width = isqrt(count - 1) + 1
    blocks = np.zeros((*lead, -(-count // width), width), dtype=complex)
    blocks.reshape(*lead, -1)[..., :count] = values
    np.cumsum(blocks, axis=-1, out=blocks)
    blocks[..., 1:, :] += np.cumsum(blocks[..., :-1, -1], axis=-1)[..., None]
    return blocks.reshape(*lead, -1)[..., :count]


def normalize_trajectory(traj: DensityTrajectory, mode: NormalizationMode) -> DensityTrajectory:
    """Rescale a whole trajectory by one positive real so the reference peaks at 1.

    MAX_REPART_OFFDIAG references the real part of the off-diagonal entries,
    MAX_DIAG the diagonal entries; both take the maximum over the trajectory
    and raise NormalizationError unless it is positive, as for a single level,
    which has no off-diagonal entries (their maximum is -inf). RAW returns the
    trajectory unchanged.
    """
    if mode is NormalizationMode.RAW:
        return traj
    if mode is NormalizationMode.MAX_REPART_OFFDIAG:
        mask = ~np.eye(traj.dim, dtype=bool)
        reference = float(np.max(traj.matrices.real[:, mask], initial=-np.inf))
    elif mode is NormalizationMode.MAX_DIAG:
        diag = np.diagonal(traj.matrices.real, axis1=1, axis2=2)
        reference = float(np.max(diag))
    else:
        raise ValidationError(f"normalize_trajectory: unknown mode {mode!r}")
    if not reference > 0:
        raise NormalizationError(
            f"normalize_trajectory: reference maximum is not positive ({reference})"
        )
    # Real and imaginary parts apart: a complex division multiplies by the
    # reciprocal, which can leave the reference entry an ulp off 1.
    matrices = np.empty_like(traj.matrices)
    matrices.real = traj.matrices.real / reference
    matrices.imag = traj.matrices.imag / reference
    return DensityTrajectory(traj.times, matrices)
