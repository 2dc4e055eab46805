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
weight * conj(J_a) * J_b at every time. The sum is split by detuning.

- Far from every level (|theta| >= 0.1 rad/fs, about 530 cm^-1) and from
  t = 1 fs on, the product has the closed form
  [exp(i(eps_a - eps_b)t) + 1 - exp(-i theta_a t) - exp(i theta_b t)] /
  (theta_a theta_b), so the sum is a constant plus level phases times one
  Fourier sum of real coefficients on the uniform frequency grid. One
  chirp-z transform per level pair (numerics._ChirpZ, the synthesizer of
  the heralded field too) evaluates it at every time: O(L^2 (N + T)
  log(N + T)) work instead of O(L N T).
- Near a level those four terms cancel, so the sinc form is kept, summed
  at every time at once by the exact shift identity

      J(t0 + s) = exp(i*theta*s) * J(t0) + J(s):

  with the times split into about sqrt(T) block starts t0 and as many
  offsets s, each pair's sum is the level splitting's phase times the
  start sums, the offset sums and two blocks of one matrix product between
  the offset and the start kernels of all levels, every kernel taken from
  the direct sinc form.
- Far bins before 1 fs are advanced by the exact recurrence

      J(t + dt) = J(t) + exp(i*theta*t) * J(dt)
                = exp(i*theta*dt) * J(t) + J(dt)

  (the second line uses exp(i*theta*t) = 1 + i*theta*J(t)), one product
  and one sum per step, and recomputed from the direct sinc form every
  fixed number of steps, so rounding cannot accumulate over long grids.
  The steps fill blocks of times, and each block is summed over frequency
  by one stacked matrix product.

All three agree with the direct sinc form at every time to about 2e-15
relative. The direct double-time quadrature is kept in the test suite as an
independent oracle.

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
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import NormalizationError, ValidationError
from .numerics import (
    FrequencyGrid,
    TimeGrid,
    _ChirpZ,
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
            if not (energy > 0 and np.isfinite(energy)):
                raise ValidationError(
                    f"MolecularSystem: transition energies must be finite and > 0, got {energy}"
                )
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
    if not amplitude_ref > 0:
        raise ValidationError(f"amplitude_ref must be > 0, got {amplitude_ref}")
    weights = trapezoid_weights(spectrum.grid.count, spectrum.grid.spacing)
    return weights * (spectrum.grid.points / amplitude_ref) * spectrum.values


def _hermitian(matrices: np.ndarray) -> np.ndarray:
    """Make each matrix exactly Hermitian in place: (b, a) = conj (a, b), the diagonal real."""
    a, b = np.triu_indices(matrices.shape[1], 1)
    matrices[:, b, a] = matrices[:, a, b].conj()
    diagonal = np.arange(matrices.shape[1])
    matrices[:, diagonal, diagonal] = matrices[:, diagonal, diagonal].real
    return matrices


def _check_switch_on(times: TimeGrid, caller: str) -> None:
    """Reject a time grid starting before the light switches on at t = 0."""
    if times.min < 0:
        raise ValidationError(f"{caller}: times must start at or after 0, got {times.min}")


def _level_phasors(mol: MolecularSystem, times: TimeGrid) -> np.ndarray:
    """exp(i eps_a t) for every level a and time t, shape (L, n_times)."""
    return np.exp(1j * np.outer(angular_frequency(mol.energies), times.points))


def _window_kernel(theta: np.ndarray, t: float) -> np.ndarray:
    """Finite-window response (exp(i*theta*t) - 1)/(i*theta), via the exact sinc form."""
    half = 0.5 * theta * t
    return t * np.exp(1j * half) * sinc(half)


#: Time steps between direct-form recomputations of the recurrence kernel.
_ANCHOR_STEPS = 256

#: Complex values in one block of stepped kernels: as many (L, n) rows as fit
#: go through one stacked matmul; a row larger than this is a block alone.
#: The shift identity's tables hold at most half of it per level.
_BLOCK_VALUES = 2**14

#: Detuning in rad/fs (about 530 cm^-1) below which the pairwise Fourier form
#: cancels too much: bins this close to some level are summed by the shift
#: identity instead.
_NEAR_THETA = 0.1

#: Time in fs from which the far bins are summed by the pairwise Fourier
#: form, so there |theta| t >= 0.1; before it they go through the recurrence.
_FOURIER_FROM = 1.0


def evolve_unconditional(
    mol: MolecularSystem,
    spectrum: PhotonSpectrum,
    times: TimeGrid,
    amplitude_ref: float,
) -> DensityTrajectory:
    """Raw excited-state trajectory under stationary light switched on at t = 0.

    Populations grow linearly once t exceeds the inverse spectral bandwidth;
    coherences between levels a and b rotate at their splitting.

    The frequency sums sum_n w_n conj(K_a,n) K_b,n of the window kernel are
    split by detuning. Bins within _NEAR_THETA of some level are summed at
    every time by the shift identity (see _shifted_overlaps); the other bins
    by the anchored recurrence before t = _FOURIER_FROM (1 fs), and from
    there on by one chirp-z transform per level pair (see
    _fourier_overlaps). On the fig2 grids the trajectory differs from one
    built with the direct sinc form at every step by at most 1.9e-15
    (source) and 2.2e-15 (5777 K black body) in relative Frobenius norm per
    time, and the t = 0 matrix is exactly zero; with five levels and 8,001
    times over 400 fs, by at most 1.3e-15.
    Each matrix is exactly Hermitian: the lower triangle is the conjugate of
    the upper one, and the diagonal is real.
    """
    _check_switch_on(times, "evolve_unconditional")
    weight = _amplitude_weight(spectrum, amplitude_ref)
    level_ang = angular_frequency(mol.energies)
    theta = angular_frequency(spectrum.grid.points)[None, :] - level_ang[:, None]
    far = np.all(np.abs(theta) >= _NEAR_THETA, axis=0)
    early = int(np.count_nonzero(times.points < _FOURIER_FROM))

    # conj_overlaps[k, a, b] = sum_n weight_n * conj(K_a,n) * K_b,n at times[k]
    conj_overlaps = _shifted_overlaps(theta[:, ~far], weight[~far], level_ang, times)
    conj_overlaps[:early] += _stepped_overlaps(theta[:, far], weight[far], times, early)
    fourier = _fourier_overlaps(theta[:, far], weight[far], far, mol, spectrum.grid, times)
    conj_overlaps[early:] += fourier[early:]

    splitting = level_ang[:, None] - level_ang[None, :]
    phase = np.exp(-1j * splitting * times.points[:, None, None])
    mu_outer = np.outer(mol.dipoles, mol.dipoles)
    return DensityTrajectory(times, _hermitian(mu_outer * phase * conj_overlaps))


def _stepped_overlaps(
    theta: np.ndarray, weight: np.ndarray, times: TimeGrid, count: int
) -> np.ndarray:
    """The frequency sums over the given bins at the first count times, by recurrence.

    The window kernel is stepped along the uniform time grid by the exact
    recurrence K(t + dt) = exp(i*theta*dt) * K(t) + K(theta, dt). Every
    _ANCHOR_STEPS steps, starting at the first time, it is recomputed from
    the direct sinc form, which bounds rounding drift on any grid length and
    keeps the t = 0 sums exactly zero. The steps go one time at a time into
    the rows of a block of at most _BLOCK_VALUES values (at least one row),
    and each block is summed by one stacked matmul: the same products as one
    matmul per time, bit for bit, with three calls per block instead of
    three per time.
    """
    levels, bins = theta.shape
    overlaps = np.zeros((count, levels, levels), dtype=complex)
    if bins == 0:
        return overlaps
    step = _window_kernel(theta, times.spacing)
    rot = np.exp(1j * theta * times.spacing)
    rows = max(1, min(count, _BLOCK_VALUES // (levels * bins)))
    # Both blocks are reused for every block of times: fresh arrays would
    # cost an allocation and page faults each time.
    block = np.empty((rows, levels, bins), dtype=complex)
    weighted = np.empty_like(block)
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        for j, k in enumerate(range(start, stop)):
            if k % _ANCHOR_STEPS == 0:
                # Row by row, so the temporaries of the direct form are one
                # level long; this keeps the peak resident set down.
                for level in range(levels):
                    block[j, level] = _window_kernel(theta[level], times.points[k])
            else:
                np.multiply(kernel, rot, out=block[j])
                block[j] += step
            kernel = block[j]
        size = stop - start
        np.conjugate(block[:size], out=weighted[:size])
        weighted[:size] *= weight
        np.matmul(weighted[:size], block[:size].transpose(0, 2, 1), out=overlaps[start:stop])
    return overlaps


def _shifted_overlaps(
    theta: np.ndarray, weight: np.ndarray, level_ang: np.ndarray, times: TimeGrid
) -> np.ndarray:
    """The frequency sums over the given bins at every time, by the shift identity.

    The window kernel obeys K(t0 + s) = R(s) K(t0) + K(s) exactly, with
    R = exp(i*theta*s); with K(s)/R(s) = -K(-s) = conj(K(s)) this is
    K(t0 + s) = R(s) (K(t0) + conj(K(s))). The times split into M block
    starts t0 = times[m*W] and W offsets s = j*dt, W = ceil(sqrt(T)). Since
    conj(R_a) R_b = exp(i(eps_a - eps_b)s) on every bin, the sum of pair
    a <= b is

        S_ab(t0 + s) = exp(i(eps_a - eps_b)s) [S_ab(t0) + conj(S_ab(s))
                       + conj(P_ba(s, t0)) + P_ab(s, t0)],

    P_xy = K_x(s)(s, n) @ [w K_y(t0)](n, t0). One (L*W x n) @ (n x L*M)
    matrix product gives every P_xy of a chunk of bins, at all times at
    once. Every K comes from the direct sinc form, so nothing drifts, and
    the t = 0 sums are exactly zero. The bins go in chunks small enough
    that each level's (W, n) or (n, M) table holds at most _BLOCK_VALUES // 2
    values. W itself is never cut to fit the cap: a narrower W means more
    products, and at W = 1 one product per time again. Only the entries
    a <= b are formed, the others stay zero.
    """
    levels, bins = theta.shape
    width = isqrt(times.count - 1) + 1
    starts = times.points[::width]
    offsets = times.spacing * np.arange(width)
    products = np.zeros((levels * width, levels * starts.size), dtype=complex)
    at_starts = np.zeros((starts.size, levels, levels), dtype=complex)
    at_offsets = np.zeros((width, levels, levels), dtype=complex)
    chunk = max(1, _BLOCK_VALUES // 2 // width)
    for first in range(0, bins, chunk):
        part, w = theta[:, first : first + chunk], weight[first : first + chunk]
        offset_kernel = np.empty((levels, width, w.size), dtype=complex)
        start_kernel = np.empty((w.size, levels, starts.size), dtype=complex)
        # Level by level, so the temporaries of the direct form are one level long.
        for level, detuning in enumerate(part):
            offset_kernel[level] = _window_kernel(detuning, offsets[:, None])
            start_kernel[:, level] = _window_kernel(detuning[:, None], starts)
        by_offset = offset_kernel.transpose(1, 0, 2)
        at_offsets += (by_offset.conj() * w) @ by_offset.transpose(0, 2, 1)
        weighted = start_kernel * w[:, None, None]
        products += offset_kernel.reshape(-1, w.size) @ weighted.reshape(w.size, -1)
        at_starts += weighted.transpose(2, 1, 0).conj() @ start_kernel.transpose(2, 0, 1)
        # Freed before the next chunk's tables are built, not after.
        del offset_kernel, by_offset, start_kernel, weighted
    products = products.reshape(levels, width, levels, starts.size)
    overlaps = np.zeros((times.count, levels, levels), dtype=complex)
    for a in range(levels):
        for b in range(a, levels):
            cross = (products[a, :, b] + products[b, :, a].conj()).T
            shift = np.exp(1j * (level_ang[a] - level_ang[b]) * offsets)
            summed = (cross + at_starts[:, a, b, None] + at_offsets[:, a, b].conj()) * shift
            overlaps[:, a, b] = summed.ravel()[: times.count]
    return overlaps


def _fourier_overlaps(
    theta: np.ndarray,
    weight: np.ndarray,
    far: np.ndarray,
    mol: MolecularSystem,
    grid: FrequencyGrid,
    times: TimeGrid,
) -> np.ndarray:
    """The sums over the far bins at every time, one chirp-z transform per level pair a <= b.

    With theta_a,n = w_n - eps_a the summand has the closed form

        conj(K_a) K_b = [exp(i(eps_a - eps_b)t) + 1 - exp(-i theta_a t)
                         - exp(i theta_b t)] / (theta_a theta_b),

    so with real c_n = weight_n / (theta_a,n theta_b,n) and the Fourier sum
    F(t) = sum_n c_n exp(-i w_n t) the pair's sum is

        C (exp(i(eps_a - eps_b)t) + 1) - exp(i eps_a t) F - exp(-i eps_b t) conj(F),

    C = sum_n c_n. theta and weight hold the far bins only, those at least
    _NEAR_THETA from every level, which far marks on the grid. The first
    time is folded into the coefficients. Only the entries a <= b are
    formed, the others stay zero. The four terms cancel where |theta t| is
    small, so the caller keeps the rows from t = _FOURIER_FROM = 1 fs on,
    where |theta t| >= 0.1. From t = 1/_NEAR_THETA = 10 fs on each term, at
    most 1/_NEAR_THETA^2 <= t^2 in size, is no larger than the scale of the
    sum. Before 10 fs a term can be up to 100 times that scale, and the
    error is measured instead: on the fig2 grids the rows from 1 to 10 fs
    differ from the direct sinc form by at most 1.9e-15 (source) and 1.1e-15
    (5777 K) in relative Frobenius norm per time. Cut at 0.5 fs, the gap at
    the cut rose to 4.9e-15, so the cut stays at 1 fs.
    """
    levels = theta.shape[0]
    shift = np.exp(-1j * angular_frequency(grid.points[far]) * times.min)
    phasors = _level_phasors(mol, times)
    synthesize = _ChirpZ(grid, times.spacing, times.count)
    coefficients = np.zeros(grid.count, dtype=complex)
    overlaps = np.zeros((times.count, levels, levels), dtype=complex)
    for a in range(levels):
        for b in range(a, levels):
            c = weight / (theta[a] * theta[b])
            coefficients[far] = c * shift
            fourier = synthesize(coefficients)
            into_a, out_of_b = phasors[a], phasors[b].conj()
            overlaps[:, a, b] = (
                c.sum() * (into_a * out_of_b + 1.0)
                - into_a * fourier
                - out_of_b * fourier.conj()
            )
    return overlaps


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
    return DensityTrajectory(traj.times, traj.matrices / reference)
