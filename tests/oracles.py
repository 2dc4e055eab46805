"""Independent brute-force oracles used to cross-check the production paths.

Everything here deliberately avoids the closed forms used by the package:
the mean photon number is summed from the probability mass function, the
field correlation function is a direct frequency sum, the density-matrix
evolution is a direct double-time quadrature of that correlation, the
exact heralded field is a dense T x N phase-matrix sum (and the same sum
through scipy's chirp-z transform), and the coincidence quadratic form is
an explicit double loop. The running sums of the unconditional dynamics
are kept here as a plain loop, one addition per step, as the reference the
package's blocked sums must match bit for bit. The herald phase exp(i w_n s)
is evaluated in extended precision, and the heralded rank-one builder is
kept in its allocate-per-field form, as the reference the package's builder
must match bit for bit. The fit's simplex search is kept with its vertices
as a list of numpy arrays, sorted as tuples, as the reference the package's
search over tuples of Python floats must match candidate for candidate and
result for result.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.signal import czt, fftconvolve

from pseudosun import (
    FrequencyGrid,
    MolecularSystem,
    PdcParams,
    PhotonSpectrum,
    TimeGrid,
    squeeze_profile,
)
from pseudosun.dynamics import _hermitian, _level_phasors
from pseudosun.fitting import (
    _CONTRACT,
    _EXPAND,
    _INITIAL_STEP,
    _REFLECT,
    _SHRINK,
    FitProblem,
    FitResult,
    PARAM_ORDER,
    fit_objective,
)
from pseudosun.numerics import C_CM_PER_FS, angular_frequency, trapezoid_weights


def pmf_mean(zeta: float, n_max: int) -> float:
    """Mean photon number summed term by term from the geometric law."""
    n = np.arange(n_max + 1)
    return float(np.sum(n * (1.0 - zeta) * zeta**n))


def pmf_tail(zeta: float, n_max: int) -> float:
    """Mass of the geometric law beyond n_max."""
    return zeta ** (n_max + 1)


def coupling_weight(spectrum: PhotonSpectrum, amplitude_ref: float) -> np.ndarray:
    """Trapezoid weight times nu / amplitude_ref times the mean photon number."""
    grid = spectrum.grid
    weights = trapezoid_weights(grid.count, grid.spacing)
    return weights * (grid.points / amplitude_ref) * spectrum.values


def correlation_cw(t2: float, t1: float, spectrum: PhotonSpectrum, amplitude_ref: float) -> complex:
    """First-order field correlation of stationary light at a pair of times.

    Frequency sum of exp(i w (t2 - t1)) times the coupling-weighted mean
    photon number; Hermitian in its time arguments.
    """
    phases = np.exp(1j * angular_frequency(spectrum.grid.points) * (t2 - t1))
    return complex(np.dot(coupling_weight(spectrum, amplitude_ref), phases))


def evolve_by_double_quadrature(
    mol: MolecularSystem,
    spectrum: PhotonSpectrum,
    times: TimeGrid,
    amplitude_ref: float,
    substeps: int,
) -> np.ndarray:
    """Direct double-time quadrature of the turn-on evolution integral.

    Each reported time t is reached with substeps uniform trapezoid panels
    per reported-time interval, so every tau sample lies on one global
    lattice and the correlation function is tabulated once. The Toeplitz
    double sum is evaluated through an FFT convolution, which reorganizes
    the same sum without changing the quadrature.
    """
    n_report = times.count
    dt = times.spacing / substeps
    n_lattice = (n_report - 1) * substeps

    # Correlation table G(k * dt) on the difference lattice, spot-checked
    # against correlation_cw below so the table provably matches it.
    weight = coupling_weight(spectrum, amplitude_ref)
    omega = angular_frequency(spectrum.grid.points)
    lags = np.arange(n_lattice + 1) * dt
    table = np.empty(n_lattice + 1, dtype=complex)
    chunk = 16384
    for start in range(0, n_lattice + 1, chunk):
        table[start : start + chunk] = (
            np.exp(1j * np.outer(lags[start : start + chunk], omega)) @ weight
        )
    for k in (0, min(7, n_lattice), n_lattice // 2):
        expected = correlation_cw(float(lags[k]), 0.0, spectrum, amplitude_ref)
        assert abs(table[k] - expected) <= 1e-10 * max(abs(expected), 1e-300)
    full = np.concatenate([table[1:][::-1].conj(), table])  # index n_lattice + k

    level_ang = angular_frequency(mol.energies)
    mu = mol.dipoles
    dim = mol.size
    out = np.zeros((n_report, dim, dim), dtype=complex)
    for j in range(1, n_report):
        n_tau = j * substeps
        tau = np.arange(n_tau + 1) * dt
        w_tau = trapezoid_weights(n_tau + 1, dt)
        t_val = times.points[j]
        window = full[n_lattice - n_tau : n_lattice + n_tau + 1]
        convolved = {}
        for a in range(dim):
            right = w_tau * np.exp(1j * level_ang[a] * tau)
            convolved[a] = fftconvolve(window, right)[n_tau : 2 * n_tau + 1]
        for a in range(dim):
            for b in range(dim):
                left = w_tau * np.exp(-1j * level_ang[b] * tau)
                double_sum = np.dot(left, convolved[a])
                phase = np.exp(-1j * (level_ang[a] - level_ang[b]) * t_val)
                out[j, a, b] = mu[a] * mu[b] * phase * double_sum
    return out


def running_sum_per_step(values: np.ndarray, width: int) -> np.ndarray:
    """Cumulative sums along the last axis, one addition per step, in blocks of width steps.

    Each block's sums start from zero, and each entry adds the totals of the
    blocks before it, themselves summed one block after another.
    """
    out = np.empty_like(values)
    count = values.shape[-1]
    for row, into in zip(values.reshape(-1, count), out.reshape(-1, count)):
        offset = partial = 0j
        for k, value in enumerate(row):
            if k and k % width == 0:
                offset, partial = offset + partial, 0j
            partial += value
            into[k] = partial + offset
    return out


def field_profile(params: PdcParams, grid: FrequencyGrid) -> np.ndarray:
    """Trapezoid weight times sqrt(nu / nu_c) times tanh r(nu) on the field grid."""
    nu = grid.points
    return (
        trapezoid_weights(grid.count, grid.spacing)
        * np.sqrt(nu / params.signal_center)
        * np.tanh(squeeze_profile(nu, params))
    )


def dense_field(
    times: TimeGrid, herald_time: float, grid: FrequencyGrid, profile: np.ndarray
) -> np.ndarray:
    """Exact heralded field as the dense sum F(t_k) = sum_n p_n exp(-i w_n (t_k - t_h))."""
    delay = times.points - herald_time
    return np.exp(-1j * np.outer(delay, angular_frequency(grid.points))) @ profile


def czt_field(
    times: TimeGrid, herald_time: float, grid: FrequencyGrid, profile: np.ndarray
) -> np.ndarray:
    """The same sum through scipy.signal.czt.

    With tau_k = tau0 + k dtau and w_n = w0 + n dw, the sum is
    exp(-i w0 tau_k) sum_n p_n z_k^-n on the contour z_k = a w^-k,
    a = exp(i dw tau0), w = exp(-i dw dtau).
    """
    tau = times.points - herald_time
    tau0 = times.min - herald_time
    dw = angular_frequency(grid.spacing)
    transform = czt(
        profile, times.count, w=np.exp(-1j * dw * times.spacing), a=np.exp(1j * dw * tau0)
    )
    return np.exp(-1j * angular_frequency(grid.min) * tau) * transform


def herald_phase_extended(grid: FrequencyGrid, delay: float) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of w_n delay in np.longdouble, w_n = 2 pi c (min + n spacing).

    pi is the extended-precision value; c, the grid ends and the delay are
    the float64 values the package uses, converted exactly.
    """
    ld = np.longdouble
    spacing = (ld(grid.max) - ld(grid.min)) / (grid.count - 1)
    nu = ld(grid.min) + np.arange(grid.count) * spacing
    angle = 2 * np.arccos(ld(-1)) * ld(C_CM_PER_FS) * nu * ld(delay)
    return np.cos(angle), np.sin(angle)


def assemble_per_field(
    mol: MolecularSystem, times: TimeGrid, fields: list[np.ndarray]
) -> np.ndarray:
    """Mean of phi phi^dagger over the fields, each field's arrays allocated afresh.

    phi is the dipole-weighted cumulative trapezoid response of each level;
    the products for a <= b are summed into a (T, L, L) total, which is then
    divided by the field count and made exactly Hermitian.
    """
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
    return _hermitian(total / count)


def uniform_exact_average(
    mol: MolecularSystem,
    params: PdcParams,
    grid: FrequencyGrid,
    times: TimeGrid,
    herald_times: np.ndarray,
) -> np.ndarray:
    """Mean over herald_times of the exact field's rank-one trapezoid responses, at every row.

    Swapping the frequency and time sums, each herald's response of level a at t_k is
    mu_a e^{-i eps_a t_k} sum_n p_n e^{i w_n s} G_a,n(t_k), where G is the trapezoid sum of
    e^{i theta t} (theta = eps_a - w_n) over t_0..t_k in closed form, a geometric series:
    dt e^{i theta t_0} [(z^{k+1} - 1) / (z - 1) - (1 + z^k) / 2] with z = e^{i theta dt}. Both
    differences e^{iy} - 1 are taken as -2 sin^2(y/2) + i sin y. Bins with |z - 1| < 1e-2 add
    their steps one by one instead: near a level, and near an alias (y close to a nonzero
    multiple of 2 pi), where the rounding of y is no longer small against z - 1; at dt =
    0.08125 fs one such bin put the series 2.7e-12 of the average's largest entry off the
    step sum. As in perfbench/checks.py's exact_average, the herald times enter only through
    e^{i w_n s}. Unnormalized, shape (T, L, L).
    """

    def minus_one(y):
        return -2.0 * np.sin(0.5 * y) ** 2 + 1j * np.sin(y)

    omega = angular_frequency(grid.points)
    level = angular_frequency(mol.energies)
    t, dt = times.points, times.spacing
    k = np.arange(times.count, dtype=float)[:, None]
    shifted = np.exp(1j * np.outer(omega, herald_times)) * field_profile(params, grid)[:, None]
    phi = np.empty((mol.size, times.count, len(herald_times)), dtype=complex)
    for a in range(mol.size):
        theta = level[a] - omega
        ratio = minus_one(theta * dt)
        near = np.abs(ratio) < 1e-2
        ratio[near] = 1.0
        geometric = minus_one((k + 1) * theta * dt) / ratio
        ends = 0.5 * (1 + np.exp(1j * theta * k * dt))
        running = dt * np.exp(1j * theta * t[0]) * (geometric - ends)
        running[0, near] = 0.0
        for n in np.flatnonzero(near):
            steps = np.exp(1j * theta[n] * t)
            running[1:, n] = np.cumsum(0.5 * dt * (steps[1:] + steps[:-1]))
        phi[a] = mol.dipoles[a] * np.exp(-1j * level[a] * t)[:, None] * (running @ shifted)
    out = np.einsum("atj,btj->tab", phi, phi.conj()) / len(herald_times)
    return out


def quadratic_form_by_loops(mol: MolecularSystem, matrices: np.ndarray) -> np.ndarray:
    """Coincidence quadratic form evaluated with explicit python loops."""
    mu = mol.dipoles
    dim = mol.size
    out = np.empty(matrices.shape[0], dtype=complex)
    for k in range(matrices.shape[0]):
        total = 0.0 + 0.0j
        for a in range(dim):
            for b in range(dim):
                total += mu[a] * mu[b] * matrices[k, a, b]
        out[k] = total
    return out


def relative_frobenius(got: np.ndarray, want: np.ndarray) -> float:
    """Per-time-point Frobenius distance over reference norm; zero-zero counts as 0."""
    worst = 0.0
    for k in range(want.shape[0]):
        norm = np.linalg.norm(want[k])
        diff = np.linalg.norm(got[k] - want[k])
        if norm == 0.0:
            assert diff == 0.0
            continue
        worst = max(worst, diff / norm)
    return worst


def fit_by_vertex_list(
    problem: FitProblem, max_iters: int, tol: float
) -> tuple[FitResult, list[PdcParams]]:
    """The projected simplex search with its vertices as a list of arrays.

    Each step sorts (value, vertex tuple, vertex) triples and takes the
    diameter as the largest norm over the vertex pairs, one pair at a time.
    Returns the result and every candidate evaluated, in order.
    """
    names = [name for name in PARAM_ORDER if name in problem.free_params]
    lo = np.array([problem.bounds[name][0] for name in names])
    hi = np.array([problem.bounds[name][1] for name in names])
    span = hi - lo

    def to_params(u):
        values = {name: float(v) for name, v in zip(names, lo + np.clip(u, 0.0, 1.0) * span)}
        return dataclasses.replace(problem.initial, **values)

    candidates = []

    def evaluate(u):
        candidates.append(to_params(u))
        value = fit_objective(candidates[-1], problem)
        assert np.isfinite(value)
        return value

    def order():
        ranked = sorted(zip(values, (tuple(v) for v in simplex), simplex), key=lambda t: t[:2])
        return [t[2] for t in ranked], [t[0] for t in ranked]

    def diameter():
        return max(
            float(np.linalg.norm(a - b)) for i, a in enumerate(simplex) for b in simplex[i + 1 :]
        )

    u0 = (np.array([getattr(problem.initial, name) for name in names]) - lo) / span
    simplex = [u0]
    for k in range(len(names)):
        step = _INITIAL_STEP if u0[k] + _INITIAL_STEP <= 1.0 else -_INITIAL_STEP
        vertex = u0.copy()
        vertex[k] += step
        simplex.append(vertex)
    simplex = [np.clip(v, 0.0, 1.0) for v in simplex]
    values = [evaluate(v) for v in simplex]
    simplex, values = order()
    trace = [values[0]]
    iterations = 0
    converged = diameter() < tol
    while not converged and iterations < max_iters:
        iterations += 1
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = np.clip(centroid + _REFLECT * (centroid - worst), 0.0, 1.0)
        f_reflected = evaluate(reflected)
        if f_reflected < values[0]:
            expanded = np.clip(centroid + _EXPAND * (centroid - worst), 0.0, 1.0)
            f_expanded = evaluate(expanded)
            if (f_expanded, tuple(expanded)) < (f_reflected, tuple(reflected)):
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = np.clip(centroid + _CONTRACT * (reflected - centroid), 0.0, 1.0)
            else:
                contracted = np.clip(centroid - _CONTRACT * (centroid - worst), 0.0, 1.0)
            f_contracted = evaluate(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                best = simplex[0]
                simplex = [best] + [
                    np.clip(best + _SHRINK * (v - best), 0.0, 1.0) for v in simplex[1:]
                ]
                values = [values[0]] + [evaluate(v) for v in simplex[1:]]
        simplex, values = order()
        trace.append(values[0])
        converged = diameter() < tol
    result = FitResult(
        params=to_params(simplex[0]),
        objective_value=values[0],
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )
    return result, candidates
