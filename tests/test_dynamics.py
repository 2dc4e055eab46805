import tracemalloc

import numpy as np
import pytest

import pseudosun as ps
from pseudosun.dynamics import (
    _ANCHOR_STEPS,
    _BLOCK_VALUES,
    _FOURIER_FROM,
    _NEAR_THETA,
    _amplitude_weight,
    _shifted_overlaps,
    _stepped_overlaps,
    _window_kernel,
)
from pseudosun.numerics import C_CM_PER_FS, angular_frequency

from conftest import (
    AMP_REF,
    DYN_GRID,
    ONE_LEVEL,
    REF_PDC,
    TIMES_100,
    TWO_LEVEL,
    structural_checks,
)
from locks import RHO11_RAW_SLOPE
from oracles import (
    correlation_cw,
    evolve_by_double_quadrature,
    relative_frobenius,
    stepped_overlaps_per_step,
)


def small_spectrum(count=161):
    return ps.mean_photon_number(ps.FrequencyGrid(15000.0, 21000.0, count), REF_PDC)


def evolve_by_direct_kernel(mol, spectrum, times, amplitude_ref):
    """Reference trajectory with the window kernel evaluated directly at every time."""
    weight = _amplitude_weight(spectrum, amplitude_ref)
    level_ang = angular_frequency(mol.energies)
    theta = angular_frequency(spectrum.grid.points)[None, :] - level_ang[:, None]
    mu_outer = np.outer(mol.dipoles, mol.dipoles)
    matrices = np.empty((times.count, mol.size, mol.size), dtype=complex)
    for k, t in enumerate(times.points):
        kernel = _window_kernel(theta, t)
        overlap = (kernel * weight) @ kernel.conj().T
        phase = np.exp(-1j * (level_ang[:, None] - level_ang[None, :]) * t)
        matrices[k] = mu_outer * phase * overlap.conj()
    return matrices


class TestTypes:
    def test_molecule_validation(self):
        with pytest.raises(ps.ValidationError):
            ps.MolecularSystem(())
        with pytest.raises(ps.ValidationError):
            ps.MolecularSystem(((0.0, 1.0),))

    @pytest.mark.parametrize("dipole", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_dipole_rejected(self, dipole):
        with pytest.raises(ps.ValidationError, match="dipoles must be finite"):
            ps.MolecularSystem(((18000.0, 1.0), (18500.0, dipole)))

    def test_infinite_energy_rejected(self):
        with pytest.raises(ps.ValidationError):
            ps.MolecularSystem(((float("inf"), 1.0),))

    def test_trajectory_shape_validation(self):
        times = ps.TimeGrid(0.0, 1.0, 3)
        with pytest.raises(ps.ValidationError):
            ps.DensityTrajectory(times, np.zeros((2, 2, 2), dtype=complex))
        with pytest.raises(ps.ValidationError):
            ps.DensityTrajectory(times, np.zeros((3, 2, 3), dtype=complex))


def constant_trajectory(matrix):
    times = ps.TimeGrid(0.0, 1.0, 3)
    return ps.DensityTrajectory(times, np.stack([np.asarray(matrix, dtype=complex)] * times.count))


def fig3a_rect_average():
    rect = ps.FieldMethod.RECT_APPROX
    return ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, TIMES_100, 64, method=rect)


def fig3a_rect_herald():
    field = ps.heralded_field(TIMES_100, 50.0, REF_PDC, method=ps.FieldMethod.RECT_APPROX)
    return ps.evolve_heralded(TWO_LEVEL, field)


@pytest.mark.parametrize(
    "build, metric, low, high",
    [
        (lambda: constant_trajectory([[1, 0.5j], [0.5j, 1]]), "hermiticity_defect", 1.0, 1.0),
        (lambda: constant_trajectory(np.diag([1.0, -0.25])), "min_eigenvalue", -0.25, -0.25),
        (lambda: constant_trajectory(np.diag([1.0, 0.5])), "rank1_defect", 0.5, 0.5),
        (fig3a_rect_average, "rank1_defect", 0.1, np.inf),
        (fig3a_rect_herald, "rank1_defect", 0.0, 1e-10),
    ],
    ids=["skew-hermitian", "negative-eigenvalue", "rank-two", "herald-average", "single-herald"],
)
def test_health_metric_reads_defect(build, metric, low, high):
    """Each health metric reports the defect it was built to catch, on plain trajectories."""
    assert low <= getattr(build(), metric)() <= high


class TestCorrelation:
    def test_equal_times_gives_weighted_mass(self):
        spectrum = small_spectrum()
        value = correlation_cw(3.7, 3.7, spectrum, AMP_REF)
        assert value.imag == 0.0
        assert value.real > 0.0

    def test_hermitian_symmetry(self):
        spectrum = small_spectrum()
        for t2, t1 in ((0.0, 5.0), (12.3, 4.56), (80.0, 79.5)):
            forward = correlation_cw(t2, t1, spectrum, AMP_REF)
            backward = correlation_cw(t1, t2, spectrum, AMP_REF)
            assert abs(forward - np.conj(backward)) <= 1e-12 * abs(forward)

    def test_single_mode_spectrum_is_pure_phase(self):
        grid = ps.FrequencyGrid(17000.0, 19000.0, 21)
        values = np.zeros(21)
        values[10] = 0.5
        spectrum = ps.PhotonSpectrum(grid, values)
        omega0 = grid.points[10]
        base = correlation_cw(0.0, 0.0, spectrum, AMP_REF)
        for delta in (1.0, 7.5, 33.0):
            got = correlation_cw(delta, 0.0, spectrum, AMP_REF)
            assert abs(got) == pytest.approx(abs(base), rel=1e-12)
            expected = base * np.exp(1j * angular_frequency(omega0) * delta)
            assert got == pytest.approx(expected, rel=1e-12)


class TestEvolveUnconditional:
    def test_zero_at_turn_on(self, fig2_pdc_trajectory):
        assert np.all(fig2_pdc_trajectory.matrices[0] == 0.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ps.ValidationError):
            ps.evolve_unconditional(
                TWO_LEVEL, small_spectrum(), ps.TimeGrid(-1.0, 10.0, 5), AMP_REF
            )

    def test_single_level_linear_growth_with_locked_slope(self):
        spectrum = ps.mean_photon_number(DYN_GRID, REF_PDC)
        traj = ps.evolve_unconditional(ONE_LEVEL, spectrum, TIMES_100, amplitude_ref=AMP_REF)
        t = TIMES_100.points
        half = t >= 50.0
        population = traj.matrices[half, 0, 0].real
        design = np.vstack([t[half], np.ones(half.sum())]).T
        coef, *_ = np.linalg.lstsq(design, population, rcond=None)
        predicted = design @ coef
        ss_res = np.sum((population - predicted) ** 2)
        ss_tot = np.sum((population - population.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.999
        assert coef[0] == pytest.approx(RHO11_RAW_SLOPE, rel=1e-9)

    def test_coherence_oscillation_period(self, fig2_pdc_trajectory):
        t = TIMES_100.points
        re12 = fig2_pdc_trajectory.matrices[:, 0, 1].real
        mask = t >= 5.0
        tm, rm = t[mask], re12[mask]
        sign_change = np.where(np.sign(rm[:-1]) * np.sign(rm[1:]) < 0)[0]
        crossings = tm[sign_change] - rm[sign_change] * (tm[sign_change + 1] - tm[sign_change]) / (
            rm[sign_change + 1] - rm[sign_change]
        )
        assert len(crossings) >= 2
        period = 2.0 * np.mean(np.diff(crossings))
        expected = 1.0 / (C_CM_PER_FS * 500.0)
        assert abs(period - expected) / expected < 0.02

    def test_coherence_carrier_is_level_splitting(self, fig2_pdc_trajectory):
        # the squared coherence rotates at exactly the level splitting
        t = TIMES_100.points
        mask = t >= 10.0
        phase = np.unwrap(np.angle(fig2_pdc_trajectory.matrices[mask, 0, 1] ** 2))
        slope = np.polyfit(t[mask], phase, 1)[0]
        expected = angular_frequency(500.0)
        assert abs(abs(slope) - expected) / expected < 1e-6

    def test_dft_peak_at_level_splitting(self, fig2_pdc_trajectory):
        t = TIMES_100.points
        mask = t >= 10.0
        signal = fig2_pdc_trajectory.matrices[mask, 0, 1]
        signal = signal - signal.mean()
        # e^{-i omega t} content shows up at +omega after conjugation
        amplitudes = np.fft.fft(signal.conj())
        freqs = np.fft.fftfreq(signal.size, d=TIMES_100.spacing) / C_CM_PER_FS
        peak = freqs[np.argmax(np.abs(amplitudes))]
        bin_width = freqs[1] - freqs[0]
        assert abs(peak - (-500.0)) <= bin_width

    def test_golden_rule_slope_constancy(self, fig2_pdc_trajectory):
        t = TIMES_100.points
        population = fig2_pdc_trajectory.matrices[:, 0, 0].real
        first = (t >= 50.0) & (t <= 75.0)
        second = t >= 75.0
        slope_a = np.polyfit(t[first], population[first], 1)[0]
        slope_b = np.polyfit(t[second], population[second], 1)[0]
        assert abs(slope_a - slope_b) / slope_b < 0.01

    def test_matches_double_time_quadrature_oracle(self):
        spectrum = small_spectrum(81)
        times = ps.TimeGrid(0.0, 40.0, 9)
        main = ps.evolve_unconditional(TWO_LEVEL, spectrum, times, amplitude_ref=AMP_REF)
        oracle = evolve_by_double_quadrature(TWO_LEVEL, spectrum, times, AMP_REF, substeps=1200)
        assert relative_frobenius(main.matrices, oracle) < 1e-6

    def test_structural_invariants(self, fig2_pdc_trajectory):
        normalized = ps.normalize_trajectory(
            fig2_pdc_trajectory, ps.NormalizationMode.MAX_REPART_OFFDIAG
        )
        structural_checks(normalized)


class TestRecurrenceKernel:
    """The whole trajectory against the direct form at every time: long, late, theta = 0."""

    GRIDS = {
        "long": (ps.TimeGrid(0.0, 2000.0, 20001), 101),
        "late_start": (ps.TimeGrid(3.7, 61.3, 1201), 161),
        "theta_zero": (ps.TimeGrid(0.0, 80.0, 801), 161),
    }

    def test_grids_cover_their_cases(self):
        assert self.GRIDS["long"][0].count > 50 * _ANCHOR_STEPS
        # 18000 cm^-1 is grid point 80 of 15000-21000 with 161 points
        points = small_spectrum(self.GRIDS["theta_zero"][1]).grid.points
        theta = angular_frequency(points) - angular_frequency(TWO_LEVEL.energies[0])
        assert np.count_nonzero(theta == 0.0) == 1

    @pytest.mark.parametrize("name", list(GRIDS))
    def test_matches_direct_kernel(self, name):
        times, count = self.GRIDS[name]
        spectrum = small_spectrum(count)
        got = ps.evolve_unconditional(TWO_LEVEL, spectrum, times, AMP_REF).matrices
        want = evolve_by_direct_kernel(TWO_LEVEL, spectrum, times, AMP_REF)
        assert relative_frobenius(got, want) <= 1e-12
        # exactly zero at turn-on, nowhere zero on a grid that starts later
        assert np.all(got[0] == 0.0) if times.min == 0.0 else np.all(got[0] != 0.0)


FIVE_LEVEL = ps.MolecularSystem(
    ((15400.0, 0.8), (16700.0, -0.5), (18000.0, 1.0), (19300.0, 0.3), (20700.0, 0.9))
)


class TestSteppedBlocks:
    """The blocked recurrence against the per-step loop, bit for bit, and its memory."""

    LEVELS = {1: ONE_LEVEL, 2: TWO_LEVEL, 5: FIVE_LEVEL}

    @staticmethod
    def bins(mol, spectrum):
        level_ang = angular_frequency(mol.energies)
        theta = angular_frequency(spectrum.grid.points)[None, :] - level_ang[:, None]
        return theta, _amplitude_weight(spectrum, AMP_REF)

    @pytest.mark.parametrize("start", [0.0, 3.0])
    @pytest.mark.parametrize("levels", list(LEVELS))
    def test_bit_identical_to_per_step_loop(self, levels, start):
        theta, weight = self.bins(self.LEVELS[levels], small_spectrum(321))
        times = ps.TimeGrid(start, start + 500.0, 5001)
        rows = _BLOCK_VALUES // theta.size
        assert 2 < rows < _ANCHOR_STEPS
        want = stepped_overlaps_per_step(theta, weight, times, times.count)
        counts = (1, 2, rows - 1, rows, rows + 1, _ANCHOR_STEPS - 1, _ANCHOR_STEPS + 1, 5001)
        for count in counts:
            got = _stepped_overlaps(theta, weight, times, count)
            assert np.array_equal(got, want[:count]), count
        assert np.all(want[0] == 0.0) if start == 0.0 else np.all(want[0] != 0.0)

    def test_peak_memory_is_a_few_rows(self):
        """On fig2's far bins a row is one block: the peak stays a few (L, n) rows.

        Building the step kernel takes about six rows of temporaries; a block of
        three or more rows would push the peak past seven.
        """
        theta, weight = self.bins(TWO_LEVEL, ps.mean_photon_number(DYN_GRID, REF_PDC))
        far = np.all(np.abs(theta) >= _NEAR_THETA, axis=0)
        theta, weight = theta[:, far].copy(), weight[far].copy()
        assert theta.shape == (2, 7659)
        tracemalloc.start()
        try:
            overlaps = _stepped_overlaps(theta, weight, TIMES_100, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row = theta.size * np.dtype(complex).itemsize
        assert peak - overlaps.nbytes <= 7 * row


TIMES_80 = ps.TimeGrid(0.0, 80.0, 801)


class TestShiftedOverlaps:
    """The shift-identity sums against the direct kernel at every time, and their memory."""

    @staticmethod
    def direct(theta, weight, times):
        """sum_n weight_n conj(K_a,n) K_b,n at every time, entries a <= b only."""
        overlaps = np.empty((times.count, theta.shape[0], theta.shape[0]), dtype=complex)
        for k, t in enumerate(times.points):
            kernel = _window_kernel(theta, t)
            overlaps[k] = (kernel.conj() * weight) @ kernel.T
        return np.triu(overlaps)

    @staticmethod
    def shifted(mol, spectrum, times, bins=slice(None)):
        theta, weight = TestSteppedBlocks.bins(mol, spectrum)
        theta, weight = theta[:, bins], weight[bins]
        got = _shifted_overlaps(theta, weight, angular_frequency(mol.energies), times)
        assert got.shape == (times.count, mol.size, mol.size)
        assert relative_frobenius(got, TestShiftedOverlaps.direct(theta, weight, times)) <= 1e-12
        return got

    # 16 is a perfect square, 17 one more; W * M exceeds T at 3 (2 * 2), 7 (3 * 3) and 17 (5 * 4)
    @pytest.mark.parametrize("count", [2, 3, 7, 16, 17])
    def test_time_counts(self, count):
        self.shifted(TWO_LEVEL, small_spectrum(161), ps.TimeGrid(0.0, 50.0, count))

    @pytest.mark.parametrize("start", [0.0, 3.7])
    @pytest.mark.parametrize("levels", list(TestSteppedBlocks.LEVELS))
    def test_levels_and_starts(self, levels, start):
        mol = TestSteppedBlocks.LEVELS[levels]
        got = self.shifted(mol, small_spectrum(321), ps.TimeGrid(start, start + 60.0, 601))
        # exactly zero at turn-on; on a later grid no formed entry is zero
        upper = np.triu_indices(levels)
        assert np.all(got[0] == 0.0) if start == 0.0 else np.all(got[0][upper] != 0.0)

    def test_no_bins(self):
        got = self.shifted(FIVE_LEVEL, small_spectrum(161), TIMES_80, bins=slice(0))
        assert np.all(got == 0.0)

    def test_several_chunks(self):
        spectrum = small_spectrum(1601)
        width = int(np.ceil(np.sqrt(TIMES_80.count)))
        assert spectrum.grid.count > 3 * (_BLOCK_VALUES // 2 // width)
        self.shifted(TWO_LEVEL, spectrum, TIMES_80)

    def test_peak_memory_is_a_few_tables(self):
        """On fig2's near bins the peak stays the result plus a few _BLOCK_VALUES tables.

        At two levels the offset, start and weighted start kernels hold one table
        each; the summed products and two temporaries of one chunk add under three.
        """
        theta, weight = TestSteppedBlocks.bins(TWO_LEVEL, ps.mean_photon_number(DYN_GRID, REF_PDC))
        near = np.any(np.abs(theta) < _NEAR_THETA, axis=0)
        theta, weight = theta[:, near].copy(), weight[near].copy()
        level_ang = angular_frequency(TWO_LEVEL.energies)
        assert theta.shape == (2, 533)
        tracemalloc.start()
        try:
            overlaps = _shifted_overlaps(theta, weight, level_ang, TIMES_100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = _BLOCK_VALUES * np.dtype(complex).itemsize
        assert peak - overlaps.nbytes <= 6 * table


def near_far_split(mol, spectrum, times):
    """Bins within _NEAR_THETA of some level, bins beyond it, and rows before _FOURIER_FROM."""
    level_ang = angular_frequency(mol.energies)
    theta = angular_frequency(spectrum.grid.points)[None, :] - level_ang[:, None]
    near = int(np.count_nonzero(np.any(np.abs(theta) < _NEAR_THETA, axis=0)))
    early = int(np.count_nonzero(times.points < _FOURIER_FROM))
    return near, spectrum.grid.count - near, early


class TestNearFarSplit:
    """Shift identity near the levels, recurrence early, chirp-z pair sums elsewhere, vs direct."""

    # name: (molecule, spectrum, times, any of (near bins, far bins, early rows, late rows))
    CASES = {
        "five_levels": (FIVE_LEVEL, small_spectrum(321), TIMES_80, (True, True, True, True)),
        "no_near_bins": (
            ps.MolecularSystem(((10000.0, 1.0), (10500.0, 0.6))),
            small_spectrum(161),
            TIMES_80,
            (False, True, True, True),
        ),
        "all_near": (
            TWO_LEVEL,
            ps.mean_photon_number(ps.FrequencyGrid(17800.0, 18700.0, 46), REF_PDC),
            TIMES_80,
            (True, False, True, True),
        ),
        "early_only": (
            TWO_LEVEL, small_spectrum(161), ps.TimeGrid(0.0, 0.95, 20), (True, True, True, False)
        ),
        "across_cut": (
            TWO_LEVEL, small_spectrum(161), ps.TimeGrid(0.0, 9.5, 191), (True, True, True, True)
        ),
        "late_start": (
            TWO_LEVEL, small_spectrum(161), ps.TimeGrid(12.0, 92.0, 801), (True, True, False, True)
        ),
        "blackbody": (
            TWO_LEVEL,
            ps.thermal_mean(ps.FrequencyGrid(15000.0, 21000.0, 161), ps.ThermalParams(5777.0)),
            TIMES_80,
            (True, True, True, True),
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_grids_cover_their_cases(self, name):
        mol, spectrum, times, expected = self.CASES[name]
        near, far, early = near_far_split(mol, spectrum, times)
        assert (near > 0, far > 0, early > 0, early < times.count) == expected

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_direct_kernel(self, name, monkeypatch):
        mol, spectrum, times, _ = self.CASES[name]
        counts = []

        def stepped(theta, weight, times, count):
            counts.append(count)
            return _stepped_overlaps(theta, weight, times, count)

        monkeypatch.setattr(ps.dynamics, "_stepped_overlaps", stepped)
        got = ps.evolve_unconditional(mol, spectrum, times, AMP_REF).matrices
        want = evolve_by_direct_kernel(mol, spectrum, times, AMP_REF)
        assert relative_frobenius(got, want) <= 1e-12
        assert np.all(got[0] == 0.0) if times.min == 0.0 else np.all(got[0] != 0.0)
        # only the far bins before the cut step; the near bins are shifted
        assert counts == [near_far_split(mol, spectrum, times)[2]]


@pytest.mark.parametrize(
    "source", ["fig2_pdc_trajectory", "fig2_blackbody_trajectory", "five_levels"]
)
def test_unconditional_trajectory_is_exactly_hermitian(request, source):
    if source in TestNearFarSplit.CASES:
        mol, spectrum, times, _ = TestNearFarSplit.CASES[source]
        traj = ps.evolve_unconditional(mol, spectrum, times, AMP_REF)
    else:
        traj = request.getfixturevalue(source)
    assert_exactly_hermitian(traj)


@pytest.mark.parametrize("method", list(ps.FieldMethod), ids=lambda method: method.value)
@pytest.mark.parametrize(
    "heralds, start", [(1, 0.0), (9, 0.0), (9, 7.5)], ids=["single", "average", "average7.5"]
)
def test_heralded_trajectory_is_exactly_hermitian(method, heralds, start):
    times = ps.TimeGrid(start, 40.0, 801)
    if heralds == 1:
        field = ps.heralded_field(times, 20.0, REF_PDC, method=method)
        traj = ps.evolve_heralded(TWO_LEVEL, field)
    else:
        traj = ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, heralds, method=method)
    assert_exactly_hermitian(traj)


def assert_exactly_hermitian(traj):
    """The lower triangle is the conjugate of the upper one; populations are +0.0j exactly."""
    assert traj.hermiticity_defect() == 0.0
    populations_imag = np.diagonal(traj.matrices, axis1=1, axis2=2).imag
    assert np.all(populations_imag == 0.0)
    assert not np.any(np.signbit(populations_imag))


class TestBlackbody:
    def test_zero_at_turn_on(self, fig2_blackbody_trajectory):
        assert np.all(fig2_blackbody_trajectory.matrices[0] == 0.0)

    def test_cold_limit_is_dark(self, fig2_blackbody_trajectory):
        times = ps.TimeGrid(0.0, 100.0, 51)
        spectrum = ps.thermal_mean(DYN_GRID, ps.ThermalParams(1.0))
        cold = ps.evolve_unconditional(TWO_LEVEL, spectrum, times, amplitude_ref=AMP_REF)
        hot_scale = np.abs(fig2_blackbody_trajectory.matrices).max()
        assert np.abs(cold.matrices).max() < 1e-30 * hot_scale


class TestNormalize:
    def test_offdiag_mode_sets_peak_to_one(self, fig2_pdc_trajectory):
        normalized = ps.normalize_trajectory(
            fig2_pdc_trajectory, ps.NormalizationMode.MAX_REPART_OFFDIAG
        )
        assert normalized.matrices[:, 0, 1].real.max() == pytest.approx(1.0, abs=1e-12)
        # populations may legitimately exceed the coherence peak
        assert normalized.matrices[:, 0, 0].real.max() > 1.0

    def test_idempotent(self, fig2_pdc_trajectory):
        once = ps.normalize_trajectory(fig2_pdc_trajectory, ps.NormalizationMode.MAX_DIAG)
        twice = ps.normalize_trajectory(once, ps.NormalizationMode.MAX_DIAG)
        assert np.max(np.abs(twice.matrices - once.matrices)) <= 1e-12

    def test_scale_invariant(self, fig2_pdc_trajectory):
        scaled = ps.DensityTrajectory(TIMES_100, 7.3 * fig2_pdc_trajectory.matrices)
        a = ps.normalize_trajectory(scaled, ps.NormalizationMode.MAX_DIAG)
        b = ps.normalize_trajectory(fig2_pdc_trajectory, ps.NormalizationMode.MAX_DIAG)
        assert np.max(np.abs(a.matrices - b.matrices)) <= 1e-12

    def test_argmax_unchanged(self, fig2_pdc_trajectory):
        normalized = ps.normalize_trajectory(fig2_pdc_trajectory, ps.NormalizationMode.MAX_DIAG)
        raw_entry = fig2_pdc_trajectory.matrices[:, 0, 1].real
        assert np.argmax(normalized.matrices[:, 0, 1].real) == np.argmax(raw_entry)

    def test_raw_mode_returns_unchanged(self, fig2_pdc_trajectory):
        assert ps.normalize_trajectory(fig2_pdc_trajectory, ps.NormalizationMode.RAW) is (
            fig2_pdc_trajectory
        )

    def test_single_level_has_no_offdiag_reference(self):
        spectrum = small_spectrum()
        traj = ps.evolve_unconditional(
            ONE_LEVEL, spectrum, ps.TimeGrid(0.0, 10.0, 11), AMP_REF
        )
        with pytest.raises(ps.NormalizationError):
            ps.normalize_trajectory(traj, ps.NormalizationMode.MAX_REPART_OFFDIAG)

    def test_all_zero_cannot_normalize(self):
        times = ps.TimeGrid(0.0, 1.0, 3)
        zero = ps.DensityTrajectory(times, np.zeros((3, 2, 2), dtype=complex))
        with pytest.raises(ps.NormalizationError):
            ps.normalize_trajectory(zero, ps.NormalizationMode.MAX_DIAG)
