import json
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import pseudosun as ps
from pseudosun.cli import main
from pseudosun.dynamics import _amplitude_weight, _build_kernel, _kernel, _running_sum
from pseudosun.numerics import C_CM_PER_FS, _ChirpZ, angular_frequency, sinc

from conftest import (
    AMP_REF,
    DYN_GRID,
    ONE_LEVEL,
    REF_PDC,
    SOLAR,
    TIMES_100,
    TWO_LEVEL,
    structural_checks,
)
from locks import RHO11_RAW_SLOPE
from oracles import (
    correlation_cw,
    evolve_by_double_quadrature,
    relative_frobenius,
    running_sum_per_step,
)


def small_spectrum(count=161):
    return ps.mean_photon_number(ps.FrequencyGrid(15000.0, 21000.0, count), REF_PDC)


def evolve_by_direct_kernel(mol, spectrum, times, amplitude_ref):
    """Reference trajectory with the window kernel evaluated directly at every time.

    The kernel is (exp(i theta t) - 1) / (i theta) in its exact sinc form,
    t exp(i theta t / 2) sinc(theta t / 2), with no step or lag sum.
    """
    weight = _amplitude_weight(spectrum, amplitude_ref)
    level_ang = angular_frequency(mol.energies)
    theta = angular_frequency(spectrum.grid.points)[None, :] - level_ang[:, None]
    mu_outer = np.outer(mol.dipoles, mol.dipoles)
    matrices = np.empty((times.count, mol.size, mol.size), dtype=complex)
    for k, t in enumerate(times.points):
        half = 0.5 * theta * t
        kernel = t * np.exp(1j * half) * sinc(half)
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

    @pytest.mark.parametrize("span", [1e-300, 1e-158])
    def test_step_whose_square_is_subnormal_rejected(self, span):
        with pytest.raises(ps.ValidationError, match=r"^times: the step .* is below 1\.5e-154 fs"):
            ps.evolve_unconditional(TWO_LEVEL, small_spectrum(), ps.TimeGrid(0.0, span, 5), AMP_REF)

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
        # on so coarse a frequency grid the lag sums repeat every 1/(c dnu), about
        # 556 fs, instead of decaying, and "long" spans more than three periods
        times, count = self.GRIDS["long"]
        period = 1.0 / (C_CM_PER_FS * small_spectrum(count).grid.spacing)
        assert times.max - times.min > 3 * period
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
    """The running sums over the time steps, in blocks, against a per-step loop, bit for bit."""

    LEVELS = {1: ONE_LEVEL, 2: TWO_LEVEL, 5: FIVE_LEVEL}

    @pytest.mark.parametrize("start", [0.0, 3.0])
    @pytest.mark.parametrize("levels", list(LEVELS))
    def test_bit_identical_to_per_step_loop(self, levels, start, monkeypatch):
        shapes = []

        def checked(values):
            got = _running_sum(values)
            width = math.ceil(math.sqrt(values.shape[-1]))
            assert np.array_equal(got, running_sum_per_step(values, width))
            shapes.append(values.shape)
            return got

        monkeypatch.setattr(ps.dynamics, "_running_sum", checked)
        times = ps.TimeGrid(start, start + 500.0, 5001)
        got = ps.evolve_unconditional(self.LEVELS[levels], small_spectrum(321), times, AMP_REF)
        # the lag sums of each pair a <= b into steps, then the steps into the sums
        pairs = levels * (levels + 1) // 2
        assert shapes == [(pairs, 5001), (pairs, 5000)]
        assert np.all(got.matrices[0] == 0.0) if start == 0.0 else np.all(got.matrices[0] != 0.0)


TIMES_80 = ps.TimeGrid(0.0, 80.0, 801)


class TestShiftedOverlaps:
    """The kernel's lag sums, overlaps of the one-step kernels shifted by whole steps, vs direct."""

    @staticmethod
    def matches_direct(mol, spectrum, times):
        got = ps.evolve_unconditional(mol, spectrum, times, AMP_REF).matrices
        want = evolve_by_direct_kernel(mol, spectrum, times, AMP_REF)
        assert relative_frobenius(got, want) <= 1e-12
        return got

    # 16 is a perfect square, 17 one more; the blocks of the running sums overrun
    # the times at 3 (2 * 2), 7 (3 * 3) and 17 (5 * 4)
    @pytest.mark.parametrize("count", [2, 3, 7, 16, 17])
    def test_time_counts(self, count):
        self.matches_direct(TWO_LEVEL, small_spectrum(161), ps.TimeGrid(0.0, 50.0, count))

    @pytest.mark.parametrize("start", [0.0, 3.7, 1000.0, 1e7])
    @pytest.mark.parametrize("levels", list(TestSteppedBlocks.LEVELS))
    def test_levels_and_starts(self, levels, start):
        mol = TestSteppedBlocks.LEVELS[levels]
        got = self.matches_direct(mol, small_spectrum(321), ps.TimeGrid(start, start + 60.0, 601))
        # exactly zero at turn-on; on a later grid no entry is zero
        assert np.all(got[0] == 0.0) if start == 0.0 else np.all(got[0] != 0.0)

    def test_no_bins(self):
        dark = ps.PhotonSpectrum(small_spectrum(161).grid, np.zeros(161))
        assert np.all(self.matches_direct(FIVE_LEVEL, dark, TIMES_80) == 0.0)

    def test_peak_memory_is_a_few_tables(self):
        """At five levels and 8,001 times the peak stays the result plus a few (L^2, T) tables.

        The lag sums, the steps, their sums and the phases of the pairs
        a <= b are 0.6 table each, and a later start adds the cross lag sums
        of every ordered pair, one table. The chirp-z buffers are 0.1 table.
        """
        spectrum = ps.mean_photon_number(DYN_GRID, REF_PDC)
        for start in (0.0, 3.7):
            times = ps.TimeGrid(start, start + 400.0, 8001)
            tracemalloc.start()
            try:
                traj = ps.evolve_unconditional(FIVE_LEVEL, spectrum, times, AMP_REF)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            table = FIVE_LEVEL.size**2 * times.count * np.dtype(complex).itemsize
            assert peak - traj.matrices.nbytes <= 6 * table, start


#: Detuning in rad/fs (about 530 cm^-1) that splits the bins near a level from those
#: far from all; the kernel treats both alike, and the cases below put bins on both sides.
NEAR_THETA = 0.1


def near_far_split(mol, spectrum, times):
    """Bins within NEAR_THETA of some level, the bins beyond it, and the times before 1 fs."""
    level_ang = angular_frequency(mol.energies)
    theta = angular_frequency(spectrum.grid.points)[None, :] - level_ang[:, None]
    near = int(np.count_nonzero(np.any(np.abs(theta) < NEAR_THETA, axis=0)))
    early = int(np.count_nonzero(times.points < 1.0))
    return near, spectrum.grid.count - near, early


class TestNearFarSplit:
    """Bins near a level and far from all, times before and after |theta| t = 0.1, vs direct."""

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
        calls = []
        synthesize = _ChirpZ.__call__

        def counted(self, coefficients, work):
            calls.append((coefficients.shape, coefficients.dtype.kind))
            return synthesize(self, coefficients, work)

        monkeypatch.setattr(_ChirpZ, "__call__", counted)
        got = ps.evolve_unconditional(mol, spectrum, times, AMP_REF).matrices
        want = evolve_by_direct_kernel(mol, spectrum, times, AMP_REF)
        assert relative_frobenius(got, want) <= 1e-12
        assert np.all(got[0] == 0.0) if times.min == 0.0 else np.all(got[0] != 0.0)
        # every bin goes through the one kernel: one transform of real coefficients per
        # pair a <= b and, from a start after 0, one per ordered pair of real sinc products
        # times the one delay table exp(-i theta (t0 + dt) / 2), hence complex
        bins = (spectrum.grid.count,)
        pairs = [(bins, "f")] * (mol.size * (mol.size + 1) // 2)
        assert calls == pairs + ([] if times.min == 0.0 else [(bins, "c")] * mol.size**2)


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


@pytest.mark.parametrize("light", ["pdc", "blackbody"])
@pytest.mark.parametrize("start, count", [(10.0, 601), (3.0, 741)], ids=["start10", "start3"])
def test_late_start_is_the_tail_of_the_trajectory_from_zero(light, start, count):
    # Both integrate from the switch-on at t = 0, so a trajectory on a grid from t0 is
    # the tail of the one from 0 on the same steps (fig2's grid, 0.05 fs steps to 40 fs).
    # Measured at most 1.1e-15 of the tail's largest entry (5777 K from 3 fs), and the
    # grids' times differ by up to 7e-15 fs; the bound keeps 9x headroom.
    spectrum = (ps.mean_photon_number(DYN_GRID, REF_PDC) if light == "pdc"
                else ps.thermal_mean(DYN_GRID, SOLAR))
    full = ps.evolve_unconditional(TWO_LEVEL, spectrum, ps.TimeGrid(0.0, 40.0, 801), AMP_REF)
    late = ps.evolve_unconditional(TWO_LEVEL, spectrum, ps.TimeGrid(start, 40.0, count), AMP_REF)
    tail = full.matrices[801 - count :]
    assert np.max(np.abs(late.matrices - tail)) <= 1e-14 * np.max(np.abs(tail))


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


class TestKernelCache:
    """The tables evolve_unconditional keeps for the last levels and grids, against fresh ones."""

    TIMES = {"fig2": TIMES_100, "five-levels-from-3fs": ps.TimeGrid(3.0, 103.0, 2001)}
    LEVELS = {"fig2": TWO_LEVEL, "five-levels-from-3fs": FIVE_LEVEL}

    @staticmethod
    def lights():
        return [ps.mean_photon_number(DYN_GRID, REF_PDC), ps.thermal_mean(DYN_GRID, SOLAR)]

    @pytest.mark.parametrize("name", list(TIMES))
    def test_warm_calls_equal_cold_calls_bit_for_bit(self, name):
        mol, times = self.LEVELS[name], self.TIMES[name]
        lights = self.lights()
        cold = []
        for spectrum in lights:
            _build_kernel.cache_clear()
            cold.append(ps.evolve_unconditional(mol, spectrum, times, AMP_REF).matrices.tobytes())
        # the source light and 5777 K, in the CLI's order, then the source again, all cache hits
        warm = [
            ps.evolve_unconditional(mol, spectrum, times, AMP_REF).matrices.tobytes()
            for spectrum in lights + lights[:1]
        ]
        assert _build_kernel.cache_info().hits == 3
        assert warm == cold + cold[:1]

    def test_negative_zero_start_after_positive_zero_writes_cold_bytes(self, tmp_path):
        # 0.0 == -0.0, so a key of the floats themselves would hand the -0.0 run the 0.0 tables
        block = json.loads(ps.example_config("fig2").read_text())["dynamics"]
        configs = {}
        for name, start in (("positive", 0.0), ("negative", -0.0)):
            block["times"]["min"] = start
            configs[name] = tmp_path / f"{name}.json"
            configs[name].write_text(json.dumps({"dynamics": block}))
        assert '"min": -0.0' in configs["negative"].read_text()

        def run(name, out):
            assert main(["dynamics", "--config", str(configs[name]), "--out", str(out)]) == 0
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        _build_kernel.cache_clear()
        run("positive", tmp_path / "positive")
        warm = run("negative", tmp_path / "warm")
        assert _build_kernel.cache_info().misses == 2
        _build_kernel.cache_clear()
        assert run("negative", tmp_path / "cold") == warm

    def test_cached_tables_are_read_only(self):
        kernel = _kernel(FIVE_LEVEL, DYN_GRID, self.TIMES["five-levels-from-3fs"])
        plan = kernel.plan
        tables = [plan.pre, plan.post, plan.kernel]
        tables += [value for value in vars(kernel).values() if isinstance(value, np.ndarray)]
        assert len(tables) == 3 + 7 and not hasattr(plan, "work")
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0

    def test_concurrent_calls_return_the_sequential_results(self):
        # each call synthesizes through a work buffer of its own; the shared plan has none
        mol, times = FIVE_LEVEL, self.TIMES["five-levels-from-3fs"]
        lights = self.lights()
        want = [ps.evolve_unconditional(mol, s, times, AMP_REF).matrices.tobytes() for s in lights]
        start = threading.Barrier(len(lights))

        def evolve(spectrum):
            start.wait()
            return [
                ps.evolve_unconditional(mol, spectrum, times, AMP_REF).matrices.tobytes()
                for _ in range(3)
            ]

        with ThreadPoolExecutor(len(lights)) as pool:
            got = list(pool.map(evolve, lights))
        assert got == [[bits] * 3 for bits in want]


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
