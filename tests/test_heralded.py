import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pseudosun as ps
from pseudosun.errors import FieldError
from pseudosun.heralded import _assemble, _field_profile, _field_source, _phase_tables
from pseudosun.numerics import C_CM_PER_FS, _ChirpZ, angular_frequency

from conftest import (
    AMP_REF,
    DYN_GRID,
    NARROW_PDC,
    ONE_LEVEL,
    REF_PDC,
    TIMES_100,
    TWO_LEVEL,
    rng,
)
from locks import EXACT_RECT_FIELD_L2
from oracles import (
    assemble_per_field,
    czt_field,
    dense_field,
    field_profile,
    herald_phase_extended,
    quadratic_form_by_loops,
)

RECT = ps.FieldMethod.RECT_APPROX
EXACT = ps.FieldMethod.EXACT_QUADRATURE
#: Three levels, one dipole negative: every pair a < b, and signs, in the assembly.
THREE_LEVEL = ps.MolecularSystem(((18000.0, 1.0), (18500.0, -0.7), (19200.0, 0.4)))


def support_l2_discrepancy(params, herald_time, count=4001):
    half = 0.5 * params.entanglement_time
    times = ps.TimeGrid(herald_time - half, herald_time + half, count)
    exact = ps.heralded_field(times, herald_time, params, method=EXACT)
    rect = ps.heralded_field(times, herald_time, params, method=RECT)
    num = np.trapezoid(np.abs(exact.amplitudes - rect.amplitudes) ** 2, dx=times.spacing)
    den = np.trapezoid(np.abs(exact.amplitudes) ** 2, dx=times.spacing)
    return float(np.sqrt(num / den))


class TestRectField:
    def test_box_profile(self):
        # grid chosen so the support edges 48.75 and 51.25 are sampled exactly
        times = ps.TimeGrid(45.0, 55.0, 161)
        field = ps.heralded_field(times, 50.0, REF_PDC, method=RECT)
        height = REF_PDC.gain / (C_CM_PER_FS * REF_PDC.entanglement_time)
        mods = np.abs(field.amplitudes)
        t = times.points
        inside = np.abs(t - 50.0) < 1.25
        outside = np.abs(t - 50.0) > 1.25
        edges = np.abs(t - 50.0) == 1.25
        assert np.allclose(mods[inside], height, rtol=1e-12)
        assert np.all(mods[outside] == 0.0)
        assert edges.sum() == 2
        assert np.allclose(mods[edges], 0.5 * height, rtol=1e-12)
        # one full entanglement time past the herald the field is gone
        assert mods[t == 52.5][0] == 0.0

    def test_carrier_phase(self):
        times = ps.TimeGrid(49.0, 51.0, 9)
        field = ps.heralded_field(times, 50.0, REF_PDC, method=RECT)
        delta = times.points - 50.0
        expected = np.exp(-1j * angular_frequency(REF_PDC.signal_center) * delta)
        residual = np.angle(field.amplitudes * np.conj(expected))
        assert np.max(np.abs(residual)) < 1e-9

    def test_time_translation_covariance(self):
        times = ps.TimeGrid(40.0, 60.0, 81)
        shifted_times = ps.TimeGrid(48.0, 68.0, 81)
        for method in (RECT, EXACT):
            base = ps.heralded_field(times, 50.0, REF_PDC, method=method)
            shifted = ps.heralded_field(shifted_times, 58.0, REF_PDC, method=method)
            assert np.array_equal(base.amplitudes, shifted.amplitudes)


class TestExactField:
    def test_matches_rect_scale_in_window(self):
        times = ps.TimeGrid(49.5, 50.5, 3)
        exact = ps.heralded_field(times, 50.0, REF_PDC, method=EXACT)
        height = REF_PDC.gain / (C_CM_PER_FS * REF_PDC.entanglement_time)
        assert abs(exact.amplitudes[1]) == pytest.approx(height, rel=0.05)

    def test_support_l2_locked(self):
        assert support_l2_discrepancy(REF_PDC, 50.0) == pytest.approx(
            EXACT_RECT_FIELD_L2, rel=1e-9
        )

    def test_narrowband_closer_to_rect(self):
        broad = support_l2_discrepancy(REF_PDC, 50.0, count=2001)
        narrow = support_l2_discrepancy(NARROW_PDC, 100.0, count=2001)
        assert narrow < broad

    def test_default_grid_clipped_at_zero(self):
        grid = ps.default_field_grid(REF_PDC)
        assert grid.min == 0.0
        lobe = 1.0 / (C_CM_PER_FS * REF_PDC.entanglement_time)
        assert grid.max == pytest.approx(REF_PDC.signal_center + 50 * lobe)

    def test_default_grid_resolves_time_span(self):
        # the sampled field is periodic with period 1/(c * spacing); the
        # default grid must push that revival beyond twice the window
        grid = ps.default_field_grid(REF_PDC, time_span=100.0)
        period = 1.0 / (C_CM_PER_FS * grid.spacing)
        assert period >= 200.0


#: The default grid of a herald average on TIMES_100 (102.5 fs span, 4175 points).
FIGURE_FIELD_GRID = ps.default_field_grid(REF_PDC, time_span=102.5)
#: With T = 2001, N + T - 1 is exactly the FFT size 8192; this grid does not start at 0.
POWER_OF_TWO_GRID = ps.FrequencyGrid(6000.0, 18000.0, 8192 - 2001 + 1)


class TestFieldSynthesizer:
    # Heralds inside the window, at its edges and just outside it. Further
    # out the window sees only ~1e-4 of the pulse, and the dense sum's own
    # phase rounding reaches 1e-9 of that.
    @pytest.mark.parametrize(
        "times, herald_time, grid",
        [(TIMES_100, h, FIGURE_FIELD_GRID) for h in (50.0, 0.0, 100.0, -3.0, 104.0)]
        + [
            (ps.TimeGrid(10.0, 60.0, 2001), 35.0, POWER_OF_TWO_GRID),
            (ps.TimeGrid(10.0, 60.0, 2001), 12.5, POWER_OF_TWO_GRID),
            (ps.TimeGrid(0.0, 100.0, 2), 50.0, ps.default_field_grid(REF_PDC, time_span=50.0)),
        ],
        ids=["inside", "left-edge", "right-edge", "before", "after", "pow2", "pow2-edge", "T2"],
    )
    def test_matches_dense_and_scipy_czt(self, times, herald_time, grid):
        got = ps.heralded_field(times, herald_time, REF_PDC, grid=grid, method=EXACT).amplitudes
        profile = field_profile(REF_PDC, grid)
        for oracle in (dense_field, czt_field):
            want = oracle(times, herald_time, grid, profile)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_memory_stays_linear_at_long_spans(self):
        # The dense T x N phase matrix here would be 2001 x 203599 complex, 6.5 GB.
        times = ps.TimeGrid(0.0, 5000.0, 2001)
        assert ps.default_field_grid(REF_PDC, time_span=5000.0).count == 203599
        tracemalloc.start()
        try:
            field = ps.heralded_field(times, 0.0, REF_PDC, method=EXACT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured 23.1 MB, set by the chirp-z set-up; the bound leaves about 20 %.
        assert peak < 28e6
        assert np.all(np.isfinite(field.amplitudes))

    @pytest.mark.parametrize(
        "grid",
        # The second grid holds signal_center itself, where the squeeze profile's sinc is 1.
        [FIGURE_FIELD_GRID, ps.FrequencyGrid(11000.0, 13000.0, 2001)],
        ids=["figure", "through-center"],
    )
    def test_in_place_profile_is_bit_identical_to_the_expression(self, grid):
        assert _field_profile(REF_PDC, grid).tobytes() == field_profile(REF_PDC, grid).tobytes()

    @pytest.mark.parametrize("method", [RECT, EXACT])
    @pytest.mark.parametrize("herald_time", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_herald_time_rejected(self, method, herald_time):
        with pytest.raises(ps.ValidationError, match="herald_time"):
            ps.heralded_field(TIMES_100, herald_time, REF_PDC, method=method)


#: Grid counts from 2 to 10**5: any, perfect squares, one past a perfect square
#: (one more row of one point) and primes.
GRID_COUNTS = st.one_of(
    st.integers(2, 10**5),
    st.integers(2, 316).map(lambda k: k * k),
    st.integers(1, 316).map(lambda k: k * k + 1),
    st.sampled_from([2, 3, 5, 7, 4177, 65537, 99991]),
)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an extended long double")
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    count=GRID_COUNTS,
    low=st.floats(0.0, 2e4),
    width=st.floats(1e-3, 3e4),
    delay=st.floats(-1e4, 1e4),
)
@example(count=4175, low=0.0, width=ps.default_field_grid(REF_PDC, 102.5).max, delay=102.5)
@example(count=203599, low=0.0, width=ps.default_field_grid(REF_PDC, 5000.0).max, delay=5000.0)
def test_phase_tables_as_accurate_as_one_exponential_per_frequency(count, low, width, delay):
    # exp(i w_n s) = coarse[n // B] * fine[n % B] replaces the N exponentials
    # np.exp(1j * w_n * s); against an extended-precision reference it must be
    # no farther off than they are, up to a factor 2 and a few ulps.
    grid = ps.FrequencyGrid(low, low + width, count)
    coarse, fine = _phase_tables(grid)(delay)
    assert coarse.size * fine.size >= count > (coarse.size - 1) * fine.size
    tables = np.outer(coarse, fine).reshape(-1)[:count]
    direct = np.exp(1j * angular_frequency(grid.points) * delay)
    cos, sin = herald_phase_extended(grid, delay)

    def error(phase):
        return float(np.max(np.hypot(phase.real - cos, phase.imag - sin)))

    assert error(tables) <= 2.0 * error(direct) + 1e-15


class TestAssembly:
    # Three levels, one dipole negative, so every pair a <= b and both signs
    # pass through the builder; exact fields from one source, as in an average.
    @pytest.mark.parametrize("mol", [ONE_LEVEL, TWO_LEVEL, THREE_LEVEL], ids=["L1", "L2", "L3"])
    @pytest.mark.parametrize("heralds", [[50.0], list(np.linspace(-2.5, 102.5, 9))],
                             ids=["single", "average"])
    def test_matches_per_field_builder_bit_for_bit(self, mol, heralds):
        # The builder writes each field into arrays made once per call; in the
        # order of the reference's arithmetic, it gives the same bits.
        # A step of 0.05 fs: the half step is no power of two, so scaling by it rounds.
        times = TIMES_100
        field_at = _field_source(times, REF_PDC, None, EXACT, heralds[0], heralds[-1])
        fields = [field_at(h) for h in heralds]
        got = _assemble(mol, times, fields).matrices
        assert np.array_equal(got, assemble_per_field(mol, times, fields))


class TestEvolveHeralded:
    def test_plateaus_and_fast_rise(self):
        times = ps.TimeGrid(0.0, 100.0, 2001)
        field = ps.heralded_field(times, 50.0, REF_PDC, method=RECT)
        traj = ps.normalize_trajectory(
            ps.evolve_heralded(TWO_LEVEL, field), ps.NormalizationMode.MAX_DIAG
        )
        t = times.points
        population = traj.matrices[:, 0, 0].real
        assert np.all(population[t < 48.75] == 0.0)
        plateau = population[-1]
        assert plateau == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(population[t > 51.25] - plateau)) < 1e-9
        t10 = t[np.argmax(population >= 0.1 * plateau)]
        t90 = t[np.argmax(population >= 0.9 * plateau)]
        assert t90 - t10 < 5.0

    def test_long_entanglement_time_blurs_rise(self):
        times = ps.TimeGrid(0.0, 200.0, 4001)
        field = ps.heralded_field(times, 100.0, NARROW_PDC, method=RECT)
        traj = ps.normalize_trajectory(
            ps.evolve_heralded(TWO_LEVEL, field), ps.NormalizationMode.MAX_DIAG
        )
        t = times.points
        population = traj.matrices[:, 0, 0].real
        assert np.all(population[t < 75.0] == 0.0)
        plateau = population[-1]
        assert np.max(np.abs(population[t > 125.0] - plateau)) < 1e-9 * plateau
        t10 = t[np.argmax(population >= 0.1 * plateau)]
        t90 = t[np.argmax(population >= 0.9 * plateau)]
        assert t90 - t10 > 20.0

    def test_post_pulse_population_ratio(self):
        times = ps.TimeGrid(0.0, 200.0, 4001)
        field = ps.heralded_field(times, 100.0, NARROW_PDC, method=RECT)
        traj = ps.evolve_heralded(TWO_LEVEL, field)
        t = times.points
        post = t >= 130.0
        ratio = traj.matrices[post, 1, 1].real.mean() / traj.matrices[post, 0, 0].real.mean()
        # independent evaluation of the closed-form sinc ratio
        arg1 = math.pi * C_CM_PER_FS * (18000.0 - 18001.0) * 50.0
        arg2 = math.pi * C_CM_PER_FS * (18500.0 - 18001.0) * 50.0
        expected = (math.sin(arg2) / arg2) ** 2 / (math.sin(arg1) / arg1) ** 2
        assert ratio == pytest.approx(expected, rel=0.01)

    def test_rank_one(self):
        times = ps.TimeGrid(0.0, 100.0, 501)
        field = ps.heralded_field(times, 50.0, REF_PDC, method=EXACT)
        traj = ps.evolve_heralded(TWO_LEVEL, field)
        assert traj.rank1_defect() < 1e-10
        assert traj.hermiticity_defect() == 0.0

    def test_trajectory_translation_covariance(self):
        times = ps.TimeGrid(0.0, 64.0, 257)
        shifted_times = ps.TimeGrid(16.0, 80.0, 257)
        base = ps.evolve_heralded(
            TWO_LEVEL, ps.heralded_field(times, 32.0, REF_PDC, method=RECT)
        )
        shifted = ps.evolve_heralded(
            TWO_LEVEL, ps.heralded_field(shifted_times, 48.0, REF_PDC, method=RECT)
        )
        scale = np.abs(base.matrices).max()
        assert np.max(np.abs(base.matrices - shifted.matrices)) <= 1e-9 * scale

    def test_negative_start_rejected(self):
        times = ps.TimeGrid(-1.0, 10.0, 12)
        field = ps.heralded_field(times, 5.0, REF_PDC, method=RECT)
        with pytest.raises(ps.ValidationError):
            ps.evolve_heralded(TWO_LEVEL, field)


@pytest.mark.parametrize(
    "caller", ["evolve_unconditional", "evolve_heralded", "average_over_heralds"]
)
def test_switch_on_error_names_caller(caller):
    times = ps.TimeGrid(-1.0, 10.0, 12)
    calls = {
        "evolve_unconditional": lambda: ps.evolve_unconditional(
            TWO_LEVEL, ps.mean_photon_number(DYN_GRID, REF_PDC), times, AMP_REF
        ),
        "evolve_heralded": lambda: ps.evolve_heralded(
            TWO_LEVEL, ps.heralded_field(times, 5.0, REF_PDC, method=RECT)
        ),
        "average_over_heralds": lambda: ps.average_over_heralds(
            TWO_LEVEL, REF_PDC, None, times, 4, method=RECT
        ),
    }
    message = f"{caller}: times must start at or after 0, got -1.0"
    with pytest.raises(ps.ValidationError, match=f"^{message}$"):
        calls[caller]()


@pytest.mark.parametrize("caller", ["evolve_heralded", "average_over_heralds"])
@pytest.mark.parametrize("span", [1e-300, 1e-158])
def test_step_whose_square_is_subnormal_rejected(caller, span, monkeypatch):
    # dt^2 scales every heralded entry: at 1e-200 fs the trajectory was 0 and its
    # normalization failed; the rule holds before any field is built for an average
    times = ps.TimeGrid(0.0, span, 201)
    field = ps.HeraldedField(times, np.ones(times.count))
    monkeypatch.setattr(ps.heralded, "_field_source", None)
    calls = {
        "evolve_heralded": lambda: ps.evolve_heralded(TWO_LEVEL, field),
        "average_over_heralds": lambda: ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, 4),
    }
    with pytest.raises(FieldError, match=r"^times: the step .* is below 1\.5e-154 fs"):
        calls[caller]()


def test_average_rejects_early_start_before_field_work(monkeypatch):
    def no_field(*args, **kwargs):
        raise AssertionError("the field was built for a grid starting before 0")

    monkeypatch.setattr(ps.heralded, "_field_source", no_field)
    times = ps.TimeGrid(-1.0, 5000.0, 2001)
    message = "average_over_heralds: times must start at or after 0"
    with pytest.raises(ps.ValidationError, match=f"^{message}"):
        ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, 8)


class TestClosedForms:
    def test_degenerate_levels_all_ones(self):
        degenerate = ps.MolecularSystem(((18000.0, 1.0), (18000.0, 1.0)))
        matrix = ps.long_time_closed_form(degenerate, REF_PDC, 60.0, 50.0)
        assert np.allclose(matrix, np.ones((2, 2)), atol=1e-12)

    def test_resonant_level_pinned_at_one(self):
        mol = ps.MolecularSystem(((18001.0, 1.0), (18500.0, 1.0)))
        for t_e in (0.5, 5.0, 50.0):
            params = ps.PdcParams(25000.0, 18001.0, t_e, 0.11)
            matrix = ps.long_time_closed_form(mol, params, 200.0, 100.0)
            assert matrix[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_precondition_inside_support(self):
        with pytest.raises(ps.ValidationError):
            ps.long_time_closed_form(TWO_LEVEL, NARROW_PDC, 120.0, 100.0)

    def test_matches_trajectory_entrywise(self):
        times = ps.TimeGrid(0.0, 200.0, 8001)
        field = ps.heralded_field(times, 100.0, NARROW_PDC, method=RECT)
        traj = ps.evolve_heralded(TWO_LEVEL, field)
        k = int(np.argmin(np.abs(times.points - 150.0)))
        got = traj.matrices[k] / traj.matrices[k].real.diagonal().max()
        want = ps.long_time_closed_form(TWO_LEVEL, NARROW_PDC, float(times.points[k]), 100.0)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 0.01

    def test_impulsive_at_herald_time(self):
        mol = ps.MolecularSystem(((18000.0, 0.5), (18500.0, 1.0)))
        matrix = ps.impulsive_limit(mol, 50.0, 50.0)
        mu = mol.dipoles
        assert np.allclose(matrix, np.outer(mu, mu) / mu.max() ** 2, atol=1e-12)
        assert np.all(matrix.imag == 0.0)

    def test_impulsive_is_short_pulse_limit(self):
        tiny = ps.PdcParams(25000.0, 12000.0, 0.01, 0.15)
        closed = ps.long_time_closed_form(TWO_LEVEL, tiny, 60.0, 50.0)
        impulsive = ps.impulsive_limit(TWO_LEVEL, 60.0, 50.0)
        assert np.max(np.abs(closed - impulsive)) < 1e-3

    def test_single_level_impulsive_constant(self):
        for t in (50.0, 75.0, 200.0):
            assert ps.impulsive_limit(ONE_LEVEL, t, 50.0)[0, 0] == pytest.approx(1.0)


class TestWeakGain:
    def test_tanh_vs_sinh_spread(self):
        omega = rng().uniform(500.0, 30000.0, size=2000)
        profile = ps.squeeze_profile(omega, REF_PDC)
        nonzero = np.abs(profile) > 1e-12
        tanh_sq = np.tanh(profile[nonzero]) ** 2
        sinh_sq = np.sinh(profile[nonzero]) ** 2
        rel = np.abs(tanh_sq - sinh_sq) / sinh_sq
        assert np.max(rel) < 2.0 * REF_PDC.gain**2


class TestHeraldAveraging:
    def test_single_sample_equals_midpoint_trajectory(self):
        times = ps.TimeGrid(0.0, 40.0, 401)
        averaged = ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, 1, method=RECT)
        field = ps.heralded_field(times, 20.0, REF_PDC, method=RECT)
        single = ps.evolve_heralded(TWO_LEVEL, field)
        assert np.array_equal(averaged.matrices, single.matrices)

    def test_scaling_linearity(self):
        times = ps.TimeGrid(0.0, 30.0, 301)
        scaled_mol = ps.MolecularSystem(((18000.0, 3.0), (18500.0, 3.0)))
        base = ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, 8, method=RECT)
        scaled = ps.average_over_heralds(scaled_mol, REF_PDC, None, times, 8, method=RECT)
        assert np.allclose(scaled.matrices, 9.0 * base.matrices, rtol=1e-12)

    def test_converges_to_unconditional(self):
        times = ps.TimeGrid(0.0, 60.0, 1201)
        averaged = ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, 192, method=EXACT)
        spectrum = ps.mean_photon_number(DYN_GRID, REF_PDC)
        reference = ps.evolve_unconditional(TWO_LEVEL, spectrum, times, amplitude_ref=AMP_REF)
        a = ps.normalize_trajectory(averaged, ps.NormalizationMode.MAX_DIAG)
        b = ps.normalize_trajectory(reference, ps.NormalizationMode.MAX_DIAG)
        window = times.points >= 15.0
        got = a.matrices[window, 0, 0].real
        want = b.matrices[window, 0, 0].real
        assert np.max(np.abs(got - want) / want) < 0.05

    @pytest.mark.parametrize(
        "method, mol",
        [(RECT, TWO_LEVEL), (EXACT, TWO_LEVEL), (RECT, THREE_LEVEL), (EXACT, THREE_LEVEL)],
        ids=["rect", "exact", "rect-three_level", "exact-three_level"],
    )
    @pytest.mark.parametrize("start", [0.0, 7.5], ids=["start0", "start7.5"])
    def test_average_matches_single_herald_loop(self, method, mol, start):
        # One field source and one rank-one builder serve both paths, so the
        # average is the mean of single-herald trajectories bit for bit, taken
        # in its order: herald j, its mirror conj(f_j[::-1]) in place of herald
        # J-1-j, and last the middle herald of an odd J.
        times = ps.TimeGrid(start, 40.0, 801)
        pad = REF_PDC.entanglement_time
        grid = ps.default_field_grid(REF_PDC, time_span=times.max - times.min + pad)
        for samples in (8, 9):
            averaged = ps.average_over_heralds(mol, REF_PDC, None, times, samples, method=method)
            heralds = np.linspace(times.min - pad, times.max + pad, samples)
            fields = []
            for herald_time in heralds[: samples // 2]:
                field = ps.heralded_field(times, herald_time, REF_PDC, grid=grid, method=method)
                fields += [field, ps.HeraldedField(times, field.amplitudes[::-1].conj())]
            if samples % 2:
                middle = heralds[samples // 2]
                fields.append(ps.heralded_field(times, middle, REF_PDC, grid=grid, method=method))
            total = np.zeros_like(averaged.matrices)
            for field in fields:
                total += ps.evolve_heralded(mol, field).matrices
            assert np.array_equal(averaged.matrices, total / samples), samples

    # The exact field's bound is the phase tables' accuracy (measured 2.1e-12 here and
    # 6.6e-12 over 512 heralds on 0-100 fs); the rect field's mirror differs only by the
    # rounding of the delays (measured 2.5e-14).
    @pytest.mark.parametrize("method, tolerance", [(EXACT, 1e-11), (RECT, 1e-13)],
                             ids=["exact", "rect"])
    @pytest.mark.parametrize("start", [0.0, 7.5], ids=["start0", "start7.5"])
    @pytest.mark.parametrize("samples", [8, 9])
    def test_mirror_is_the_field_of_the_reflected_herald(
        self, method, tolerance, start, samples, monkeypatch
    ):
        # conj(F_s(t_{T-1-k})) is the field at t_k of s' = 2 t_0 + (T - 1) dt - s.
        times = ps.TimeGrid(start, 40.0, 801)
        pad = REF_PDC.entanglement_time
        grid = ps.default_field_grid(REF_PDC, time_span=times.max - times.min + pad)
        seen = []

        def spy(mol, times, fields):
            return _assemble(mol, times, (seen.append(f.copy()) or f for f in fields))

        monkeypatch.setattr(ps.heralded, "_assemble", spy)
        ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, samples, method=method)
        assert len(seen) == samples
        heralds = np.linspace(times.min - pad, times.max + pad, samples)
        for j, herald_time in enumerate(heralds[: samples // 2]):
            reflected = 2 * times.min + (times.count - 1) * times.spacing - herald_time
            assert abs(reflected - heralds[samples - 1 - j]) < 1e-13
            want = ps.heralded_field(times, reflected, REF_PDC, grid=grid, method=method)
            peak = np.max(np.abs(want.amplitudes))
            assert np.max(np.abs(seen[2 * j + 1] - want.amplitudes)) <= tolerance * peak

    @pytest.mark.parametrize("sampling, samples, transforms",
                             [("uniform", 1, 1), ("uniform", 8, 4), ("uniform", 9, 5),
                              ("random", 8, 8), ("random", 9, 9)])
    def test_one_transform_per_mirrored_pair(self, sampling, samples, transforms, monkeypatch):
        calls = []
        synthesize = _ChirpZ.__call__

        def counted(self, coefficients):
            calls.append(coefficients.shape)
            return synthesize(self, coefficients)

        monkeypatch.setattr(_ChirpZ, "__call__", counted)
        times = ps.TimeGrid(0.0, 20.0, 201)
        ps.average_over_heralds(
            TWO_LEVEL, REF_PDC, None, times, samples, sampling=sampling, seed=3
        )
        assert len(calls) == transforms

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's allocator")
    def test_average_page_faults_bounded(self):
        # Counted in a fresh interpreter with glibc's heap trimming off and its
        # mmap threshold pinned at 120 KB, so the count does not hang on the
        # heap's history: after the warm-up only arrays of 120 KB or more, such
        # as one of the trajectory's size (T x 2 x 2 complex, 128 KB), are
        # mapped afresh. One such temporary per herald faulted 16,384 times.
        code = f"""
import ctypes, resource
libc = ctypes.CDLL(None)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
if not (libc.mallopt(M_MMAP_THRESHOLD, 120 * 1024) and libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)):
    raise SystemExit("mallopt")
import pseudosun as ps
mol, params, times = ps.{TWO_LEVEL!r}, ps.{REF_PDC!r}, ps.{TIMES_100!r}
average = lambda: ps.average_over_heralds(mol, params, None, times, 512)
average()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
average()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(ps.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert int(run.stdout) < 2000

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's page faults")
    def test_first_average_page_faults_bounded(self):
        # The CLI makes one average per process, so the first call, at glibc's
        # default self-adjusting thresholds, is the one a run pays for. With N-
        # and (L, T)-sized temporaries made per herald it faulted 35,145-35,403
        # times (12,762 from the second call on under -X dev); with the
        # builder's arrays and the coefficient buffer made once per call it
        # faulted 183-193 times, from two working directories and under -X dev.
        code = f"""
import resource
import pseudosun as ps
mol, params, times = ps.{TWO_LEVEL!r}, ps.{REF_PDC!r}, ps.{TIMES_100!r}
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
ps.average_over_heralds(mol, params, None, times, 512)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(ps.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert int(run.stdout) < 2000

    def test_random_sampling_seeded(self):
        times = ps.TimeGrid(0.0, 20.0, 101)
        one = ps.average_over_heralds(
            TWO_LEVEL, REF_PDC, None, times, 16, method=RECT, sampling="random", seed=11
        )
        two = ps.average_over_heralds(
            TWO_LEVEL, REF_PDC, None, times, 16, method=RECT, sampling="random", seed=11
        )
        other = ps.average_over_heralds(
            TWO_LEVEL, REF_PDC, None, times, 16, method=RECT, sampling="random", seed=12
        )
        assert np.array_equal(one.matrices, two.matrices)
        assert not np.array_equal(one.matrices, other.matrices)

    def test_argument_validation(self):
        times = ps.TimeGrid(0.0, 20.0, 101)
        with pytest.raises(ps.ValidationError):
            ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, 0)
        with pytest.raises(ps.ValidationError):
            ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, 4, pad=1.0)
        with pytest.raises(ps.ValidationError):
            ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, 4, sampling="sobol")

    @pytest.mark.parametrize("samples", [float("nan"), float("inf"), 2.5])
    def test_non_whole_sample_count_rejected(self, samples):
        times = ps.TimeGrid(0.0, 20.0, 101)
        with pytest.raises(ps.ValidationError, match="samples"):
            ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, samples, method=RECT)

    @pytest.mark.parametrize("method", [RECT, EXACT])
    @pytest.mark.parametrize("pad", [float("nan"), float("inf")])
    def test_non_finite_pad_rejected(self, method, pad):
        times = ps.TimeGrid(0.0, 20.0, 101)
        with pytest.raises(ps.ValidationError, match="pad"):
            ps.average_over_heralds(TWO_LEVEL, REF_PDC, None, times, 4, method=method, pad=pad)


class TestCoincidence:
    def test_single_level_tracks_population(self):
        times = ps.TimeGrid(0.0, 100.0, 1001)
        mol = ps.MolecularSystem(((18000.0, 0.7),))
        field = ps.heralded_field(times, 50.0, REF_PDC, method=RECT)
        traj = ps.evolve_heralded(mol, field)
        signal = ps.coincidence_signal(mol, traj)
        population = traj.matrices[:, 0, 0].real
        assert np.allclose(signal, population / population.max(), rtol=1e-12, atol=0.0)

    def test_imaginary_part_negligible(self):
        times = ps.TimeGrid(0.0, 100.0, 1001)
        field = ps.heralded_field(times, 50.0, REF_PDC, method=EXACT)
        traj = ps.evolve_heralded(TWO_LEVEL, field)
        mu = TWO_LEVEL.dipoles
        raw = np.einsum("a,tab,b->t", mu, traj.matrices, mu)
        assert np.max(np.abs(raw.imag)) <= 1e-10 * np.max(np.abs(raw.real))

    def test_non_hermitian_trajectory_rejected(self):
        times = ps.TimeGrid(0.0, 1.0, 3)
        skew = np.array([[1.0, 0.5j], [0.5j, 1.0]])
        traj = ps.DensityTrajectory(times, np.stack([skew] * times.count))
        with pytest.raises(ps.NumericalError, match="imaginary"):
            ps.coincidence_signal(TWO_LEVEL, traj)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0], ids=["nan", "inf", "zero"])
    def test_zero_or_non_finite_signal_rejected(self, value):
        times = ps.TimeGrid(0.0, 1.0, 3)
        traj = ps.DensityTrajectory(times, np.full((times.count, 2, 2), value))
        with pytest.raises(ps.NumericalError, match="zero or non-finite"):
            ps.coincidence_signal(TWO_LEVEL, traj)

    def test_degenerate_pair_matches_single(self):
        # the raw pair signal is 4x the single one, so normalized they agree
        times = ps.TimeGrid(0.0, 100.0, 501)
        single = ps.MolecularSystem(((18000.0, 1.0),))
        pair = ps.MolecularSystem(((18000.0, 1.0), (18000.0, 1.0)))
        field = ps.heralded_field(times, 50.0, REF_PDC, method=RECT)
        s_single = ps.coincidence_signal(single, ps.evolve_heralded(single, field))
        s_pair = ps.coincidence_signal(pair, ps.evolve_heralded(pair, field))
        assert np.max(np.abs(s_single)) == 1.0
        assert np.allclose(s_pair, s_single, rtol=1e-10, atol=1e-16)

    def test_matches_loop_oracle(self):
        times = ps.TimeGrid(0.0, 60.0, 121)
        field = ps.heralded_field(times, 30.0, REF_PDC, method=EXACT)
        traj = ps.evolve_heralded(TWO_LEVEL, field)
        fast = ps.coincidence_signal(TWO_LEVEL, traj)
        slow = quadratic_form_by_loops(TWO_LEVEL, traj.matrices).real
        slow /= np.max(np.abs(slow))
        assert np.max(np.abs(fast - slow)) <= 1e-12
