import math
import re
import tracemalloc

import numpy as np
import pytest

import pseudosun as ps
from pseudosun import FrequencyGrid, TimeGrid, ValidationError, sinc
from pseudosun.dynamics import _build_kernel
from pseudosun.numerics import (
    C_CM_PER_FS,
    _ChirpZ,
    _fft_length,
    angular_frequency,
    trapezoid_weights,
)

from conftest import AMP_REF, REF_PDC, TWO_LEVEL, rng


class TestGrids:
    def test_points_uniform_inclusive(self):
        grid = FrequencyGrid(100.0, 200.0, 5)
        assert np.array_equal(grid.points, [100.0, 125.0, 150.0, 175.0, 200.0])
        assert grid.spacing == 25.0

    def test_count_numpy_can_address(self):
        # 2**60 float64 points would take 2**63 bytes, past what numpy can index.
        assert TimeGrid(0.0, 1.0, 2**60 - 1).count == 2**60 - 1
        for count in (2**60, 10**30, float("inf"), float("nan")):
            with pytest.raises(ValidationError, match="below 2\\*\\*60"):
                FrequencyGrid(0.0, 1.0, count)

    @pytest.mark.parametrize(
        "grid",
        [
            TimeGrid(3.0, 103.0, 2001),
            TimeGrid(-5.0, 0.7, 7),
            FrequencyGrid(1000.0, 25000.0, 8192),
            # The spacing underflows to 0, np.linspace's other path.
            TimeGrid(0.0, 5e-324, 3),
        ],
    )
    def test_point_is_the_linspace_point(self, grid):
        assert [grid.point(k) for k in range(grid.count)] == grid.points.tolist()

    def test_time_grid_allows_negative_times(self):
        grid = TimeGrid(-5.0, 5.0, 3)
        assert grid.points[0] == -5.0

    @pytest.mark.parametrize(
        "args",
        [(200.0, 100.0, 5), (100.0, 100.0, 5), (0.0, 1.0, 1), (0.0, 1.0, 2.5), (np.nan, 1.0, 5)],
    )
    def test_invalid_grids_rejected(self, args):
        with pytest.raises(ValidationError):
            FrequencyGrid(*args)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValidationError):
            FrequencyGrid(-10.0, 100.0, 5)

    @pytest.mark.parametrize("kind", [FrequencyGrid, TimeGrid])
    def test_error_names_concrete_class(self, kind):
        with pytest.raises(ValidationError, match=f"^{kind.__name__}: max"):
            kind(2.0, 1.0, 5)

    def test_grid_kinds_stay_distinct(self):
        frequencies, times = FrequencyGrid(0.0, 1.0, 3), TimeGrid(0.0, 1.0, 3)
        assert not isinstance(frequencies, TimeGrid)
        assert not isinstance(times, FrequencyGrid)
        assert frequencies != times


def trapezoid(samples, grid):
    return np.dot(trapezoid_weights(grid.count, grid.spacing), samples)


class TestTrapezoid:
    def test_constant_exact(self):
        grid = FrequencyGrid(0.0, 1.0, 11)
        assert trapezoid(np.ones(11), grid) == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        grid = TimeGrid(0.0, 2.0, 3)
        assert trapezoid(grid.points, grid) == pytest.approx(2.0, abs=1e-15)

    def test_quadratic_converges(self):
        # oracle: analytic antiderivative x^3/3 over [0, 1]
        grid = FrequencyGrid(0.0, 1.0, 1001)
        value = trapezoid(grid.points**2, grid)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_linearity(self):
        grid = TimeGrid(0.0, 3.0, 57)
        r = rng()
        f = r.normal(size=57) + 1j * r.normal(size=57)
        g = r.normal(size=57) + 1j * r.normal(size=57)
        a, b = 2.25, -0.5
        combined = trapezoid(a * f + b * g, grid)
        separate = a * trapezoid(f, grid) + b * trapezoid(g, grid)
        assert abs(combined - separate) <= 1e-12 * max(abs(separate), 1.0)

    def test_refinement_stable_for_smooth_integrand(self):
        # doubling the resolution moves a smooth integral by < 1e-6 relative
        coarse = FrequencyGrid(0.0, 3.0, 4097)
        fine = FrequencyGrid(0.0, 3.0, 8193)
        v1 = trapezoid(np.exp(-(coarse.points**2)), coarse)
        v2 = trapezoid(np.exp(-(fine.points**2)), fine)
        assert abs(v2 - v1) / abs(v2) < 1e-6


class TestSinc:
    def test_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_at_pi(self):
        assert abs(sinc(math.pi)) < 1e-15

    def test_reference_point(self):
        # independent direct evaluation of sin(x)/x
        x = 2.34986
        assert sinc(x) == pytest.approx(math.sin(x) / x, abs=1e-15)
        assert sinc(x) == pytest.approx(0.30284, abs=1e-4)

    def test_even(self):
        x = rng().uniform(-50.0, 50.0, size=200)
        assert np.array_equal(sinc(x), sinc(-x))

    def test_bounded(self):
        x = rng().uniform(-200.0, 200.0, size=1000)
        assert np.all(np.abs(sinc(x)) <= 1.0)

    def test_taylor_branch_continuous(self):
        below, above = 0.9999e-4, 1.0001e-4
        assert abs(sinc(below) - sinc(above)) < 1e-12

    def test_matches_quotient_bit_for_bit(self):
        # sin(x)/x for every nonzero x, however small, and the limit 1.0 at +0 and -0
        x = np.concatenate(
            [[3e-5, -3e-5, 0.9999e-4, -1e-4, 1e-4, 5e-324, -1e-300], np.linspace(-3e-4, 3e-4, 6000)]
        )
        x = np.concatenate([x, rng().uniform(-200.0, 200.0, size=4000)])
        want = np.array([math.sin(v) / v for v in x])
        assert np.array_equal(sinc(x), want)
        assert all(sinc(v) == w for v, w in zip(x[:7], want[:7]))
        assert np.array_equal(sinc(np.array([0.0, -0.0])), [1.0, 1.0])
        assert sinc(0.0) == 1.0 and sinc(-0.0) == 1.0

    def test_memory_stays_within_three_arrays(self):
        # N of the default exact-field grid at a 5,000 fs span
        x = np.linspace(-50.0, 50.0, 203599)
        tracemalloc.start()
        try:
            sinc(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * x.nbytes

    def test_array_shape_and_scalar_type(self):
        assert isinstance(sinc(0.3), float)
        assert sinc(np.array([0.0, math.pi / 2])).shape == (2,)


def test_fft_length_is_smallest_5_smooth():
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    for n in range(1, 1500):
        length = _fft_length(n)
        assert smooth(length) and length >= n
        assert not any(smooth(m) for m in range(n, length))
    # the herald_exact, fig2 and 5,000 fs exact-span transforms
    assert [_fft_length(n) for n in (6175, 10192, 205599)] == [6250, 10240, 207360]


class TestChirpZ:
    @pytest.mark.parametrize("bins, count", [(301, 41), (41, 301)], ids=["N>T", "N<T"])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_work_buffer_contents_do_not_change_the_bits(self, bins, count, kind):
        plan = _ChirpZ.on(FrequencyGrid(11000.0, 13000.0, bins), 0.05, count)
        noise = rng().standard_normal((2, bins))
        coefficients = noise[0] if kind is float else noise[0] + 1j * noise[1]
        zeroed = plan(coefficients, np.zeros(plan.size, dtype=complex))
        filled = plan(coefficients, np.full(plan.size, complex(np.nan, np.nan)))
        assert zeroed.shape == (count,) and np.all(np.isfinite(zeroed))
        assert filled.tobytes() == zeroed.tobytes()

    @pytest.mark.parametrize("bins, count", [(301, 41), (41, 301)], ids=["N>T", "N<T"])
    def test_longer_work_buffer_gives_the_bits_of_one_of_size(self, bins, count):
        # the transforms run in the buffer's first size entries and leave the rest alone
        plan = _ChirpZ.on(FrequencyGrid(11000.0, 13000.0, bins), 0.05, count)
        noise = rng().standard_normal((2, bins))
        coefficients = noise[0] + 1j * noise[1]
        exact = plan(coefficients, np.empty(plan.size, dtype=complex))
        longer = np.full(plan.size + 37, complex(np.nan, np.nan))
        assert plan(coefficients, longer).tobytes() == exact.tobytes()
        assert np.all(np.isnan(longer[plan.size :]))

    def test_every_plan_is_read_only_and_keeps_no_work_buffer(self, monkeypatch):
        plans = []
        build = _ChirpZ.__init__

        def recorded(self, *args):
            build(self, *args)
            plans.append(self)

        monkeypatch.setattr(_ChirpZ, "__init__", recorded)
        times = TimeGrid(0.0, 20.0, 201)
        ps.heralded_field(times, 10.0, REF_PDC, method=ps.FieldMethod.EXACT_QUADRATURE)
        _build_kernel.cache_clear()
        spectrum = ps.mean_photon_number(FrequencyGrid(11000.0, 13000.0, 301), REF_PDC)
        ps.evolve_unconditional(TWO_LEVEL, spectrum, times, AMP_REF)
        _build_kernel.cache_clear()
        assert len(plans) == 2
        for plan in plans:
            assert not hasattr(plan, "work")
            for table in (plan.pre, plan.post, plan.kernel):
                with pytest.raises(ValueError, match="read-only"):
                    table[...] = 0


def test_angular_frequency_convention():
    assert angular_frequency(1.0) == pytest.approx(2.0 * math.pi * C_CM_PER_FS, rel=1e-15)


CRYSTAL = dict(
    length=1.0,
    group_velocity_pump=1.6e-4,
    group_velocity_signal=1.9e-4,
    group_velocity_idler=1.7e-4,
)
SMALL_SPECTRUM = ps.mean_photon_number(FrequencyGrid(1000.0, 25000.0, 16), REF_PDC)
FIT_WINDOW = FrequencyGrid(14000.0, 22000.0, 11)
SMALL_PROBLEM = ps.FitProblem(
    window=FIT_WINDOW,
    target=ps.mean_photon_number(FIT_WINDOW, REF_PDC),
    free_params=("gain",),
    initial=REF_PDC,
    bounds={"gain": (0.01, 0.5)},
)
NOT_POSITIVE = (0.0, -1.0, math.inf, math.nan)
NOT_A_COUNT = (-1, math.inf, math.nan, 2.5, 2**60)
POSITIVE = " must be finite and > 0, got "

#: Every library parameter that _check_positive or _check_count guards: the call with a
#: value in its place, the start of the message, which names the parameter, and values
#: the rule must reject.
CHECKED_PARAMETERS = {
    "pump_freq": (
        lambda v: ps.PdcParams(v, 12000.0, 2.5, 0.15),
        "PdcParams: pump_freq" + POSITIVE,
        NOT_POSITIVE,
    ),
    "entanglement_time": (
        lambda v: ps.PdcParams(25000.0, 12000.0, v, 0.15),
        "PdcParams: entanglement_time" + POSITIVE,
        NOT_POSITIVE,
    ),
    **{
        name: (
            lambda v, name=name: ps.CrystalParams(**dict(CRYSTAL, **{name: v})),
            f"CrystalParams: {name}" + POSITIVE,
            NOT_POSITIVE,
        )
        for name in CRYSTAL
    },
    "temperature": (ps.ThermalParams, "ThermalParams: temperature" + POSITIVE, NOT_POSITIVE),
    "energy": (
        lambda v: ps.MolecularSystem(((v, 1.0),)),
        "MolecularSystem: transition energies" + POSITIVE,
        NOT_POSITIVE,
    ),
    "amplitude_ref": (
        lambda v: ps.evolve_unconditional(
            TWO_LEVEL, SMALL_SPECTRUM, TimeGrid(0.0, 10.0, 11), amplitude_ref=v
        ),
        "amplitude_ref" + POSITIVE,
        NOT_POSITIVE,
    ),
    "reference": (
        lambda v: ps.vacuum_amplitude(12000.0, v),
        "vacuum_amplitude: reference" + POSITIVE,
        NOT_POSITIVE,
    ),
    "n_max": (
        lambda v: ps.photon_number_pmf(12000.0, REF_PDC, v),
        "photon_number_pmf: n_max must be an integer >= 0 and below 2**60, got ",
        NOT_A_COUNT,
    ),
    "max_iters": (
        lambda v: ps.fit_pdc_to_thermal(SMALL_PROBLEM, max_iters=v),
        "max_iters: must be an integer >= 1 and below 2**60, got ",
        (0, *NOT_A_COUNT),
    ),
    "tol": (
        lambda v: ps.fit_pdc_to_thermal(SMALL_PROBLEM, tol=v),
        "tol: must be finite and > 0, got ",
        NOT_POSITIVE,
    ),
}


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name, (_, _, bad) in CHECKED_PARAMETERS.items() for value in bad],
)
def test_every_positive_parameter_and_count_rejects_what_its_rule_excludes(name, value):
    # Infinity and nan included: inf passes a bare `x > 0` test, and either one
    # makes int() raise OverflowError or ValueError instead of ValidationError.
    call, message, _ = CHECKED_PARAMETERS[name]
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        call(value)
