import dataclasses

import numpy as np
import pytest

import pseudosun as ps
from pseudosun import fitting

from conftest import REF_PDC, SOLAR
from locks import FIG1_OBJECTIVE_BASELINE
from oracles import fit_by_vertex_list

WINDOW = ps.FrequencyGrid(14000.0, 22000.0, 401)
LOCK_WINDOW = ps.FrequencyGrid(15000.0, 20000.0, 501)


def synthetic_problem(free, initial_overrides, bounds):
    target = ps.mean_photon_number(WINDOW, REF_PDC)
    initial = dataclasses.replace(REF_PDC, **initial_overrides)
    return ps.FitProblem(
        window=WINDOW, target=target, free_params=free, initial=initial, bounds=bounds
    )


class TestObjective:
    def test_zero_at_exact_match(self):
        problem = synthetic_problem(("gain",), {}, {"gain": (0.01, 0.5)})
        assert ps.fit_objective(REF_PDC, problem) == 0.0

    def test_uniform_scale_shifts_by_one(self):
        scaled_target = ps.PhotonSpectrum(
            WINDOW, np.e * ps.mean_photon_number(WINDOW, REF_PDC).values
        )
        problem = ps.FitProblem(
            window=WINDOW,
            target=scaled_target,
            free_params=("gain",),
            initial=REF_PDC,
            bounds={"gain": (0.01, 0.5)},
        )
        assert ps.fit_objective(REF_PDC, problem) == pytest.approx(1.0, abs=1e-9)

    def test_reference_baseline_locked(self):
        problem = ps.FitProblem(
            window=LOCK_WINDOW,
            target=ps.thermal_mean(LOCK_WINDOW, SOLAR),
            free_params=("gain",),
            initial=REF_PDC,
            bounds={"gain": (0.01, 0.5)},
        )
        value = ps.fit_objective(REF_PDC, problem)
        assert value == pytest.approx(FIG1_OBJECTIVE_BASELINE, rel=1e-9)
        assert value > 0.0

    @pytest.mark.parametrize("gain", [0.05, 0.15, 0.4])
    @pytest.mark.parametrize("entanglement_time", [1.0, 2.5, 8.0])
    def test_kept_arrays_give_the_spectrum_form_bit_for_bit(self, gain, entanglement_time):
        # The window points and the target's logs are computed once per problem;
        # the objective equals the one built from mean_photon_number and the
        # target's values at every call.
        problem = ps.FitProblem(
            window=LOCK_WINDOW,
            target=ps.thermal_mean(LOCK_WINDOW, SOLAR),
            free_params=("gain",),
            initial=REF_PDC,
            bounds={"gain": (0.01, 0.5)},
        )
        params = dataclasses.replace(REF_PDC, gain=gain, entanglement_time=entanglement_time)
        produced = ps.mean_photon_number(LOCK_WINDOW, params).values
        target = problem.target.values
        residual = np.log(produced + fitting.LOG_FLOOR) - np.log(target + fitting.LOG_FLOOR)
        want = float(np.mean(residual**2))
        assert ps.fit_objective(params, problem) == want
        assert ps.fit_objective(params, problem) == want
        assert not (problem.points.flags.writeable or problem.log_target.flags.writeable)


class TestProblemValidation:
    def test_empty_free_params(self):
        with pytest.raises(ps.ValidationError):
            synthetic_problem((), {}, {})

    def test_unknown_parameter(self):
        with pytest.raises(ps.ValidationError):
            synthetic_problem(("chirp",), {}, {"chirp": (0.0, 1.0)})

    def test_missing_bounds(self):
        with pytest.raises(ps.ValidationError):
            synthetic_problem(("gain",), {}, {})

    def test_initial_outside_bounds(self):
        with pytest.raises(ps.ValidationError):
            synthetic_problem(("gain",), {"gain": 0.4}, {"gain": (0.01, 0.2)})

    def test_bounds_admitting_invalid_corner(self):
        # a signal_center upper bound at the pump frequency is inadmissible
        with pytest.raises(ps.ValidationError):
            synthetic_problem(("signal_center",), {}, {"signal_center": (9000.0, 25000.0)})

    def test_spectrum_target_must_match_window(self):
        other = ps.FrequencyGrid(14000.0, 22000.0, 99)
        target = ps.mean_photon_number(other, REF_PDC)
        with pytest.raises(ps.ValidationError):
            ps.FitProblem(
                window=WINDOW,
                target=target,
                free_params=("gain",),
                initial=REF_PDC,
                bounds={"gain": (0.01, 0.5)},
            )


    def test_unsampled_target_rejected(self):
        with pytest.raises(ps.ValidationError, match="target must be a sampled PhotonSpectrum"):
            ps.FitProblem(
                window=WINDOW,
                target=SOLAR,
                free_params=("gain",),
                initial=REF_PDC,
                bounds={"gain": (0.01, 0.5)},
            )


class TestRoundTrips:
    @pytest.mark.parametrize(
        "name, true_value, start, bounds",
        [
            ("gain", 0.15, 0.08, (0.01, 0.5)),
            ("entanglement_time", 2.5, 1.4, (0.5, 8.0)),
            ("signal_center", 12000.0, 11000.0, (9000.0, 15000.0)),
        ],
    )
    def test_single_parameter_recovery(self, name, true_value, start, bounds):
        problem = synthetic_problem((name,), {name: start}, {name: bounds})
        result = ps.fit_pdc_to_thermal(problem, max_iters=300, tol=1e-10)
        assert result.converged
        recovered = getattr(result.params, name)
        assert abs(recovered - true_value) / true_value < 1e-4

    def test_two_parameter_fit_lands_near_reference(self):
        problem = ps.FitProblem(
            window=WINDOW,
            target=ps.thermal_mean(WINDOW, SOLAR),
            free_params=("entanglement_time", "gain"),
            initial=ps.PdcParams(25000.0, 12000.0, 2.0, 0.10),
            bounds={"entanglement_time": (0.5, 8.0), "gain": (0.01, 0.5)},
        )
        result = ps.fit_pdc_to_thermal(problem, max_iters=500, tol=1e-10)
        assert result.converged
        assert 1.5 < result.params.entanglement_time < 3.5
        assert 0.10 < result.params.gain < 0.22
        assert result.objective_value <= ps.fit_objective(REF_PDC, problem)


class TestOptimizerContract:
    def test_already_optimal_fixed_point(self):
        problem = synthetic_problem(("gain",), {}, {"gain": (0.01, 0.5)})
        result = ps.fit_pdc_to_thermal(problem, max_iters=50, tol=0.2)
        assert result.converged
        assert result.iterations == 0
        assert result.params.gain == REF_PDC.gain

    def test_trace_monotone_and_result_not_worse_than_initial(self):
        problem = synthetic_problem(("gain",), {"gain": 0.3}, {"gain": (0.01, 0.5)})
        initial_value = ps.fit_objective(problem.initial, problem)
        result = ps.fit_pdc_to_thermal(problem, max_iters=200, tol=1e-9)
        assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))
        assert result.objective_value <= initial_value

    def test_deterministic(self):
        problem = synthetic_problem(
            ("entanglement_time", "gain"),
            {"entanglement_time": 1.2, "gain": 0.05},
            {"entanglement_time": (0.5, 8.0), "gain": (0.01, 0.5)},
        )
        first = ps.fit_pdc_to_thermal(problem, max_iters=120, tol=1e-9)
        second = ps.fit_pdc_to_thermal(problem, max_iters=120, tol=1e-9)
        assert first == second

    def test_every_candidate_projected_into_bounds(self, monkeypatch):
        seen = []
        original = fitting.fit_objective

        def spy(params, problem):
            seen.append(params)
            return original(params, problem)

        monkeypatch.setattr(fitting, "fit_objective", spy)
        problem = synthetic_problem(("gain",), {"gain": 0.49}, {"gain": (0.01, 0.5)})
        ps.fit_pdc_to_thermal(problem, max_iters=100, tol=1e-9)
        assert seen
        assert all(0.01 <= p.gain <= 0.5 for p in seen)

    def test_non_finite_objective_raises_with_params(self, monkeypatch):
        monkeypatch.setattr(fitting, "fit_objective", lambda params, problem: float("nan"))
        problem = synthetic_problem(("gain",), {}, {"gain": (0.01, 0.5)})
        with pytest.raises(ps.FitDivergedError) as excinfo:
            ps.fit_pdc_to_thermal(problem, max_iters=10, tol=1e-9)
        assert excinfo.value.params is not None

    def test_argument_validation(self):
        problem = synthetic_problem(("gain",), {}, {"gain": (0.01, 0.5)})
        with pytest.raises(ps.ValidationError):
            ps.fit_pdc_to_thermal(problem, max_iters=0)
        with pytest.raises(ps.ValidationError):
            ps.fit_pdc_to_thermal(problem, tol=0.0)


BROAD_WINDOW = ps.FrequencyGrid(14000.0, 25000.0, 401)
ALL_BOUNDS = {
    "pump_freq": (24000.0, 26000.0),
    "signal_center": (10000.0, 14000.0),
    "entanglement_time": (1.5, 4.0),
    "gain": (0.05, 0.3),
}


class TestAgainstVertexList:
    """The one-array simplex returns the vertex-list search's FitResult, field for field."""

    @pytest.mark.parametrize(
        "free, start, bounds, max_iters, tol",
        [
            (("gain",), {"gain": 0.08}, {"gain": (0.01, 0.5)}, 300, 1e-10),
            # The start is the upper bound, so the first step goes down.
            (("gain",), {"gain": 0.5}, {"gain": (0.01, 0.5)}, 300, 1e-10),
            (
                ("entanglement_time", "gain"),
                {"entanglement_time": 2.0, "gain": 0.10},
                {"entanglement_time": (0.5, 8.0), "gain": (0.01, 0.5)},
                500,
                1e-10,
            ),
            (tuple(fitting.PARAM_ORDER), {}, ALL_BOUNDS, 500, 1e-8),
        ],
        ids=["one", "start-at-bound", "two", "four"],
    )
    def test_converged_fits(self, free, start, bounds, max_iters, tol):
        window = BROAD_WINDOW if len(free) == 4 else WINDOW
        problem = ps.FitProblem(
            window=window,
            target=ps.thermal_mean(window, SOLAR),
            free_params=free,
            initial=dataclasses.replace(REF_PDC, **start),
            bounds=bounds,
        )
        result = ps.fit_pdc_to_thermal(problem, max_iters, tol)
        assert result.converged
        assert result == fit_by_vertex_list(problem, max_iters, tol)

    def test_projected_and_shrunk(self, monkeypatch):
        # The optimum (2.5 fs, 0.15) lies outside the box, beyond the corner the
        # search starts from: candidates are clipped onto the box's faces, and
        # contractions fail, so the simplex shrinks.
        problem = synthetic_problem(
            ("entanglement_time", "gain"),
            {"entanglement_time": 3.0, "gain": 0.2},
            {"entanglement_time": (3.0, 8.0), "gain": (0.2, 0.5)},
        )
        seen = []
        original = fitting.fit_objective

        def spy(params, problem):
            seen.append(params)
            return original(params, problem)

        monkeypatch.setattr(fitting, "fit_objective", spy)
        result = ps.fit_pdc_to_thermal(problem, 500, 1e-10)
        # Without a shrink a step evaluates at most two candidates.
        assert len(seen) > 3 + 2 * result.iterations
        assert sum(p.gain == 0.2 for p in seen[3:]) > 0
        assert result == fit_by_vertex_list(problem, 500, 1e-10)

    def test_out_of_iterations(self):
        problem = ps.FitProblem(
            window=WINDOW,
            target=ps.thermal_mean(WINDOW, SOLAR),
            free_params=("entanglement_time", "gain"),
            initial=REF_PDC,
            bounds={"entanglement_time": (0.5, 8.0), "gain": (0.01, 0.5)},
        )
        result = ps.fit_pdc_to_thermal(problem, 7, 1e-12)
        assert not result.converged and result.iterations == 7
        assert result == fit_by_vertex_list(problem, 7, 1e-12)
