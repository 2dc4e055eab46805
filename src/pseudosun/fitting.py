"""Fit down-conversion parameters to a target spectrum over a frequency window.

The objective is a log-space least-squares residual between the source mean
photon number and a target spectrum sampled once on the window grid, such as
the black-body curve. Log space keeps the red and blue ends of a window that
spans orders of magnitude on equal footing; the 1e-12 floor inside the logs
absorbs exact zeros at sinc nodes.

The optimizer is a bounded derivative-free simplex search. Candidates are
projected (clipped) into the box rather than rejected, vertex ordering
breaks objective ties lexicographically on the parameter vector, and
convergence is declared when the simplex diameter in box-normalized
coordinates drops below the tolerance. Everything is deterministic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, FitDivergedError, ValidationError
from .numerics import FrequencyGrid
from .pdc import PdcParams, PhotonSpectrum, mean_photon_number

LOG_FLOOR = 1e-12

#: Canonical ordering of the fittable parameters.
PARAM_ORDER = ("pump_freq", "signal_center", "entanglement_time", "gain")

_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5
_INITIAL_STEP = 0.05


@dataclass(frozen=True)
class FitProblem:
    """A bounded fit of a subset of PdcParams to a target spectrum sampled on the window grid."""

    window: FrequencyGrid
    target: PhotonSpectrum
    free_params: tuple[str, ...]
    initial: PdcParams
    bounds: dict[str, tuple[float, float]]

    def __post_init__(self):
        if not isinstance(self.target, PhotonSpectrum):
            raise ValidationError("FitProblem: target must be a sampled PhotonSpectrum")
        if self.target.grid != self.window:
            raise ValidationError("FitProblem: target must be sampled on the window grid")
        object.__setattr__(self, "free_params", tuple(self.free_params))
        if not self.free_params:
            raise ValidationError("FitProblem: free_params must be non-empty")
        for index, name in enumerate(self.free_params):
            if name not in PARAM_ORDER:
                raise FieldError(f"free_params[{index}]: unknown parameter '{name}'")
            if name not in self.bounds:
                raise ValidationError(f"FitProblem: missing bounds for '{name}'")
        if len(set(self.free_params)) != len(self.free_params):
            raise ValidationError("FitProblem: duplicate entries in free_params")
        for name, (lo, hi) in self.bounds.items():
            if name not in PARAM_ORDER:
                raise ValidationError(f"FitProblem: bounds given for unknown parameter '{name}'")
            if not lo < hi:
                raise ValidationError(f"FitProblem: bounds for '{name}' must satisfy lo < hi")
            value = getattr(self.initial, name)
            if name in self.free_params and not lo <= value <= hi:
                raise FieldError(f"initial.{name}: {value} is outside bounds [{lo}, {hi}]")
        # Every corner of the free-parameter box must be a valid parameter
        # set; the box is then valid everywhere, so projection cannot
        # produce an unconstructible candidate.
        names = _ordered_free(self.free_params)
        for corner in range(2 ** len(names)):
            values = {
                name: self.bounds[name][(corner >> k) & 1] for k, name in enumerate(names)
            }
            try:
                dataclasses.replace(self.initial, **values)
            except ValidationError as exc:
                raise ValidationError(f"FitProblem: bounds admit invalid parameters ({exc})")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a simplex search, including the best-objective trace per iteration."""

    params: PdcParams
    objective_value: float
    iterations: int
    converged: bool
    trace: tuple[float, ...] = ()


def _ordered_free(free_params) -> tuple[str, ...]:
    return tuple(name for name in PARAM_ORDER if name in free_params)


def fit_objective(params: PdcParams, problem: FitProblem) -> float:
    """Mean squared log-residual between the source spectrum and the target."""
    produced = mean_photon_number(problem.window, params).values
    residual = np.log(produced + LOG_FLOOR) - np.log(problem.target.values + LOG_FLOOR)
    return float(np.mean(residual**2))


def fit_pdc_to_thermal(problem: FitProblem, max_iters: int = 500, tol: float = 1e-8) -> FitResult:
    """Minimize fit_objective over the free parameters with a projected simplex search.

    converged is True when the simplex diameter in box-normalized coordinates
    fell below tol before max_iters ran out. The returned objective never
    exceeds the objective at the initial point. A non-finite objective raises
    FitDivergedError carrying the offending parameters.
    """
    if int(max_iters) != max_iters or max_iters < 1:
        raise ValidationError(f"fit_pdc_to_thermal: max_iters must be >= 1, got {max_iters}")
    if not tol > 0:
        raise ValidationError(f"fit_pdc_to_thermal: tol must be > 0, got {tol}")

    names = _ordered_free(problem.free_params)
    lo = np.array([problem.bounds[name][0] for name in names])
    hi = np.array([problem.bounds[name][1] for name in names])
    span = hi - lo
    dim = len(names)

    def to_params(u: np.ndarray) -> PdcParams:
        values = {
            name: float(v) for name, v in zip(names, lo + np.clip(u, 0.0, 1.0) * span)
        }
        return dataclasses.replace(problem.initial, **values)

    def evaluate(u: np.ndarray) -> float:
        candidate = to_params(u)
        value = fit_objective(candidate, problem)
        if not np.isfinite(value):
            raise FitDivergedError(
                f"fit objective is non-finite at {candidate}", params=candidate
            )
        return value

    u0 = (np.array([getattr(problem.initial, name) for name in names]) - lo) / span
    simplex = [u0]
    for k in range(dim):
        step = _INITIAL_STEP if u0[k] + _INITIAL_STEP <= 1.0 else -_INITIAL_STEP
        vertex = u0.copy()
        vertex[k] += step
        simplex.append(vertex)
    simplex = [np.clip(v, 0.0, 1.0) for v in simplex]
    values = [evaluate(v) for v in simplex]

    def order():
        ranked = sorted(zip(values, (tuple(v) for v in simplex), simplex), key=lambda t: t[:2])
        return [t[2] for t in ranked], [t[0] for t in ranked]

    simplex, values = order()
    trace = [values[0]]
    iterations = 0
    converged = _diameter(simplex) < tol

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
        converged = _diameter(simplex) < tol

    return FitResult(
        params=to_params(simplex[0]),
        objective_value=values[0],
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )


def _diameter(simplex) -> float:
    return max(
        float(np.linalg.norm(a - b)) for i, a in enumerate(simplex) for b in simplex[i + 1 :]
    )
