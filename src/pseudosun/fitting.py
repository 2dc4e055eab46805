"""Fit down-conversion parameters to a target spectrum over a frequency window.

The objective is a log-space least-squares residual between the source mean
photon number and a target spectrum sampled once on the window grid, such as
the black-body curve. Log space keeps the red and blue ends of a window that
spans orders of magnitude on equal footing; the 1e-12 floor inside the logs
absorbs exact zeros at sinc nodes.

FitProblem holds the bounds as a plain mapping from parameter name to (lo,
hi) and owns every rule on them and on the free parameters; a broken rule
raises a FieldError naming its path, such as bounds.gain or free_params.

The optimizer is a bounded derivative-free simplex search, its simplex one
(d + 1, d) array of vertices in the unit box. Candidates are projected
(clipped) into the box rather than rejected, vertex ordering breaks
objective ties lexicographically on the parameter vector, and convergence
is declared when the simplex diameter drops below the tolerance.
Everything is deterministic.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FieldError, FitDivergedError, ValidationError
from .numerics import FrequencyGrid, _check_count, _check_positive
from .pdc import PdcParams, PhotonSpectrum, squeeze_profile

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
            raise FieldError("free_params: must name at least one parameter")
        for index, name in enumerate(self.free_params):
            if name not in PARAM_ORDER:
                raise FieldError(f"free_params[{index}]: unknown parameter '{name}'")
            if name not in self.bounds:
                raise FieldError(f"bounds.{name}: missing; every free parameter needs [lo, hi]")
        if len(set(self.free_params)) != len(self.free_params):
            raise FieldError(f"free_params: duplicate entries in {list(self.free_params)}")
        for name, (lo, hi) in self.bounds.items():
            if name not in PARAM_ORDER:
                raise FieldError(f"bounds.{name}: unknown parameter; use {', '.join(PARAM_ORDER)}")
            if not lo < hi:
                raise FieldError(f"bounds.{name}: must satisfy lo < hi, got [{lo}, {hi}]")
            value = getattr(self.initial, name)
            if name in self.free_params and not lo <= value <= hi:
                raise FieldError(f"initial.{name}: {value} is outside bounds [{lo}, {hi}]")
        # Every corner of the free-parameter box must be a valid parameter
        # set; the box is then valid everywhere, so projection cannot
        # produce an unconstructible candidate.
        for corner in itertools.product(*(self.bounds[name] for name in self.free_params)):
            try:
                dataclasses.replace(self.initial, **dict(zip(self.free_params, corner)))
            except ValidationError as exc:
                raise FieldError(f"bounds: admit invalid parameters ({exc})") from None

    @cached_property
    def points(self) -> np.ndarray:
        """The window's frequencies, computed once for every objective evaluation."""
        return _read_only(self.window.points)

    @cached_property
    def log_target(self) -> np.ndarray:
        """log(target + LOG_FLOOR), computed once for every objective evaluation."""
        return _read_only(np.log(self.target.values + LOG_FLOOR))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class FitResult:
    """Outcome of a simplex search, including the best-objective trace per iteration."""

    params: PdcParams
    objective_value: float
    iterations: int
    converged: bool
    trace: tuple[float, ...] = ()


def fit_objective(params: PdcParams, problem: FitProblem) -> float:
    """Mean squared log-residual between the source spectrum and the target.

    The source is sinh(r)^2, as mean_photon_number computes it, on the
    window points the problem keeps.
    """
    produced = np.sinh(squeeze_profile(problem.points, params)) ** 2
    residual = np.log(produced + LOG_FLOOR) - problem.log_target
    return float(np.mean(residual**2))


def _check_settings(max_iters: int, tol: float) -> None:
    """max_iters must pass _check_count with low 1 and tol _check_positive.

    Their messages are re-raised as FieldError with the setting's name as its path,
    such as "tol: must be finite and > 0, got inf".
    """
    try:
        _check_count("max_iters", max_iters, 1)
        _check_positive("tol", tol)
    except ValidationError as exc:
        name, rule = str(exc).split(" ", 1)
        raise FieldError(f"{name}: {rule}") from None


def fit_pdc_to_thermal(problem: FitProblem, max_iters: int = 500, tol: float = 1e-8) -> FitResult:
    """Minimize fit_objective over the free parameters with a projected simplex search.

    converged is True when the simplex diameter in box-normalized coordinates
    fell below tol before max_iters ran out. The returned objective never
    exceeds the objective at the initial point. A non-finite objective raises
    FitDivergedError carrying the offending parameters.
    """
    _check_settings(max_iters, tol)
    names = [name for name in PARAM_ORDER if name in problem.free_params]
    lo, hi = np.array([problem.bounds[name] for name in names]).T
    span = hi - lo

    def to_params(u: np.ndarray) -> PdcParams:
        values = lo + np.clip(u, 0.0, 1.0) * span
        return dataclasses.replace(problem.initial, **dict(zip(names, values.tolist())))

    def evaluate(u: np.ndarray) -> float:
        candidate = to_params(u)
        value = fit_objective(candidate, problem)
        if not np.isfinite(value):
            raise FitDivergedError(f"fit objective is non-finite at {candidate}", params=candidate)
        return value

    u0 = (np.array([getattr(problem.initial, name) for name in names]) - lo) / span
    steps = np.where(u0 + _INITIAL_STEP <= 1.0, _INITIAL_STEP, -_INITIAL_STEP)
    simplex = np.clip(np.vstack([u0, u0 + np.diag(steps)]), 0.0, 1.0)
    values = np.array([evaluate(v) for v in simplex])
    trace = []
    iterations = 0
    while True:
        # Best first; ties in value go to the lexicographically smaller vertex.
        rank = np.lexsort((*simplex.T[::-1], values))
        simplex, values = simplex[rank], values[rank]
        trace.append(float(values[0]))
        converged = bool(np.max(np.linalg.norm(simplex[:, None] - simplex, axis=-1)) < tol)
        if converged or iterations == max_iters:
            break
        iterations += 1
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]

        reflected = np.clip(centroid + _REFLECT * (centroid - worst), 0.0, 1.0)
        f_reflected = evaluate(reflected)
        if f_reflected < values[0]:
            expanded = np.clip(centroid + _EXPAND * (centroid - worst), 0.0, 1.0)
            f_expanded = evaluate(expanded)
            # The better of the two; on a tie in value, the lexicographically smaller.
            values[-1], simplex[-1] = min(
                (f_reflected, tuple(reflected)), (f_expanded, tuple(expanded))
            )
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
                simplex[1:] = np.clip(simplex[0] + _SHRINK * (simplex[1:] - simplex[0]), 0.0, 1.0)
                values[1:] = [evaluate(v) for v in simplex[1:]]

    return FitResult(
        params=to_params(simplex[0]),
        objective_value=trace[-1],
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )
