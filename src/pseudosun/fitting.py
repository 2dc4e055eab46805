"""Fit down-conversion parameters to a target spectrum over a frequency window.

The objective is a log-space least-squares residual between the source mean
photon number and a target spectrum sampled once on the window grid, such as
the black-body curve. Log space keeps the red and blue ends of a window that
spans orders of magnitude on equal footing; the 1e-12 floor inside the logs
absorbs exact zeros at sinc nodes.

FitProblem holds the bounds as a plain mapping from parameter name to (lo,
hi) and owns every rule on them and on the free parameters; a broken rule
raises a FieldError naming its path, such as bounds.gain or free_params.

The optimizer is a bounded derivative-free simplex search over the unit
box. Its d + 1 vertices are tuples of d Python floats, each kept with its
objective value; every step takes the IEEE operations, in the same order,
that the search on a numpy array of vertices takes, so both evaluate the
same candidates. Candidates are projected (clipped) into the box rather
than rejected, vertex ordering breaks objective ties lexicographically on
the parameter vector, and convergence is declared when the simplex
diameter drops below the tolerance. Everything is deterministic.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FieldError, FitDivergedError, ValidationError
from .numerics import C_CM_PER_FS, FrequencyGrid, _check_count, _check_positive
from .pdc import PdcParams, PhotonSpectrum

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
    window points the problem keeps. It runs in place on the call's own
    arrays, in the IEEE operations of squeeze_profile, numerics.sinc and
    np.mean, so it equals the spectrum form to the bit.
    """
    phase = np.subtract(problem.points, params.signal_center)
    phase *= np.pi * C_CM_PER_FS
    phase *= params.entanglement_time
    # sinc as numerics.sinc forms it: an exact zero keeps the 1.0 limit, and
    # no 0/0 is formed.
    residual = np.ones_like(phase)
    np.divide(np.sin(phase), phase, out=residual, where=phase != 0)
    residual *= params.gain
    np.sinh(residual, out=residual)
    np.square(residual, out=residual)
    residual += LOG_FLOOR
    np.log(residual, out=residual)
    residual -= problem.log_target
    np.square(residual, out=residual)
    # np.mean's sum, then its division by the count.
    return float(np.add.reduce(residual)) / residual.size


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


def _project(x: float) -> float:
    """x clipped into [0, 1] as np.clip clips it; -0.0 becomes 0.0."""
    return min(max(0.0, x), 1.0)


def _centroid(points: list[tuple[float, ...]]) -> tuple[float, ...]:
    """np.mean over the points: coordinates summed in point order, then divided by the count."""
    total = points[0]
    for point in points[1:]:
        total = [a + b for a, b in zip(total, point)]
    return tuple(a / len(points) for a in total)


def _diameter_below(points: list[tuple[float, ...]], tol: float) -> bool:
    """True when every pairwise distance is below tol.

    Each distance sums its squares in coordinate order, as np.linalg.norm
    does over a vector this short, so the result is the one "max norm < tol"
    gives; the search stops at the first pair at or above tol.
    """
    for index, a in enumerate(points):
        for b in points[index + 1 :]:
            total = 0.0
            for x, y in zip(a, b):
                total += (x - y) * (x - y)
            if not math.sqrt(total) < tol:
                return False
    return True


def fit_pdc_to_thermal(problem: FitProblem, max_iters: int = 500, tol: float = 1e-8) -> FitResult:
    """Minimize fit_objective over the free parameters with a projected simplex search.

    converged is True when the simplex diameter in box-normalized coordinates
    fell below tol before max_iters ran out. The returned objective never
    exceeds the objective at the initial point. A non-finite objective raises
    FitDivergedError carrying the offending parameters.
    """
    _check_settings(max_iters, tol)
    free = [index for index, name in enumerate(PARAM_ORDER) if name in problem.free_params]
    lo = [float(problem.bounds[PARAM_ORDER[index]][0]) for index in free]
    span = [float(problem.bounds[PARAM_ORDER[index]][1]) - low for index, low in zip(free, lo)]
    start = [getattr(problem.initial, name) for name in PARAM_ORDER]

    def to_params(u: tuple[float, ...]) -> PdcParams:
        values = start.copy()
        for index, low, width, x in zip(free, lo, span, u):
            values[index] = low + x * width
        return PdcParams(*values)

    def evaluate(u: tuple[float, ...]) -> tuple[float, tuple[float, ...]]:
        candidate = to_params(u)
        value = fit_objective(candidate, problem)
        if not math.isfinite(value):
            raise FitDivergedError(f"fit objective is non-finite at {candidate}", params=candidate)
        return value, u

    u0 = [(float(start[index]) - low) / width for index, low, width in zip(free, lo, span)]
    simplex = [u0]
    for k, x in enumerate(u0):
        vertex = u0.copy()
        vertex[k] = x + _INITIAL_STEP if x + _INITIAL_STEP <= 1.0 else x - _INITIAL_STEP
        simplex.append(vertex)
    # Each vertex is a (value, point) pair, so sorting ranks by value and breaks
    # ties lexicographically on the point.
    vertices = [evaluate(tuple(map(_project, u))) for u in simplex]
    trace = []
    iterations = 0
    while True:
        vertices.sort()
        best_value, best = vertices[0]
        trace.append(best_value)
        converged = _diameter_below([u for _, u in vertices], tol)
        if converged or iterations == max_iters:
            break
        iterations += 1
        centroid = _centroid([u for _, u in vertices[:-1]])
        f_worst, worst = vertices[-1]

        reflected = tuple(_project(c + _REFLECT * (c - w)) for c, w in zip(centroid, worst))
        f_reflected, _ = evaluate(reflected)
        if f_reflected < best_value:
            expanded = tuple(_project(c + _EXPAND * (c - w)) for c, w in zip(centroid, worst))
            # The better of the two; on a tie in value, the lexicographically smaller.
            vertices[-1] = min((f_reflected, reflected), evaluate(expanded))
        elif f_reflected < vertices[-2][0]:
            vertices[-1] = (f_reflected, reflected)
        else:
            if f_reflected < f_worst:
                contracted = tuple(
                    _project(c + _CONTRACT * (r - c)) for c, r in zip(centroid, reflected)
                )
            else:
                contracted = tuple(
                    _project(c - _CONTRACT * (c - w)) for c, w in zip(centroid, worst)
                )
            f_contracted, _ = evaluate(contracted)
            if f_contracted < min(f_reflected, f_worst):
                vertices[-1] = (f_contracted, contracted)
            else:
                shrunk = [
                    tuple(_project(b + _SHRINK * (x - b)) for b, x in zip(best, u))
                    for _, u in vertices[1:]
                ]
                vertices[1:] = [evaluate(u) for u in shrunk]

    return FitResult(
        params=to_params(best),
        objective_value=best_value,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )
