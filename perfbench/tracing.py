"""Spans around the library calls the CLI makes, and the per-module metrics from them.

The tracer replaces, in the `pseudosun.cli` namespace only, the names that
module imported from the library, so every call the CLI makes into a
library module is timed while the package itself stays untouched. Calls the
library makes internally are not wrapped and count toward their caller.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Layer of each name pseudosun.cli imports from the library.
LAYER = {
    "load_config": "config",
    "command_block": "config",
    "parse_spectrum": "config",
    "parse_fit": "config",
    "parse_dynamics": "config",
    "parse_heralded": "config",
    "parse_coincidence": "config",
    "mean_photon_number": "pdc",
    "thermal_mean": "pdc",
    "fit_objective": "fitting",
    "fit_pdc_to_thermal": "fitting",
    "evolve_unconditional": "dynamics",
    "normalize_trajectory": "dynamics",
    "heralded_field": "heralded",
    "average_over_heralds": "heralded",
    "evolve_heralded": "heralded",
    "coincidence_signal": "heralded",
    "write_csv": "output",
    "write_gnuplot": "output",
    "write_text": "output",
}

#: Spans whose allocation peak tracemalloc records.
ALLOCATION_TRACED = ("heralded_field", "average_over_heralds")

MB = 1e6

#: Per-layer metrics and their units, in report order.
UNITS = {
    "config.parse_s": "s",
    "pdc.spectrum_s": "s",
    "fitting.fit_s": "s",
    "fitting.iterations": "count",
    "fitting.s_per_iteration": "s",
    "dynamics.evolve_s": "s",
    "dynamics.evolve_calls": "count",
    "dynamics.s_per_step": "s",
    "dynamics.normalize_s": "s",
    "heralded.field_s": "s",
    "heralded.field_alloc_mb": "MB",
    "heralded.average_s_per_herald": "s",
    "heralded.average_alloc_mb": "MB",
    "heralded.evolve_s": "s",
    "heralded.coincidence_s": "s",
    "output.emit_s": "s",
    "output.bytes": "bytes",
    "output.mb_per_s": "MB/s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _argument(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _details(name: str, args, kwargs, result) -> dict:
    """Work counts recorded with a span."""
    if name == "fit_pdc_to_thermal":
        return {"iterations": result.iterations}
    if name == "evolve_unconditional":
        return {"steps": _argument(args, kwargs, 2, "times").count}
    if name == "average_over_heralds":
        return {"heralds": int(_argument(args, kwargs, 4, "herald_samples"))}
    if name.startswith("write_"):
        return {"bytes": Path(_argument(args, kwargs, 0, "path")).stat().st_size}
    return {}


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    alloc_bytes: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one root span per operation and one span per wrapped call."""

    def __init__(self, module):
        self.module = module
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals = {name: getattr(module, name) for name in LAYER}

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self.spans[self._stack[0]].op, self._stack[-1], 0.0)
            self.spans.append(span)
            self._stack.append(index)
            allocation = name in ALLOCATION_TRACED
            if allocation:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if allocation:
                    span.alloc_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            span.details = _details(name, args, kwargs, result)
            return result

        return traced

    def begin(self, op: int) -> None:
        """Open the operation's root span and wrap the CLI's library names."""
        self._stack = [len(self.spans)]
        self.spans.append(Span("op", op, None, 0.0))
        for name, fn in self._originals.items():
            setattr(self.module, name, self._wrap(name, fn))
        self.spans[self._stack[0]].start = time.perf_counter()

    def end(self) -> float:
        """Close the root span, restore the CLI's names and return the op's wall time."""
        root = self.spans[self._stack[0]]
        root.end = time.perf_counter()
        for name, fn in self._originals.items():
            setattr(self.module, name, fn)
        self._stack = []
        return root.duration

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

    def op_metrics(self) -> list[dict]:
        """Per-layer metrics of each traced operation."""
        self_time = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                self_time[span.parent] -= span.duration
        by_op: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            by_op.setdefault(span.op, []).append(index)
        return [self._metrics(self.spans, self_time, indices) for indices in by_op.values()]

    @staticmethod
    def _metrics(spans, self_time, indices) -> dict:
        def total(name):
            return sum((self_time[i] for i in indices if spans[i].name == name), 0.0)

        def of(name):
            return [spans[i] for i in indices if spans[i].name == name]

        def layer(layer_name):
            return sum((self_time[i] for i in indices if LAYER.get(spans[i].name) == layer_name), 0.0)

        fits, evolves = of("fit_pdc_to_thermal"), of("evolve_unconditional")
        fields, averages = of("heralded_field"), of("average_over_heralds")
        writes = [s for s in (spans[i] for i in indices) if s.name.startswith("write_")]
        iterations = sum(s.details["iterations"] for s in fits)
        steps = sum(s.details["steps"] for s in evolves)
        heralds = sum(s.details["heralds"] for s in averages)
        emit_s = layer("output")
        written = sum(s.details["bytes"] for s in writes)
        return {
            "config.parse_s": layer("config"),
            "pdc.spectrum_s": layer("pdc"),
            "fitting.fit_s": layer("fitting"),
            "fitting.iterations": iterations,
            "fitting.s_per_iteration": total("fit_pdc_to_thermal") / iterations if iterations else 0.0,
            "dynamics.evolve_s": total("evolve_unconditional"),
            "dynamics.evolve_calls": len(evolves),
            "dynamics.s_per_step": total("evolve_unconditional") / steps if steps else 0.0,
            "dynamics.normalize_s": total("normalize_trajectory"),
            "heralded.field_s": total("heralded_field") / len(fields) if fields else 0.0,
            "heralded.field_alloc_mb": max((s.alloc_bytes for s in fields), default=0) / MB,
            "heralded.average_s_per_herald": total("average_over_heralds") / heralds
            if heralds
            else 0.0,
            "heralded.average_alloc_mb": max((s.alloc_bytes for s in averages), default=0) / MB,
            "heralded.evolve_s": total("evolve_heralded"),
            "heralded.coincidence_s": total("coincidence_signal"),
            "output.emit_s": emit_s,
            "output.bytes": written,
            "output.mb_per_s": written / MB / emit_s if emit_s else 0.0,
            "cli.self_s": total("op"),
        }


def layer_report(tracer: Tracer, traced_op_s: list[float], untraced_op_s: list[float]) -> dict:
    """Median over traced operations of every per-layer metric, plus the tracing overhead."""
    per_op = tracer.op_metrics()
    report = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    report["trace.overhead_s"] = statistics.median(traced_op_s) - statistics.median(untraced_op_s)
    return report
