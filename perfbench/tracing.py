"""Wrapping fedmar's layer-entry functions from outside the library.

``patched`` replaces a function on every module that binds it, so a name
imported with ``from .pairing import pair_users`` is wrapped as well as the
module attribute, and puts the originals back afterwards. ``Tracer`` uses
it to record one span per call of the functions in ``SPANS`` and turns the
spans into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

# (module, function) -> per-layer time metric its spans' self time adds to
SPANS = {
    ("fedmar.pairing", "sample_topology"): "pairing.sample_topology_s",
    ("fedmar.pairing", "pair_users"): "pairing.pair_users_s",
    ("fedmar.model", "evaluate"): "model.evaluate_s",
    ("fedmar.model", "uplink_rates"): "model.uplink_rates_s",
    ("fedmar.sp1", "solve_sp1"): "sp1.solve_s",
    ("fedmar.sp1", "solve_dual"): "sp1.dual_s",
    ("fedmar.sp2", "solve_sp2"): "sp2.solve_s",
    ("fedmar.sp2", "solve_ratio_stage"): "sp2.solve_s",
    ("fedmar.allocator", "allocate"): "allocator.allocate_self_s",
    ("fedmar.allocator", "relaxed_objective"): "allocator.relaxed_objective_s",
    ("fedmar.allocator", "allocate_best_pairing"): "allocator.best_pairing_self_s",
    ("fedmar.allocator", "greedy_baseline"): "allocator.greedy_s",
    ("fedmar.allocator", "random_baseline"): "allocator.random_s",
    ("fedmar.bench", "run_cell"): "bench.run_cell_self_s",
    ("fedmar.bench", "load_config"): "bench.config_parse_s",
    ("fedmar.bench", "format_csv_row"): "bench.csv_emit_s",
    ("fedmar.bench", "summarize"): "bench.summarize_s",
}

# Counted, not timed: it runs once per clamp pass inside solve_sp1, and a
# span each would move sp1's own time into the trace's bookkeeping.
CLAMP = ("fedmar.sp1", "clamp_resolution")

# Calls of the per-device helpers (uplink_rate, computation_cost,
# transmission_cost) run tens of thousands of times per cell and are
# deliberately not wrapped.

COUNT_METRICS = (
    "pairing.pair_users_calls",
    "model.evaluate_calls",
    "model.uplink_rates_calls",
    "sp1.calls",
    "sp1.clamp_passes",
    "sp1.clamp_passes_max",
    "sp2.calls",
    "sp2.channels",
    "sp2.newton_steps",
    "sp2.unconverged_channels",
    "sp2.rate_infeasible",
    "allocator.outer_iterations",
    "allocator.unconverged",
)
TIME_METRICS = tuple(dict.fromkeys(SPANS.values()))


@contextlib.contextmanager
def patched(wrappers: dict[tuple[str, str], Callable]) -> Iterator[None]:
    """Install ``wrappers[(module, name)](original)`` on every ``fedmar``
    module that binds the original function, restoring all on exit."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fedmar"]
    undo = []
    try:
        for (module_name, attr), make in wrappers.items():
            original = getattr(sys.modules[module_name], attr)
            wrapped = make(original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapped)
        yield
    finally:
        for module, name, original in reversed(undo):
            setattr(module, name, original)


@dataclass
class Span:
    name: str
    cell: str
    index: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sp2_counts(span: Span, result) -> None:
    stages = result[2]
    span.attrs["channels"] = int(sum(len(s.power_w) for s in stages))
    span.attrs["newton_steps"] = int(sum(int(s.newton_steps.sum()) for s in stages))
    span.attrs["unconverged"] = int(sum(int((~s.converged).sum()) for s in stages))
    span.attrs["rate_infeasible"] = int(sum(int(s.rate_infeasible.sum()) for s in stages))


def _allocate_counts(span: Span, report) -> None:
    span.attrs["outer_iterations"] = len(report.objective_trace)
    span.attrs["converged"] = bool(report.converged)


_INSPECT = {"solve_sp2": _sp2_counts, "allocate": _allocate_counts}


class Tracer:
    """Spans of wrapped calls, kept in memory. ``cell`` labels the spans
    opened until it is set again; callers set it at each cell boundary."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cell = "setup"
        self._open: list[Span] = []

    def _span(self, name: str, fn: Callable) -> Callable:
        inspect = _INSPECT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1].index if self._open else None
            span = Span(name, self.cell, len(self.spans), parent)
            self.spans.append(span)
            self._open.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if inspect is not None:
                inspect(span, result)
            return result

        return wrapper

    def _count_clamp(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open:
                attrs = self._open[-1].attrs
                attrs["clamp_passes"] = attrs.get("clamp_passes", 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def installed(self):
        wrappers = {
            key: functools.partial(self._span, key[1]) for key in SPANS
        }
        wrappers[CLAMP] = self._count_clamp
        return patched(wrappers)

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def metrics(self, rounds: list[tuple[str, float]]) -> dict[str, float]:
        """Per-layer totals over every recorded span. ``rounds`` pairs a
        cell-label prefix with the wall time of the traced round it names;
        round time no root span covers is ``trace.unattributed_s``."""
        values = {name: 0.0 for name in TIME_METRICS}
        counts = {name: 0 for name in COUNT_METRICS}
        key_of = {fn: metric for (_, fn), metric in SPANS.items()}
        for span, own in zip(self.spans, self.self_times()):
            values[key_of[span.name]] += own
            a = span.attrs
            if span.name == "pair_users":
                counts["pairing.pair_users_calls"] += 1
            elif span.name == "evaluate":
                counts["model.evaluate_calls"] += 1
            elif span.name == "uplink_rates":
                counts["model.uplink_rates_calls"] += 1
            elif span.name == "solve_sp1":
                passes = a.get("clamp_passes", 0)
                counts["sp1.calls"] += 1
                counts["sp1.clamp_passes"] += passes
                counts["sp1.clamp_passes_max"] = max(counts["sp1.clamp_passes_max"], passes)
            elif span.name == "solve_sp2":
                counts["sp2.calls"] += 1
                counts["sp2.channels"] += a["channels"]
                counts["sp2.newton_steps"] += a["newton_steps"]
                counts["sp2.unconverged_channels"] += a["unconverged"]
                counts["sp2.rate_infeasible"] += a["rate_infeasible"]
            elif span.name == "allocate":
                counts["allocator.outer_iterations"] += a["outer_iterations"]
                counts["allocator.unconverged"] += not a["converged"]
        unattributed = 0.0
        for prefix, wall in rounds:
            covered = sum(
                s.duration for s in self.spans if s.parent is None and s.cell.startswith(prefix)
            )
            unattributed += wall - covered
        values["trace.unattributed_s"] = unattributed
        return {**values, **counts}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "cell": s.cell,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )
