"""Spans and counters around calls into the carptdsc library.

The tracer wraps public functions from outside: each name is replaced in
every library module that binds it, which is where callers look it up
(``bench.evolve`` and ``maens.evolve`` are one function bound twice).
Coarse calls become spans (name, start, end, parent span, run id and
self time, which excludes the time of traced calls inside them).  The
three per-route forward passes of ``RouteEvaluator`` run hundreds of
thousands of times per solve, so they only add to counters: per name in
total, and per enclosing span, so a span knows how many it contains.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import carptdsc
from carptdsc import bench, cli, departure, instance, instance_io, maens, solution

MODULES = (carptdsc, instance_io, instance, solution, maens, departure, bench, cli)


def _obj_evaluations(args) -> int:
    return args[0].evaluations  # ScalarObjective, counted by the library


def _profile_points(args) -> int:
    return len(args[2])  # (self, route, ts)


# (defining module, public name, span name, extra count read after the call)
SPANS = (
    (instance_io, "parse_carp", "instance_io.parse", None),
    (instance_io, "parse_solomon", "instance_io.parse", None),
    (instance_io, "generate_td", "instance_io.generate_td", None),
    (instance, "shortest_paths", "instance.shortest_paths", None),
    (solution, "check_feasibility", "solution.check_feasibility", None),
    (solution, "evaluate_solution", "solution.evaluate_solution", None),
    (maens, "evolve", "maens.evolve", None),
    (maens, "init_individual", "maens.init_individual", None),
    (maens, "crossover", "maens.crossover", None),
    (maens, "local_search", "maens.local_search", None),
    (departure, "optimize_departures", "departure.optimize_departures", None),
    (departure, "gss", "departure.gss", _obj_evaluations),
    (departure, "ncs", "departure.ncs", _obj_evaluations),
    (departure, "grid_oracle", "departure.oracle", _obj_evaluations),
    (bench, "solve_once_detailed", "bench.solve", None),
    (bench, "compare_reports", "bench.compare", None),
    (bench, "rank_sum_p_value", "bench.rank_sum", None),
    (bench, "serialize_report", "bench.serialize_report", None),
    (bench, "read_report", "bench.read_report", None),
)
HOT = (
    ("evaluate", "solution.evaluate", None),
    ("total", "solution.total", None),
    ("profile", "solution.profile", _profile_points),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    run: str
    end: float = 0.0
    child_s: float = 0.0  # time inside traced calls made from this span
    nested: Counter = field(default_factory=Counter)  # hot calls inside, inclusive

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    extra: int = 0  # evaluations or points, where the call has them


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.totals: defaultdict[str, Totals] = defaultdict(Totals)
        self.run = ""
        self._open: list[Span] = []

    def _span(self, name: str, fn: Callable, extra: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(len(self.spans), name, time.perf_counter(),
                        parent.id if parent else None, self.run)
            self.spans.append(span)
            self._open.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                tot = self.totals[name]
                tot.calls += 1
                tot.seconds += span.seconds
                if extra is not None:
                    tot.extra += extra(args)
                if parent is not None:
                    parent.child_s += span.seconds
                    parent.nested.update(span.nested)
        return wrapper

    def _hot(self, name: str, fn: Callable, extra: Optional[Callable]) -> Callable:
        clock, stack, tot = time.perf_counter, self._open, self.totals[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                tot.calls += 1
                tot.seconds += seconds
                if extra is not None:
                    tot.extra += extra(args)
                if stack:
                    stack[-1].child_s += seconds
                    stack[-1].nested[name] += 1
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        undo = []
        try:
            for home, attr, name, extra in SPANS:
                original = getattr(home, attr)
                wrapped = self._span(name, original, extra)
                for module in MODULES:
                    if getattr(module, attr, None) is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapped)
            for attr, name, extra in HOT:
                original = getattr(solution.RouteEvaluator, attr)
                undo.append((solution.RouteEvaluator, attr, original))
                setattr(solution.RouteEvaluator, attr, self._hot(name, original, extra))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run, "self_s": s.self_s,
                    "nested": dict(s.nested),
                }) + "\n")
