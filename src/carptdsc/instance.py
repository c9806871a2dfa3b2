"""Directed-graph instance model and all-pairs shortest paths.

An instance holds the full arc set (required and deadhead), the task list
(required arcs, each with a demand and a time-dependent cost function),
the depot, vehicle capacity, and the planning horizon.  The fleet is
unlimited, as in MAENS: a plan may have any number of routes.
Undirected source edges are imported as two mutually-inverse arcs; serving
either direction satisfies the task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .costfn import ServiceCostFunction


class InstanceError(ValueError):
    """Rejected instance construction, with a diagnostic message."""


@dataclass(frozen=True)
class Arc:
    id: int
    tail: int
    head: int
    travel_time: float
    travel_cost: float


@dataclass(frozen=True)
class Task:
    """A required arc.  ``inverse_id`` links the opposite-direction twin."""

    id: int
    arc: Arc
    demand: float
    cost_fn: ServiceCostFunction
    inverse_id: Optional[int] = None


@dataclass(frozen=True)
class Instance:
    name: str
    num_vertices: int
    arcs: tuple[Arc, ...]
    tasks: Mapping[int, Task]
    depot: int
    capacity: float
    horizon: float
    real_task_ids: tuple[int, ...] = field(init=False)  # every task ID, sorted
    roots: tuple[int, ...] = field(init=False)  # every pair root, sorted

    def __post_init__(self):
        object.__setattr__(self, "real_task_ids", tuple(sorted(self.tasks)))
        object.__setattr__(self, "roots", tuple(sorted(
            {self.pair_root(tid) for tid in self.real_task_ids})))

    @property
    def num_required(self) -> int:
        """Number of tasks up to inversion (an inverse pair counts once)."""
        return len(self.roots)

    def pair_root(self, task_id: int) -> int:
        """Canonical representative of a task and its inverse twin."""
        inv = self.tasks[task_id].inverse_id
        return task_id if inv is None else min(task_id, inv)

    def orientations(self, task_id: int) -> tuple[int, ...]:
        """The task and, if it has one, its inverse twin: the ways to serve it."""
        inv = self.tasks[task_id].inverse_id
        return (task_id,) if inv is None else (task_id, inv)


def build_instance(
    vertices: int,
    arcs: Sequence[Arc],
    tasks: Sequence[Task],
    depot: int,
    capacity: float,
    horizon: float,
    name: str = "",
) -> Instance:
    """Validate and assemble an instance; 0 is not a task ID but the plan separator."""
    if vertices <= 0:
        raise InstanceError(f"vertex count must be positive, got {vertices}")
    if not 0 <= depot < vertices:
        raise InstanceError(f"depot vertex {depot} outside range [0, {vertices})")
    # "not x > 0" also rejects NaN; an infinite horizon means none is set
    if not horizon > 0:
        raise InstanceError(f"planning horizon must be positive, got {horizon}")
    if not capacity > 0:
        raise InstanceError(f"vehicle capacity must be positive, got {capacity}")

    for arc in arcs:
        if not (0 <= arc.tail < vertices and 0 <= arc.head < vertices):
            raise InstanceError(
                f"arc {arc.id} references vertex outside range: "
                f"({arc.tail}, {arc.head}) with {vertices} vertices"
            )
        if not (arc.travel_time >= 0 and arc.travel_cost >= 0):  # also rejects NaN
            raise InstanceError(f"arc {arc.id} travel time and cost must be non-negative, "
                                f"got {arc.travel_time} and {arc.travel_cost}")
        if math.inf in (arc.travel_time, arc.travel_cost):
            raise InstanceError(f"arc {arc.id} travel time and cost must be finite, "
                                f"got {arc.travel_time} and {arc.travel_cost}")
    if not tasks:
        raise InstanceError("instance has no tasks")

    task_map: dict[int, Task] = {}
    for task in tasks:
        if task.id <= 0:
            raise InstanceError(f"task ID must be positive, got {task.id}")
        if task.id in task_map:
            raise InstanceError(f"duplicate task ID {task.id}")
        if not (0 <= task.arc.tail < vertices and 0 <= task.arc.head < vertices):
            raise InstanceError(f"task {task.id} arc endpoints out of range")
        if not task.demand >= 0:  # also rejects NaN
            raise InstanceError(f"task {task.id} demand must be non-negative, got {task.demand}")
        if task.demand > capacity:
            raise InstanceError(
                f"task {task.id} demand {task.demand} exceeds capacity {capacity}; "
                "it can never be served"
            )
        if task.cost_fn.c_min <= 0:
            raise InstanceError(
                f"task {task.id} must have a positive minimum service cost"
            )
        task_map[task.id] = task

    # Below 2**53 every float64 integer is exact, so sums of integral costs
    # are too.  Far beyond it, rounding outweighs a move's gain: one edge
    # cost of 1e308, or a horizon of 1e300, made local search cycle through
    # "improving" moves.  A task's cost for a start in [0, horizon] peaks at
    # an end, c_min + k * max(bt, horizon - et); with k > 0 and no horizon
    # it has no bound.
    total = (sum(arc.travel_time + arc.travel_cost for arc in arcs)
             + sum(fn.c_min + (fn.k * max(fn.bt, horizon - fn.et) if fn.k else 0.0)
                   for fn in (task.cost_fn for task in tasks)))
    if total >= 2**53:
        raise InstanceError(f"arc travel times, arc travel costs and task service costs at "
                            f"their peak on [0, horizon] sum to {total:g}; they must stay "
                            f"below 2**53")

    for task in task_map.values():
        if task.inverse_id is not None:
            twin = task_map.get(task.inverse_id)
            if twin is None:
                raise InstanceError(
                    f"task {task.id} names unknown inverse {task.inverse_id}"
                )
            if twin.inverse_id != task.id:
                raise InstanceError(
                    f"inverse link of tasks {task.id}/{twin.id} is not symmetric"
                )

    return Instance(
        name=name,
        num_vertices=vertices,
        arcs=tuple(arcs),
        tasks=task_map,
        depot=depot,
        capacity=float(capacity),
        horizon=float(horizon),
    )


@dataclass(frozen=True, eq=False)
class ShortestPaths:
    """Dense all-pairs travel time/cost matrices.

    ``time[u, v]`` is the minimum travel time from u to v; ``cost[u, v]``
    the travel cost along that time-minimizing path.  Unreachable pairs
    hold ``inf``.
    """

    time: np.ndarray
    cost: np.ndarray


def shortest_paths(instance: Instance) -> ShortestPaths:
    """All-pairs shortest paths by one Floyd–Warshall pass over (time, cost).

    Paths minimize travel time; ties are broken by lower travel cost, so
    the result is a pure function of the instance.
    """
    n = instance.num_vertices
    time = np.full((n, n), math.inf)
    cost = np.full((n, n), math.inf)
    np.fill_diagonal(time, 0.0)
    np.fill_diagonal(cost, 0.0)
    for arc in instance.arcs:  # the lexicographically least of parallel arcs
        u, v = arc.tail, arc.head
        if (arc.travel_time, arc.travel_cost) < (time[u, v], cost[u, v]):
            time[u, v], cost[u, v] = arc.travel_time, arc.travel_cost

    via_time = np.empty((n, n))
    via_cost = np.empty((n, n))
    for mid in range(n):
        # row and column mid cannot change in their own step: in place is exact
        np.add(time[:, mid, None], time[mid], out=via_time)
        np.add(cost[:, mid, None], cost[mid], out=via_cost)
        better = (via_time < time) | ((via_time == time) & (via_cost < cost))
        np.copyto(time, via_time, where=better)
        np.copyto(cost, via_cost, where=better)
    return ShortestPaths(time=time, cost=cost)
