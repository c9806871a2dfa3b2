"""Shared fixtures and random-instance builders."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # tests import oracles/builders

from carptdsc import (
    Arc,
    RouteEvaluator,
    ServiceCostFunction,
    Task,
    build_instance,
    init_individual,
    shortest_paths,
    split_routes,
)
from carptdsc.instance_io import StaticInstanceFile, carp_to_instance, generate_td, parse_carp
from carptdsc.maens import assess, local_search

DATA = Path(__file__).parent / "data"


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# Hand-built instances around the three-task worked example (slope 2,
# flat segments [1,3], [10,12], [14,16], minimum cost 1, zero deadhead).
# ---------------------------------------------------------------------------

FIG4_FNS = (
    ServiceCostFunction(1.0, 1.0, 3.0, 2.0),
    ServiceCostFunction(1.0, 10.0, 12.0, 2.0),
    ServiceCostFunction(1.0, 14.0, 16.0, 2.0),
)


def make_fig4_instance(horizon: float = 20.0):
    """Tasks h1: 0->1, h2: 1->2, h3: 2->0; directly connected, depot 0."""
    arcs = [
        Arc(1, 0, 1, 0.0, 0.0),
        Arc(2, 1, 2, 0.0, 0.0),
        Arc(3, 2, 0, 0.0, 0.0),
    ]
    tasks = [
        Task(1, arcs[0], 1.0, FIG4_FNS[0]),
        Task(2, arcs[1], 1.0, FIG4_FNS[1]),
        Task(3, arcs[2], 1.0, FIG4_FNS[2]),
    ]
    inst = build_instance(
        3, arcs, tasks, depot=0, capacity=10.0, horizon=horizon, name="fig4",
    )
    return inst, shortest_paths(inst)


def make_tie_instance():
    """Two tasks equally near the depot (travel time 12, zero travel cost).

    Reproduces the initialization worked example: both tasks arrive at
    time 12 from a fresh route, their service costs there are 1 and 5,
    and the two serving orders cost 4 and 16 in total.  Task 2 plays h2
    (flat [10, 12]) and task 3 plays h3 (flat [14, 16]).
    """
    arcs = [
        Arc(1, 0, 1, 12.0, 0.0),   # depot -> tail of h2
        Arc(2, 0, 2, 12.0, 0.0),   # depot -> tail of h3
        Arc(3, 1, 2, 0.0, 0.0),    # h2 arc
        Arc(4, 2, 1, 0.0, 0.0),    # h3 arc
        Arc(5, 1, 0, 0.0, 0.0),    # free return legs
        Arc(6, 2, 0, 0.0, 0.0),
    ]
    tasks = [
        Task(2, arcs[2], 1.0, FIG4_FNS[1]),
        Task(3, arcs[3], 1.0, FIG4_FNS[2]),
    ]
    inst = build_instance(
        3, arcs, tasks, depot=0, capacity=10.0, horizon=100.0, name="tie",
    )
    return inst, shortest_paths(inst)


@pytest.fixture(scope="session")
def fig4():
    return make_fig4_instance()


@pytest.fixture(scope="session")
def tie_instance():
    return make_tie_instance()


@pytest.fixture(scope="session")
def gdb1_text():
    return (DATA / "gdb1.dat").read_text()


@pytest.fixture(scope="session")
def r101_text():
    return (DATA / "r101_25.txt").read_text()


@pytest.fixture(scope="session")
def long_suffix_routes():
    """{(capacity, k): (instance, shortest paths, routes)} on long-routes-0.dat
    with CAPACITY 60 or 120 and a 3LP layer of slope k = 2 or 3: the routes
    of one local search from a construction plan, whose route tables have
    suffixes of hundreds of pieces."""
    text = (DATA / "long-routes-0.dat").read_text()
    cases = {}
    for capacity in (60, 120):
        _, static = parse_carp(text.replace("CAPACITY : 30", f"CAPACITY : {capacity}"))
        for k in (2.0, 3.0):
            inst, _ = generate_td(static, "3lp", (k,), 0)
            sp = shortest_paths(inst)
            ev = RouteEvaluator(inst, sp)
            searched = local_search(assess(ev, init_individual(inst, sp, rng_for(0))),
                                    rng_for(1), ev, 1.0)
            cases[capacity, k] = (inst, sp, [list(r) for r in split_routes(searched.plan)])
    return cases


# ---------------------------------------------------------------------------
# Random builders
# ---------------------------------------------------------------------------

def random_static_file(rng, n_vertices=8, n_extra_edges=6, n_required=6,
                       capacity=12.0, name="rand") -> StaticInstanceFile:
    """Random connected undirected instance in raw DAT-record form.

    A random ring guarantees connectivity; extra random chords follow.
    The first ``n_required`` edges carry demands.
    """
    order = list(rng.permutation(n_vertices))
    edges = []
    seen = set()
    for i in range(n_vertices):
        u, v = order[i] + 1, order[(i + 1) % n_vertices] + 1
        key = (min(u, v), max(u, v))
        seen.add(key)
        edges.append(key)
    while len(edges) < n_vertices + n_extra_edges:
        u, v = rng.integers(1, n_vertices + 1, size=2)
        key = (min(int(u), int(v)), max(int(u), int(v)))
        if u == v or key in seen:
            continue
        seen.add(key)
        edges.append(key)
    rng.shuffle(edges)
    n_required = min(n_required, len(edges))
    required = tuple(
        (i, j, float(rng.integers(1, 11)), float(rng.integers(1, 5)))
        for i, j in edges[:n_required]
    )
    non_required = tuple(
        (i, j, float(rng.integers(1, 11))) for i, j in edges[n_required:]
    )
    depot = int(edges[0][0])
    return StaticInstanceFile(
        name=name,
        vertices=n_vertices,
        required_edges=required,
        non_required_edges=non_required,
        capacity=capacity,
        depot=depot,
    )


def random_static_instance(rng, **kwargs):
    inst = carp_to_instance(random_static_file(rng, **kwargs))
    return inst, shortest_paths(inst)


def random_route(rng, instance, max_len=None):
    """Random task subset in random order and orientation (capacity ignored)."""
    roots = sorted({instance.pair_root(t) for t in instance.real_task_ids})
    size = int(rng.integers(1, len(roots) + 1 if max_len is None
                            else min(max_len, len(roots)) + 1))
    picked = rng.choice(len(roots), size=size, replace=False)
    route = []
    for idx in picked:
        root = roots[int(idx)]
        inv = instance.tasks[root].inverse_id
        if inv is not None and rng.random() < 0.5:
            route.append(inv)
        else:
            route.append(root)
    return tuple(route)


def chain_route_instance(rng, n_tasks, k, window_mode, horizon=None,
                         name="chain"):
    """A single-route instance: task arcs joined by deadhead legs.

    Vertices: depot 0, then (tail, head) pairs per task; a deadhead arc
    leads into every task's tail and from the last head back to the depot,
    so the route has genuine travel legs between services.

    ``window_mode`` controls the flat segments:

    * ``"general"``  midpoints uniform in [0.1*T, 0.9*T], widths in
      [c_min, 3*c_min] (the benchmark-generator shape);
    * ``"guarded"``  flat segments extend past every reachable arrival,
      so no task is ever served on its increasing ramp;
    * ``"aligned"``  all windows contain one common departure interval,
      so the route has a provably flat global minimum at
      sum(c_min) + deadhead.

    Returns (instance, route, shortest paths).
    """
    n_vertices = 2 * n_tasks + 1
    tail_of = lambda i: 2 * i - 1  # task i in 1..n
    head_of = lambda i: 2 * i
    leg_times = [float(rng.uniform(0.0, 3.0)) for _ in range(n_tasks)]
    back = float(rng.uniform(0.0, 3.0))
    c_mins = [float(rng.uniform(1.0, 6.0)) for _ in range(n_tasks)]

    arcs = []
    aid = 0
    prev = 0  # depot
    task_arcs = []
    for i in range(1, n_tasks + 1):
        lt = leg_times[i - 1]
        aid += 1
        arcs.append(Arc(aid, prev, tail_of(i), lt, lt))  # deadhead leg
        aid += 1
        c = c_mins[i - 1]
        task_arc = Arc(aid, tail_of(i), head_of(i), c, c)
        arcs.append(task_arc)
        task_arcs.append(task_arc)
        prev = head_of(i)
    aid += 1
    arcs.append(Arc(aid, prev, 0, back, back))

    if horizon is None:
        horizon = 4.0 * (sum(c_mins) + sum(leg_times) + back) + 40.0

    # arrival offsets (relative to departure) when every task is flat
    flat_arrivals = []
    clock = 0.0
    for i in range(n_tasks):
        clock += leg_times[i]
        flat_arrivals.append(clock)
        clock += c_mins[i]

    fns = []
    if window_mode == "aligned":
        t_ref = float(rng.uniform(0.1 * horizon, 0.6 * horizon))
        delta = horizon / 100.0
        for i in range(n_tasks):
            lo = t_ref + flat_arrivals[i]
            bt = max(0.0, lo - rng.uniform(0.0, 2.0))
            et = lo + delta + rng.uniform(0.0, 2.0)
            fns.append(ServiceCostFunction(c_mins[i], bt, et, k))
    elif window_mode == "guarded":
        for i in range(n_tasks):
            bt = float(rng.uniform(0.0, horizon / 2.0))
            fns.append(ServiceCostFunction(c_mins[i], bt, horizon * 10.0, k))
    elif window_mode == "general":
        for i in range(n_tasks):
            mid = float(rng.uniform(0.1 * horizon, 0.9 * horizon))
            width = float(rng.uniform(c_mins[i], 3.0 * c_mins[i]))
            bt = max(0.0, mid - width / 2.0)
            fns.append(ServiceCostFunction(c_mins[i], bt, bt + width, k))
    else:
        raise ValueError(window_mode)

    tasks = [
        Task(i + 1, task_arcs[i], 1.0, fns[i]) for i in range(n_tasks)
    ]
    inst = build_instance(
        n_vertices, arcs, tasks, depot=0, capacity=float(n_tasks),
        horizon=horizon, name=name,
    )
    route = tuple(range(1, n_tasks + 1))
    return inst, route, shortest_paths(inst)
