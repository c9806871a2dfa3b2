import math
import time
from functools import partial

import numpy as np
import pytest

from carptdsc import (
    NcsParams,
    ScalarObjective,
    grid_oracle,
    gss,
    init_individual,
    ncs,
    optimize_departures,
    route_objective,
    shortest_paths,
)
from carptdsc.instance_io import generate_td, parse_carp
from carptdsc.solution import PlanError, RouteEvaluator, join_routes, split_routes

from conftest import (
    DATA, chain_route_instance, make_fig4_instance, random_route, random_static_instance, rng_for,
)
from oracles import gss_eval_bound, reference_grid_sweep


def quadratic(center=5.0):
    return ScalarObjective(lambda t: (t - center) ** 2)


def test_gss_symmetric_unimodal():
    t, cost = gss(quadratic(), 0.0, 10.0, 1e-4)
    assert abs(t - 5.0) <= 1e-4
    assert cost <= 1e-7


def test_gss_monotone_boundary():
    obj = ScalarObjective(lambda t: 3.0 + 0.5 * t)
    t, _ = gss(obj, 0.0, 10.0, 1e-5)
    assert abs(t) <= 1e-5


def test_gss_flat_optimum_region():
    rng = rng_for(0)
    from carptdsc import Arc, ServiceCostFunction, Task, build_instance, shortest_paths

    arc = Arc(1, 0, 1, 0, 0)
    back = Arc(2, 1, 0, 0, 0)
    task = Task(1, arc, 1.0, ServiceCostFunction(1.0, 1.0, 3.0, 0.5))
    inst = build_instance(2, [arc, back], [task], 0, 5.0, 20.0)
    sp = shortest_paths(inst)
    obj = route_objective((1,), inst, sp)
    eps = 1e-5
    t, cost = gss(obj, 0.0, 20.0, eps)
    assert cost == pytest.approx(1.0)
    assert 1.0 - eps <= t <= 3.0 + eps
    oracle_t, oracle_cost = grid_oracle(route_objective((1,), inst, sp), 0.0, 20.0, 1e-3)
    assert oracle_cost == pytest.approx(1.0)


def test_gss_rejects_bad_interval():
    with pytest.raises(ValueError):
        gss(quadratic(), 5.0, 5.0, 1e-3)
    with pytest.raises(ValueError):
        gss(quadratic(), 0.0, 1.0, -1e-3)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        gss(quadratic(), 0.0, 1.0, math.nan)


def test_gss_evaluation_bound():
    for lo, hi, eps in [(0.0, 10.0, 1e-4), (0.0, 500.0, 1e-2), (2.0, 3.0, 0.5)]:
        obj = quadratic((lo + hi) / 2)
        gss(obj, lo, hi, eps)
        assert obj.evaluations - 2 <= gss_eval_bound(lo, hi, eps)


def test_grid_oracle_quadratic():
    t, cost = grid_oracle(quadratic(), 0.0, 10.0, 0.5)
    assert t == 5.0
    assert cost == 0.0


def test_grid_oracle_tie_toward_smaller_t():
    obj = ScalarObjective(lambda t: 1.0)
    t, cost = grid_oracle(obj, 2.0, 4.0, 0.5)
    assert t == 2.0
    assert cost == 1.0


def test_grid_oracle_includes_endpoint():
    obj = ScalarObjective(lambda t: -t)
    t, _ = grid_oracle(obj, 0.0, 1.0, 0.3)
    assert t == 1.0


@pytest.mark.parametrize("hi,step", [(728.0, 0.07), (786.0, 786.0 / 1e5)])
def test_grid_oracle_clamps_overshoot_to_hi(hi, step):
    # hi / step falls just short of an integer, the 1e-9 slack rounds the
    # point count up, and step * count is one ulp past hi
    t, cost = grid_oracle(ScalarObjective(lambda t: -t), 0.0, hi, step)
    assert (t, cost) == (hi, -hi)


def _table_objective(values):
    """Objective on the grid 0, 1, ..., len(values) - 1, read off ``values``."""
    values = np.asarray(values, dtype=float)
    return ScalarObjective(lambda t: values[int(t)])


SLICE = 16384  # a grid size; the tie and count tests place points around its multiples


def _one_array_argmin(values):
    i = int(np.argmin(values))
    return float(i), float(values[i])


@pytest.mark.parametrize("n", [1, 1000, SLICE, SLICE + 1, 2 * SLICE + 100])
def test_grid_oracle_slices_match_one_array_argmin(n):
    # few distinct values, so the minimum recurs in most slices
    values = rng_for(n).integers(3, 9, n)
    obj = _table_objective(values)
    assert grid_oracle(obj, 0.0, n - 1.0, 1.0) == _one_array_argmin(values)
    assert obj.evaluations == n


@pytest.mark.parametrize("first,second", [
    (SLICE - 1, SLICE),
    (SLICE, 2 * SLICE),
    (0, 2 * SLICE + 99),
    (2 * SLICE + 50, 2 * SLICE + 70),  # both in the partial last slice
])
def test_grid_oracle_tie_across_slices_takes_smaller_t(first, second):
    values = np.ones(2 * SLICE + 100)
    values[[first, second]] = 0.0
    obj = _table_objective(values)
    assert grid_oracle(obj, 0.0, len(values) - 1.0, 1.0) == (float(first), 0.0)
    assert obj.evaluations == len(values)


def test_grid_oracle_appended_hi_is_its_own_slice():
    # SLICE grid points, then hi itself
    values = np.ones(SLICE)
    values[-1] = 0.0
    obj = _table_objective(values)
    assert grid_oracle(obj, 0.0, SLICE - 0.5, 1.0) == (SLICE - 1.0, 0.0)
    assert obj.evaluations == SLICE + 1


def test_grid_oracle_fig4_samples(fig4):
    inst, sp = fig4
    obj = route_objective((1, 2, 3), inst, sp)
    costs = [obj(t) for t in np.arange(0.0, 11.0)]
    assert costs[0] == 23.0 and costs[1] == 25.0 and costs[2] == 21.0 and costs[10] == 115.0


def test_grid_oracle_fig4_fine(fig4):
    inst, sp = fig4
    obj = route_objective((1, 2, 3), inst, sp)
    t, cost = grid_oracle(obj, 0.0, 20.0, 1e-3)
    assert t == pytest.approx(52.0 / 9.0, abs=2e-3)
    assert cost == pytest.approx(83.0 / 9.0, abs=2e-2)


_, GDB1 = parse_carp((DATA / "gdb1.dat").read_text())
ORACLE_CASES = [("2lp", 1.0)] + [("3lp", k) for k in (0.3, 0.5, 1.0, 2.0, 3.0)]


def _seeded_routes(family, k):
    """gdb1 with a generated cost layer: a construction plan's routes, random
    routes of up to 12 tasks, and chain routes with windows anywhere."""
    inst, _ = generate_td(GDB1, family, (k,) if family == "3lp" else (), int(10 * k))
    sp = shortest_paths(inst)
    rng = rng_for(int(100 * k))
    cases = [(inst, sp, route) for route in split_routes(init_individual(inst, sp, rng))]
    cases += [(inst, sp, random_route(rng, inst, 12)) for _ in range(8)]
    for _ in range(4 if family == "3lp" else 0):
        chain, route, chain_sp = chain_route_instance(rng, int(rng.integers(3, 11)), k, "general")
        cases.append((chain, chain_sp, route))
    return cases


def _profile(inst, sp, route):
    """The route's cost over an array of departure times, for reference_grid_sweep."""
    return partial(RouteEvaluator(inst, sp).profile, route)


def _slope_change_count(inst, sp, route):
    """Pieces of the route table's suffix 0 after the first, each a slope change."""
    return len(RouteEvaluator(inst, sp).table(route).suffixes[0][2]) - 1


@pytest.mark.parametrize("family,k", ORACLE_CASES)
@pytest.mark.parametrize("steps", [1e5, 1e5 - 0.5], ids=["grid-ends-at-hi", "hi-appended"])
def test_grid_oracle_on_routes_matches_the_full_sweep(family, k, steps):
    for inst, sp, route in _seeded_routes(family, k):
        horizon = inst.horizon
        obj = route_objective(route, inst, sp)
        got = grid_oracle(obj, 0.0, horizon, horizon / steps)
        want = reference_grid_sweep(_profile(inst, sp, route), 0.0, horizon, horizon / steps)
        assert repr(got) == repr(want), route


def test_grid_oracle_on_routes_of_hundreds_of_pieces_matches_the_full_sweep(long_suffix_routes):
    most = 0
    for inst, sp, routes in long_suffix_routes.values():
        step = inst.horizon / 1e5
        for route in routes:
            most = max(most, _slope_change_count(inst, sp, route) + 1)
            got = grid_oracle(route_objective(route, inst, sp), 0.0, inst.horizon, step)
            want = reference_grid_sweep(_profile(inst, sp, route), 0.0, inst.horizon, step)
            assert repr(got) == repr(want), route
    assert most > 64  # pieces in some route's suffix 0


def _one_task_instance(bt, et, k):
    """Task 1 from the depot 0 to vertex 1 at time 0, on [0, 20]."""
    from carptdsc import Arc, ServiceCostFunction, Task, build_instance

    arc = Arc(1, 0, 1, 0, 0)
    back = Arc(2, 1, 0, 0, 0)
    task = Task(1, arc, 1.0, ServiceCostFunction(1.0, bt, et, k))
    inst = build_instance(2, [arc, back], [task], 0, 5.0, 20.0)
    return inst, shortest_paths(inst)


def test_grid_oracle_on_a_flat_route_takes_the_smallest_t():
    inst, sp = _one_task_instance(0.0, 20.0, 1.0)  # its window covers every departure
    obj = route_objective((1,), inst, sp)
    assert grid_oracle(obj, 0.0, 20.0, 20.0 / 1e5) == (0.0, 1.0)
    # an aligned chain is flat around its minimum: the first flat point wins
    for seed in range(5):
        inst, route, sp = chain_route_instance(rng_for(seed), 6, 0.5, "aligned")
        step = inst.horizon / 1e5
        got = grid_oracle(route_objective(route, inst, sp), 0.0, inst.horizon, step)
        want = reference_grid_sweep(_profile(inst, sp, route), 0.0, inst.horizon, step)
        assert got == want
        assert RouteEvaluator(inst, sp).total(route, got[0] - step) > got[1]


def test_grid_oracle_on_a_route_can_end_at_the_appended_hi():
    inst, sp = _one_task_instance(50.0, 60.0, 1.0)  # early all the way: cheapest at hi
    obj = route_objective((1,), inst, sp)
    assert grid_oracle(obj, 0.0, 20.0, 3.0) == (20.0, 31.0) == reference_grid_sweep(
        _profile(inst, sp, (1,)), 0.0, 20.0, 3.0)
    assert obj.evaluations == 3  # 0, 18 and hi


def test_grid_oracle_on_a_route_prices_only_around_slope_changes():
    for inst, sp, route in _seeded_routes("3lp", 2.0):
        obj = route_objective(route, inst, sp)
        grid_oracle(obj, 0.0, inst.horizon, inst.horizon / 1e5)
        assert obj.evaluations <= 4 * _slope_change_count(inst, sp, route) + 3


@pytest.mark.parametrize("route", [(99999,), (1, 99999)])
def test_grid_oracle_on_a_route_names_an_unknown_task(route):
    # the route is walked when its objective is made, before any evaluation
    inst, _ = generate_td(GDB1, "3lp", (2.0,), 3)
    with pytest.raises(PlanError, match="^unknown or depot task ID 99999 in route$"):
        route_objective(route, inst, shortest_paths(inst))


def test_grid_oracle_on_a_route_at_a_billion_steps_is_quick():
    for inst, sp, route in _seeded_routes("3lp", 3.0)[:6]:
        horizon = inst.horizon
        obj = route_objective(route, inst, sp)
        # the whole grid holds 1e9 + 1 points
        start = time.perf_counter()
        _, fine = grid_oracle(obj, 0.0, horizon, horizon * 1e-9)
        assert time.perf_counter() - start < 1.0
        _, coarse = grid_oracle(route_objective(route, inst, sp), 0.0, horizon, horizon / 1e5)
        assert fine <= coarse + 1e-9 * coarse


def test_ncs_constant_objective():
    obj = ScalarObjective(lambda t: 7.25)
    t, cost = ncs(obj, 0.0, 10.0, NcsParams(budget=50, seed=1))
    assert cost == 7.25
    assert 0.0 <= t <= 10.0


def test_ncs_budget_contracts():
    obj = ScalarObjective(lambda t: (t - 1.0) ** 2)
    t, cost = ncs(obj, 0.0, 10.0, NcsParams(budget=1, seed=3))
    assert obj.evaluations == 1
    assert cost == pytest.approx((t - 1.0) ** 2)
    obj2 = ScalarObjective(lambda t: (t - 1.0) ** 2)
    ncs(obj2, 0.0, 10.0, NcsParams(budget=137, seed=3))
    assert obj2.evaluations <= 137


def test_ncs_fig4_route(fig4):
    inst, sp = fig4
    obj = route_objective((1, 2, 3), inst, sp)
    t, cost = ncs(obj, 0.0, 20.0, NcsParams(budget=2000, seed=0))
    assert cost <= 9.41
    assert obj.evaluations <= 2000


def test_ncs_params_validated():
    with pytest.raises(ValueError):
        NcsParams(process_count=1)
    with pytest.raises(ValueError):
        NcsParams(budget=0)
    with pytest.raises(ValueError):
        ncs(ScalarObjective(lambda t: t), 3.0, 3.0, NcsParams())


def test_ncs_deterministic_per_seed(fig4):
    inst, sp = fig4
    results = [
        ncs(route_objective((1, 2, 3), inst, sp), 0.0, 20.0, NcsParams(budget=500, seed=9))
        for _ in range(2)
    ]
    assert results[0] == results[1]


def test_dispatcher_two_segment_all_zeros():
    rng = rng_for(17)
    inst, sp = random_static_instance(rng)
    inst2, _ = generate_td(inst, "2lp", (), seed=2)
    from carptdsc import init_individual

    plan = init_individual(inst2, sp, rng_for(5))
    deps = optimize_departures(plan, inst2, sp)
    assert deps == tuple(0.0 for _ in split_routes(plan))


def test_dispatcher_flat_three_segment_all_zeros():
    """At slope 0 a route costs the same at every departure, so each route
    departs at 0; golden-section search used to drift to the horizon."""
    _, static = parse_carp((DATA / "gdb1.dat").read_text())
    inst, _ = generate_td(static, "3lp", (0.0,), seed=3)
    sp = shortest_paths(inst)
    plan = init_individual(inst, sp, rng_for(5))
    evaluator = RouteEvaluator(inst, sp)
    for route in split_routes(plan):  # flat: the cost at 0 is the cost at H
        assert evaluator.total(route, 0.0) == evaluator.total(route, inst.horizon)
    assert optimize_departures(plan, inst, sp) == tuple(0.0 for _ in split_routes(plan))


def test_dispatcher_small_slope_matches_oracle():
    rng = rng_for(23)
    inst, route, sp = chain_route_instance(rng, 4, 0.5, "aligned")
    plan = join_routes([route])
    deps = optimize_departures(plan, inst, sp)
    evaluator = RouteEvaluator(inst, sp)
    got = evaluator.total(route, deps[0])
    _, want = grid_oracle(
        route_objective(route, inst, sp), 0.0, inst.horizon, inst.horizon / 1e5
    )
    assert got <= want * (1.0 + 1e-6)


def test_dispatcher_large_slope_uses_ncs(fig4):
    inst, sp = fig4  # k = 2
    deps = optimize_departures((0, 1, 2, 3, 0), inst, sp, seed=4)
    evaluator = RouteEvaluator(inst, sp)
    assert evaluator.total((1, 2, 3), deps[0]) <= 1.02 * (83.0 / 9.0)


def test_route_independence():
    """Reordering the routes of a plan permutes the departures unchanged."""
    rng = rng_for(31)
    inst, sp = random_static_instance(rng)
    inst3, _ = generate_td(inst, "3lp", (2.0,), seed=11)
    roots = sorted({inst3.pair_root(t) for t in inst3.real_task_ids})
    plan_a = join_routes([roots[:3], roots[3:]])
    plan_b = join_routes([roots[3:], roots[:3]])
    deps_a = optimize_departures(plan_a, inst3, sp, seed=0)
    deps_b = optimize_departures(plan_b, inst3, sp, seed=0)
    assert deps_a == (deps_b[1], deps_b[0])


def test_dispatcher_propagates_classification_failure():
    from carptdsc import Arc, ServiceCostFunction, Task, build_instance, shortest_paths
    from carptdsc.costfn import HeterogeneousSlopeError

    arcs = [Arc(1, 0, 1, 1, 1), Arc(2, 1, 0, 1, 1)]
    tasks = [
        Task(1, arcs[0], 1.0, ServiceCostFunction(1.0, 1.0, 2.0, 1.0)),
        Task(2, arcs[1], 1.0, ServiceCostFunction(1.0, 1.0, 2.0, 3.0)),
    ]
    inst = build_instance(2, arcs, tasks, 0, 5.0, 10.0)
    sp = shortest_paths(inst)
    with pytest.raises(HeterogeneousSlopeError):
        optimize_departures((0, 1, 0, 2, 0), inst, sp)


def test_dispatcher_requires_finite_horizon_for_three_segment():
    from carptdsc import Arc, ServiceCostFunction, Task, build_instance, shortest_paths

    arcs = [Arc(1, 0, 1, 1, 1), Arc(2, 1, 0, 1, 1)]
    # slope 0: with k > 0 and no horizon, build_instance rejects the unbounded cost
    tasks = [Task(1, arcs[0], 1.0, ServiceCostFunction(1.0, 1.0, 2.0, 0.0))]
    inst = build_instance(2, arcs, tasks, 0, 5.0, math.inf)
    sp = shortest_paths(inst)
    with pytest.raises(ValueError, match="finite planning horizon"):
        optimize_departures((0, 1, 0), inst, sp)


def test_gss_oracle_agreement_sample():
    """Smaller-N preview of the acceptance gate for gss vs the grid oracle."""
    failures = 0
    for seed in range(20):
        rng = rng_for(4000 + seed)
        n = int(rng.integers(3, 11))
        k = float(rng.choice([0.3, 0.5, 1.0]))
        inst, route, sp = chain_route_instance(rng, n, k, "aligned")
        obj = route_objective(route, inst, sp)
        _, got = gss(obj, 0.0, inst.horizon, 1e-7 * inst.horizon)
        _, want = grid_oracle(
            route_objective(route, inst, sp), 0.0, inst.horizon, inst.horizon / 1e5
        )
        if abs(got - want) / want > 1e-6:
            failures += 1
    assert failures == 0


def test_ncs_oracle_agreement_sample():
    """Smaller-N preview of the acceptance gate for ncs vs the grid oracle."""
    hits = 0
    for seed in range(20):
        rng = rng_for(5000 + seed)
        n = int(rng.integers(3, 11))
        k = float(rng.choice([2.0, 3.0]))
        inst, route, sp = chain_route_instance(rng, n, k, "general")
        obj = route_objective(route, inst, sp)
        _, got = ncs(obj, 0.0, inst.horizon, NcsParams(budget=2000, seed=seed))
        _, want = grid_oracle(
            route_objective(route, inst, sp), 0.0, inst.horizon, inst.horizon / 1e5
        )
        if got <= 1.02 * want:
            hits += 1
    assert hits >= 18
