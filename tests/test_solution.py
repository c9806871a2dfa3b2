import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carptdsc import (
    RouteEvaluator,
    Solution,
    check_feasibility,
    evaluate_route,
    evaluate_solution,
    format_solution,
    join_routes,
    split_routes,
)
from carptdsc.solution import PlanError, ordered_sum

from conftest import (
    chain_route_instance,
    make_fig4_instance,
    random_route,
    random_static_instance,
    rng_for,
)
from carptdsc.instance_io import generate_td
from oracles import reference_check_feasibility, simulate_route


def test_split_two_routes():
    assert split_routes((0, 1, 3, 0, 2, 4, 0)) == [(1, 3), (2, 4)]


def test_split_empty_and_single():
    assert split_routes((0, 0)) == []
    assert split_routes((0, 5, 0)) == [(5,)]


def test_split_drops_empty_runs():
    assert split_routes((0, 0, 1, 0, 0, 2, 0)) == [(1,), (2,)]


def test_split_rejects_undelimited():
    with pytest.raises(PlanError):
        split_routes((1, 2, 0))
    with pytest.raises(PlanError):
        split_routes((0, 1, 2))
    with pytest.raises(PlanError):
        split_routes(())


@given(st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=4), max_size=4))
def test_split_join_roundtrip(routes):
    plan = join_routes(routes)
    assert split_routes(plan) == [tuple(r) for r in routes if r]


def test_fig4_service_sums(fig4):
    inst, sp = fig4
    for t, want in [(0.0, 23.0), (1.0, 25.0), (2.0, 21.0), (10.0, 115.0)]:
        sim = simulate_route((1, 2, 3), t, inst, sp)
        assert (sim.deadhead_cost, sim.service_total) == (0.0, want)
        assert evaluate_route((1, 2, 3), t, inst, sp).total == want


def test_empty_route_total_zero(fig4):
    inst, sp = fig4
    ev = evaluate_route((), 0.0, inst, sp)
    assert ev.total == 0.0
    assert ev.arrival_times == (0.0, 0.0)


def test_route_eval_fields_consistent(fig4):
    inst, sp = fig4
    ev = evaluate_route((1, 2, 3), 1.0, inst, sp)
    assert ev.arrival_times[0] == 1.0
    assert ev.total == simulate_route((1, 2, 3), 1.0, inst, sp).total
    assert len(ev.arrival_times) == 5  # depot, three tasks, return


def test_route_eval_matches_event_walk_oracle():
    for seed in range(20):
        rng = rng_for(1000 + seed)
        inst, sp = random_static_instance(rng)
        inst3, _ = generate_td(inst, "3lp", (0.5, 2.0), seed=seed)
        route = random_route(rng, inst3, max_len=5)
        t = float(rng.uniform(0.0, inst3.horizon))
        ev = evaluate_route(route, t, inst3, sp)
        sim = simulate_route(route, t, inst3, sp)
        assert ev.total == pytest.approx(sim.total, rel=1e-12)
        assert list(ev.arrival_times[1:-1]) == pytest.approx(sim.arrivals)
        assert ev.arrival_times[-1] == pytest.approx(sim.finish)


def test_profile_matches_scalar_eval():
    rng = rng_for(7)
    inst, route, sp = chain_route_instance(rng, 6, 0.5, "general")
    evaluator = RouteEvaluator(inst, sp)
    ts = np.linspace(0.0, inst.horizon, 57)
    prof = evaluator.profile(route, ts)
    for t, v in zip(ts, prof):
        assert v == pytest.approx(evaluator.total(route, float(t)), rel=1e-12)


def test_unknown_task_rejected(fig4):
    inst, sp = fig4
    with pytest.raises(PlanError):
        evaluate_route((1, 99), 0.0, inst, sp)


def test_unreachable_leg_rejected():
    from carptdsc import Arc, ServiceCostFunction, Task, build_instance, shortest_paths

    arcs = [Arc(1, 0, 1, 1, 1), Arc(2, 1, 0, 1, 1), Arc(3, 2, 0, 1, 1)]
    tasks = [
        Task(1, arcs[0], 1.0, ServiceCostFunction(1.0)),
        Task(2, arcs[2], 1.0, ServiceCostFunction(1.0)),  # tail 2 is unreachable
    ]
    inst = build_instance(3, arcs, tasks, 0, 5.0, 100.0)
    sp = shortest_paths(inst)
    with pytest.raises(PlanError, match="no deadhead path"):
        evaluate_route((2,), 0.0, inst, sp)


def test_solution_sum_and_separability(fig4):
    inst, sp = fig4
    # same three tasks as separate one-task routes
    plan = (0, 1, 0, 2, 0, 3, 0)
    base = Solution(plan, (0.0, 0.0, 0.0))
    cost0 = evaluate_solution(base, inst, sp)
    bumped = Solution(plan, (0.0, 2.0, 0.0))
    cost1 = evaluate_solution(bumped, inst, sp)
    delta_route = (
        evaluate_route((2,), 2.0, inst, sp).total
        - evaluate_route((2,), 0.0, inst, sp).total
    )
    assert cost1 - cost0 == pytest.approx(delta_route)


def test_single_route_solution_equals_route_eval(fig4):
    inst, sp = fig4
    sol = Solution((0, 1, 2, 3, 0), (2.0,))
    assert evaluate_solution(sol, inst, sp) == evaluate_route((1, 2, 3), 2.0, inst, sp).total


def test_two_route_solution_matches_oracle_sum():
    rng = rng_for(42)
    inst, sp = random_static_instance(rng)
    inst3, _ = generate_td(inst, "3lp", (2.0,), seed=3)
    roots = sorted({inst3.pair_root(t) for t in inst3.real_task_ids})
    r1, r2 = (roots[0], roots[1]), (roots[2], roots[3])
    sol = Solution(join_routes([r1, r2]), (1.5, 4.0))
    want = (
        simulate_route(r1, 1.5, inst3, sp).total
        + simulate_route(r2, 4.0, inst3, sp).total
    )
    assert evaluate_solution(sol, inst3, sp) == pytest.approx(want)


def test_departure_count_mismatch(fig4):
    inst, sp = fig4
    with pytest.raises(ValueError, match="departure"):
        evaluate_solution(Solution((0, 1, 0, 2, 0), (0.0,)), inst, sp)


def test_deadhead_independent_of_departure():
    rng = rng_for(9)
    inst, route, sp = chain_route_instance(rng, 5, 2.0, "general")
    sims = [simulate_route(route, t, inst, sp) for t in (0.0, 3.0, 11.0)]
    assert len({sim.deadhead_cost for sim in sims}) == 1
    for t, sim in zip((0.0, 3.0, 11.0), sims):
        assert evaluate_route(route, t, inst, sp).total == sim.total


def test_feasibility_duplicate(fig4):
    inst, sp = fig4
    rep = check_feasibility(Solution((0, 1, 2, 0, 3, 1, 0), (0.0, 0.0)), inst, sp)
    assert not rep.no_duplicate_service
    assert not rep.feasible


def test_feasibility_inverse_pair(gdb1_text):
    from carptdsc import parse_carp, shortest_paths

    _, inst = parse_carp(gdb1_text)
    sp = shortest_paths(inst)
    full = [inst.pair_root(t) for t in inst.real_task_ids]
    roots = sorted(set(full))
    plan = join_routes([roots[i:i + 5] for i in range(0, len(roots), 5)])
    deps = tuple(0.0 for _ in split_routes(plan))
    ok = check_feasibility(Solution(plan, deps), inst, sp)
    assert ok.no_inverse_service and ok.all_tasks_served

    # replace the last task with the inverse of the first -> double service
    bad_routes = [list(r) for r in split_routes(plan)]
    bad_routes[-1][-1] = inst.tasks[roots[0]].inverse_id
    bad = check_feasibility(
        Solution(join_routes(bad_routes), deps), inst, sp
    )
    assert not bad.no_inverse_service
    assert not bad.all_tasks_served  # the replaced task is now missing


def test_feasibility_capacity_excess(fig4):
    inst, sp = fig4
    # fig4 tasks have demand 1 and capacity 10: force a tiny capacity clone
    from carptdsc import build_instance

    tight = build_instance(
        3, list(inst.arcs), [inst.tasks[i] for i in (1, 2, 3)],
        depot=0, capacity=2.0, horizon=1000.0,
    )
    sp2 = __import__("carptdsc").shortest_paths(tight)
    rep = check_feasibility(Solution((0, 1, 2, 3, 0), (0.0,)), tight, sp2)
    assert not rep.capacity_respected


def test_feasibility_adds_demands_in_route_order_as_stage_1_does():
    # Added in order these demands make 2.8 exactly; sum() compensates rounding
    # from Python 3.12 on and makes 2.8000000000000003, over the capacity
    from carptdsc import Arc, ServiceCostFunction, Task, build_instance, shortest_paths

    arcs = [Arc(i + 1, i, (i + 1) % 4, 1.0, 1.0) for i in range(4)]
    fn = ServiceCostFunction(1.0, 0.0, 100.0)
    demands = (1.1, 0.45, 0.15, 1.1)
    inst = build_instance(4, arcs, [Task(a.id, a, d, fn) for a, d in zip(arcs, demands)],
                          depot=0, capacity=2.8, horizon=100.0)
    sp = shortest_paths(inst)
    route = (1, 2, 3, 4)
    evaluator = RouteEvaluator(inst, sp)
    assert evaluator.walk(evaluator.origin, route)[1] == 0.0  # stage 1: no violation
    rep = check_feasibility(Solution(join_routes([route]), (0.0,)), inst, sp)
    assert rep.capacity_respected and rep.feasible


def test_ordered_sum_adds_in_order_without_compensation():
    # 1e16 + 1.0 rounds back to 1e16; the built-in sum of 3.12 on gives 1.0
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum([]) == 0.0


def test_feasibility_holds_an_infinite_departure_past_the_horizon():
    # with a constant service cost, the service start after an infinite one is
    # inf + (c_min + 0 * inf), NaN, which no comparison with H catches
    from carptdsc import Arc, ServiceCostFunction, Task, build_instance, shortest_paths

    arcs = [Arc(i + 1, i, (i + 1) % 3, 1.0, 1.0) for i in range(3)]
    fn = ServiceCostFunction(1.0, 0.0, 50.0)
    inst = build_instance(3, arcs, [Task(a.id, a, 1.0, fn) for a in arcs],
                          depot=0, capacity=10.0, horizon=100.0)
    sp = shortest_paths(inst)
    sol = Solution((0, 1, 2, 3, 0), (math.inf,))
    rep = check_feasibility(sol, inst, sp)
    assert not rep.horizon_tasks
    assert repr(rep) == repr(reference_check_feasibility(sol, inst, sp))


def test_feasibility_horizon_split(fig4):
    inst, sp = fig4  # horizon 20
    # at t=0 the fig4 route finishes at 23 > 20 but services start at <= 18
    rep = check_feasibility(Solution((0, 1, 2, 3, 0), (0.0,)), inst, sp)
    assert rep.horizon_tasks
    assert not rep.horizon_return
    assert not rep.feasible
    assert rep.returns == (23.0,)
    # each route's return, as evaluate gives it, at that route's departure
    two = Solution((0, 1, 0, 2, 3, 0), (4.0, 1.5))
    want = tuple(evaluate_route(route, t, inst, sp).arrival_times[-1]
                 for route, t in zip(split_routes(two.plan), two.departures))
    assert check_feasibility(two, inst, sp).returns == want


def test_format_solution_text(fig4):
    inst, sp = fig4
    text = format_solution(Solution((0, 1, 2, 3, 0), (2.0,)), inst, sp)
    lines = text.strip().splitlines()
    assert lines[0] == "route 1: 1 2 3; depart 2.000000; cost 21.000000"
    assert lines[-1] == "total 21.000000"
