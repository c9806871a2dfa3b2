import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from carptdsc import (
    Arc,
    MaensParams,
    ServiceCostFunction,
    Task,
    build_instance,
    crossover,
    evolve,
    init_individual,
    local_search,
    select_next_task,
    shortest_paths,
    split_routes,
)
from carptdsc import maens
from carptdsc.maens import _Record, _scan_insertion, assess
from carptdsc.solution import RouteEvaluator
from carptdsc.instance_io import generate_td

from conftest import (
    make_tie_instance,
    random_static_instance,
    rng_for,
)
from oracles import brute_force_optimum, selection_probabilities


def coverage_ok(plan, instance):
    seen = set()
    for route in split_routes(plan):
        for tid in route:
            root = instance.pair_root(tid)
            if root in seen:
                return False
            seen.add(root)
    return seen == {instance.pair_root(t) for t in instance.real_task_ids}


def make_desk_instance():
    """4 tasks around a small ring; capacity forces two routes."""
    arcs = []
    aid = 0
    def edge(u, v, c):
        nonlocal aid
        aid += 1
        a = Arc(aid, u, v, c, c)
        aid += 1
        b = Arc(aid, v, u, c, c)
        arcs.extend([a, b])
        return a, b

    e1 = edge(0, 1, 3.0)
    e2 = edge(1, 2, 4.0)
    e3 = edge(2, 3, 3.0)
    e4 = edge(3, 0, 5.0)
    fn = lambda c: ServiceCostFunction(c, 0.0, 0.0, 0.0)
    tasks = [
        Task(1, e1[0], 2.0, fn(3.0), inverse_id=2),
        Task(2, e1[1], 2.0, fn(3.0), inverse_id=1),
        Task(3, e2[0], 2.0, fn(4.0), inverse_id=4),
        Task(4, e2[1], 2.0, fn(4.0), inverse_id=3),
        Task(5, e3[0], 2.0, fn(3.0), inverse_id=6),
        Task(6, e3[1], 2.0, fn(3.0), inverse_id=5),
        Task(7, e4[0], 2.0, fn(5.0), inverse_id=8),
        Task(8, e4[1], 2.0, fn(5.0), inverse_id=7),
    ]
    inst = build_instance(4, arcs, tasks, 0, capacity=5.0, horizon=1e9, name="desk")
    return inst, shortest_paths(inst)


def test_selection_probabilities_worked_example(tie_instance):
    inst, _ = tie_instance
    probs = selection_probabilities(inst, [2, 3], 12.0)
    assert probs[0] == pytest.approx(5.0 / 6.0)
    assert probs[1] == pytest.approx(1.0 / 6.0)


def test_select_single_candidate(tie_instance):
    inst, _ = tie_instance
    assert select_next_task(inst, [3], 12.0, rng_for(0)) == 3


def test_select_uniform_when_equal_costs():
    arcs = [Arc(1, 0, 1, 1, 1), Arc(2, 0, 2, 1, 1), Arc(3, 1, 0, 1, 1), Arc(4, 2, 0, 1, 1)]
    fn = ServiceCostFunction(2.0, 0.0, 0.0, 1.0)
    tasks = [Task(1, arcs[0], 1.0, fn), Task(2, arcs[1], 1.0, fn)]
    inst = build_instance(3, arcs, tasks, 0, 9.0, 100.0)
    probs = selection_probabilities(inst, [1, 2], 0.0)
    assert probs == [0.5, 0.5]
    rng = rng_for(1)
    picks = Counter(select_next_task(inst, [1, 2], 0.0, rng) for _ in range(4000))
    assert abs(picks[1] / 4000 - 0.5) < 0.05


def test_select_empirical_frequency(tie_instance):
    inst, _ = tie_instance
    rng = rng_for(99)
    n = 100_000
    picks = Counter(select_next_task(inst, [2, 3], 12.0, rng) for _ in range(n))
    assert abs(picks[2] / n - 5.0 / 6.0) < 0.01
    assert abs(picks[3] / n - 1.0 / 6.0) < 0.01


def test_select_chi_square_against_closed_form(tie_instance):
    """Chi-square goodness of fit at significance 0.01 on 1e5 draws."""
    from scipy.stats import chi2

    inst, _ = tie_instance
    rng = rng_for(123)
    n = 100_000
    picks = Counter(select_next_task(inst, [2, 3], 12.0, rng) for _ in range(n))
    expected = {2: n * 5.0 / 6.0, 3: n * 1.0 / 6.0}
    stat = sum((picks[t] - expected[t]) ** 2 / expected[t] for t in (2, 3))
    assert stat < chi2.ppf(0.99, df=1)


def test_init_single_task_plan():
    arc = Arc(1, 0, 1, 2, 2)
    back = Arc(2, 1, 0, 2, 2)
    inst = build_instance(2, [arc, back], [Task(1, arc, 1.0, ServiceCostFunction(1.0))],
                          0, 5.0, 100.0)
    sp = shortest_paths(inst)
    assert init_individual(inst, sp, rng_for(4)) == (0, 1, 0)


def test_init_worked_example_costs(tie_instance):
    inst, sp = tie_instance
    from carptdsc import evaluate_route

    assert evaluate_route((2, 3), 0.0, inst, sp).total == 4.0
    assert evaluate_route((3, 2), 0.0, inst, sp).total == 16.0


def test_init_order_frequencies_match_roulette(tie_instance):
    inst, sp = tie_instance
    n = 100_000
    rng = rng_for(7)
    counts = Counter(init_individual(inst, sp, rng) for _ in range(n))
    assert set(counts) == {(0, 2, 3, 0), (0, 3, 2, 0)}
    assert abs(counts[(0, 2, 3, 0)] / n - 5.0 / 6.0) < 0.01
    assert abs(counts[(0, 3, 2, 0)] / n - 1.0 / 6.0) < 0.01


def test_init_covers_all_tasks():
    for seed in range(10):
        rng = rng_for(900 + seed)
        inst, sp = random_static_instance(rng)
        plan = init_individual(inst, sp, rng)
        assert coverage_ok(plan, inst)
        for route in split_routes(plan):
            load = sum(inst.tasks[t].demand for t in route)
            assert load <= inst.capacity + 1e-12


def test_crossover_identical_parents_preserve_tasks():
    rng = rng_for(55)
    inst, sp = random_static_instance(rng)
    plan = init_individual(inst, sp, rng)
    child = crossover(plan, plan, rng, RouteEvaluator(inst, sp), 1.0).plan
    assert coverage_ok(child, inst)


def test_crossover_random_parents_coverage():
    rng = rng_for(66)
    inst, sp = random_static_instance(rng)
    ev = RouteEvaluator(inst, sp)
    for _ in range(50):
        p1 = init_individual(inst, sp, rng)
        p2 = init_individual(inst, sp, rng)
        child = crossover(p1, p2, rng, ev, 1.0).plan
        assert coverage_ok(child, inst)


def test_crossover_capacity_violation_penalized():
    """Parents engineered so the recombined route exceeds capacity."""
    inst, sp = make_desk_instance()
    ev = RouteEvaluator(inst, sp)
    # both parents pack tasks into two tight routes in opposite pairings
    p1 = (0, 1, 3, 0, 5, 7, 0)
    p2 = (0, 5, 1, 0, 3, 7, 0)
    seen_violation = False
    for seed in range(40):
        child = crossover(p1, p2, rng_for(seed), ev, 1.0).plan
        assert coverage_ok(child, inst)
        ind = assess(ev, child)
        if ind.violation > 0:
            seen_violation = True
    assert seen_violation  # capacity may be violated, flagged not rejected


def test_local_search_never_worsens():
    rng = rng_for(77)
    inst, sp = random_static_instance(rng)
    ev = RouteEvaluator(inst, sp)
    for seed in range(10):
        plan = init_individual(inst, sp, rng_for(seed))
        ind = assess(ev, plan)
        out = local_search(ind, rng_for(seed), ev, 50.0)
        assert (out.total_cost + 50.0 * out.violation
                <= ind.total_cost + 50.0 * ind.violation + 1e-9)
        assert coverage_ok(out.plan, inst)


def make_one_way_pair_instance(inverses=True):
    """Tasks 1 (1->2) and 3 (2->3) on a path 1-2-3 whose ends the depot
    reaches one way only: 0->3 and 1->0 cost 1, everything else 5."""
    arcs = [Arc(1, 1, 2, 5, 5), Arc(2, 2, 1, 5, 5), Arc(3, 2, 3, 5, 5),
            Arc(4, 3, 2, 5, 5), Arc(5, 0, 3, 1, 1), Arc(6, 1, 0, 1, 1)]
    fn = ServiceCostFunction(1.0)
    if inverses:
        tasks = [Task(1, arcs[0], 1.0, fn, 2), Task(2, arcs[1], 1.0, fn, 1),
                 Task(3, arcs[2], 1.0, fn, 4), Task(4, arcs[3], 1.0, fn, 3)]
    else:
        tasks = [Task(1, arcs[0], 1.0, fn), Task(3, arcs[2], 1.0, fn)]
    inst = build_instance(4, arcs, tasks, 0, 10.0, 1e9)
    return inst, shortest_paths(inst)


def test_pair_move_reversed_and_inverted_is_the_only_improvement():
    """Route (1, 3) deadheads 0->3->2->1 and 3->2->1->0 (22); served as
    (4, 2), the pair reversed with each task inverted, it deadheads 0->3
    and 1->0 (2).  Every move of the pair as it is leaves the cost alone."""
    inst, sp = make_one_way_pair_instance()
    ev = RouteEvaluator(inst, sp)
    assert ev.walk(ev.origin, (1, 3)) == (24.0, 0.0)
    assert ev.walk(ev.origin, (4, 2)) == (4.0, 0.0)
    for seed in range(5):
        tables = [ev.table([1, 3])]
        assert _scan_insertion(tables, ev, 1.0, rng_for(seed), _Record(), length=2)
        assert [t.route for t in tables] == [[4, 2]]
        assert not _scan_insertion(tables, ev, 1.0, rng_for(seed), _Record(), length=2)
    one_way, one_way_sp = make_one_way_pair_instance(inverses=False)
    one_way_ev = RouteEvaluator(one_way, one_way_sp)
    tables = [one_way_ev.table([1, 3])]
    assert not _scan_insertion(tables, one_way_ev, 1.0, rng_for(0), _Record(), length=2)
    assert [t.route for t in tables] == [[1, 3]]


def test_local_search_fixed_point_at_optimum():
    """On a 2-task instance the enumerated optimum cannot be improved."""
    arcs = []
    aid = 0
    def edge(u, v, c):
        nonlocal aid
        aid += 1
        a = Arc(aid, u, v, c, c)
        aid += 1
        b = Arc(aid, v, u, c, c)
        arcs.extend([a, b])
        return a, b

    e1 = edge(0, 1, 2.0)
    e2 = edge(1, 2, 3.0)
    tasks = [
        Task(1, e1[0], 1.0, ServiceCostFunction(2.0), inverse_id=2),
        Task(2, e1[1], 1.0, ServiceCostFunction(2.0), inverse_id=1),
        Task(3, e2[0], 1.0, ServiceCostFunction(3.0), inverse_id=4),
        Task(4, e2[1], 1.0, ServiceCostFunction(3.0), inverse_id=3),
    ]
    inst = build_instance(3, arcs, tasks, 0, 5.0, 1e9)
    sp = shortest_paths(inst)
    best_plan, best_cost = brute_force_optimum(inst, sp)
    ev = RouteEvaluator(inst, sp)
    ind = assess(ev, best_plan)
    assert ind.total_cost == pytest.approx(best_cost)
    out = local_search(ind, rng_for(3), ev, 10.0)
    assert out.total_cost == pytest.approx(best_cost)


def test_evolve_desk_instance_matches_enumeration():
    inst, sp = make_desk_instance()
    _, want = brute_force_optimum(inst, sp)
    res = evolve(inst, sp, MaensParams(psize=10, generations=50, pls=0.1, seed=3))
    assert res.total_cost == pytest.approx(want)
    assert coverage_ok(res.plan, inst)


def test_evolve_deterministic():
    inst, sp = make_desk_instance()
    params = MaensParams(psize=6, generations=8, seed=12)
    a = evolve(inst, sp, params)
    b = evolve(inst, sp, params)
    assert a.plan == b.plan
    assert a.trace == b.trace


# The desk instance has two distinct construction plans, so both the
# initial population and the generation pools are padded with repeats:
# psize, generations, seed, plan, cost, sha1 of repr(trace)
DESK_GOLDEN = [
    (10, 50, 3, (0, 1, 3, 0, 8, 6, 0), 29.0, "c6babbf9093abf4e"),
    (6, 8, 12, (0, 1, 3, 0, 8, 6, 0), 29.0, "2fcdde9b4efe1d56"),
]


@pytest.mark.parametrize("psize,generations,seed,plan,cost,trace_sha", DESK_GOLDEN)
def test_evolve_desk_instance_pinned(psize, generations, seed, plan, cost, trace_sha):
    inst, sp = make_desk_instance()
    res = evolve(inst, sp, MaensParams(psize=psize, generations=generations, pls=0.1, seed=seed))
    assert res.plan == plan
    assert res.total_cost == cost
    assert hashlib.sha1(repr(res.trace).encode()).hexdigest()[:16] == trace_sha


def test_evolve_best_so_far_non_increasing():
    rng = rng_for(31)
    inst, sp = random_static_instance(rng)
    res = evolve(inst, sp, MaensParams(psize=6, generations=20, seed=5))
    feas = [row[2] for row in res.trace if not math.isnan(row[2])]
    assert all(b <= a + 1e-9 for a, b in zip(feas, feas[1:]))


def test_evolve_elitism_fixed_penalty(monkeypatch):
    """With the penalty frozen, the population best never worsens."""
    monkeypatch.setattr(maens, "PENALTY_PERIOD", 10_000)
    rng = rng_for(41)
    inst, sp = random_static_instance(rng)
    res = evolve(inst, sp, MaensParams(psize=6, generations=25, seed=6))
    best = [row[1] for row in res.trace]
    assert all(b <= a + 1e-9 for a, b in zip(best, best[1:]))


def test_evolve_fails_explicitly_without_feasible_plan():
    """A hopeless horizon leaves every plan violated -> explicit error."""
    from carptdsc import SolverError

    arc = Arc(1, 0, 1, 5, 5)
    back = Arc(2, 1, 0, 5, 5)
    inst = build_instance(
        2, [arc, back], [Task(1, arc, 1.0, ServiceCostFunction(5.0))],
        0, 5.0, horizon=0.5,
    )
    sp = shortest_paths(inst)
    with pytest.raises(SolverError, match="no feasible plan"):
        evolve(inst, sp, MaensParams(psize=2, generations=3, seed=0))


def test_params_validated():
    with pytest.raises(ValueError):
        MaensParams(psize=1)
    with pytest.raises(ValueError):
        MaensParams(pls=1.5)
    with pytest.raises(ValueError):
        MaensParams(generations=0)


def test_operator_coverage_mass():
    """A large randomized batch of operator applications keeps coverage."""
    rng = rng_for(51)
    inst, sp = random_static_instance(rng)
    ev = RouteEvaluator(inst, sp)
    plans = [init_individual(inst, sp, rng_for(1000 + s)) for s in range(20)]
    for plan in plans:
        assert coverage_ok(plan, inst)
    violations = 0
    for s in range(300):
        rng_s = rng_for(2000 + s)
        i, j = rng_s.integers(0, len(plans), size=2)
        child = crossover(plans[int(i)], plans[int(j)], rng_s, ev, 1.0).plan
        if not coverage_ok(child, inst):
            violations += 1
    assert violations == 0
