"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria cover the worked three-task example, the
initialization probabilities, the analytical cost/time relationships as
property suites, optimizer-vs-oracle agreement, search sanity against
exhaustive enumeration, a static regression toward the published bound,
the dual-stage benefit, operator coverage, and seeded determinism.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np
import pytest

from carptdsc import (
    MaensParams,
    NcsParams,
    RouteEvaluator,
    Solution,
    crossover,
    evaluate_route,
    evolve,
    grid_oracle,
    gss,
    init_individual,
    local_search,
    ncs,
    optimize_departures,
    parse_carp,
    route_objective,
    select_next_task,
    shortest_paths,
    split_routes,
)
from carptdsc.bench import RunConfig, run_experiment, wilcoxon_rank_sum
from carptdsc.instance_io import generate_td
from carptdsc.maens import assess

from conftest import (
    DATA,
    chain_route_instance,
    make_fig4_instance,
    make_tie_instance,
    random_route,
    random_static_instance,
    rng_for,
)
from oracles import brute_force_optimum
from test_maens import coverage_ok, make_desk_instance


def report(num: int, ok: bool, detail: str, seconds: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d}: {status} ({detail}) [{seconds:.2f}s]")


@pytest.fixture(scope="module")
def gdb1():
    _, inst = parse_carp((DATA / "gdb1.dat").read_text())
    return inst, shortest_paths(inst)


def test_criterion_01_fig4_worked_example():
    inst, sp = make_fig4_instance()
    evaluator = RouteEvaluator(inst, sp)
    expected = {0.0: 23.0, 1.0: 25.0, 2.0: 21.0, 10.0: 115.0}
    evaluator.evaluate((1, 2, 3), 0.0)  # warm the path before timing
    start = time.perf_counter()
    got = {t: evaluator.evaluate((1, 2, 3), t).total for t in expected}
    elapsed = time.perf_counter() - start
    ok = got == expected and elapsed < 1e-3
    report(1, ok, f"service sums {sorted(got.values())}, eval time {elapsed*1e6:.0f}us", elapsed)
    assert got == expected
    assert elapsed < 1e-3


def test_criterion_02_initialization_example():
    start = time.perf_counter()
    inst, sp = make_tie_instance()
    draws = 100_000
    rng = rng_for(202)
    picks = Counter(select_next_task(inst, [2, 3], 12.0, rng) for _ in range(draws))
    p2 = picks[2] / draws
    p3 = picks[3] / draws
    cost_23 = evaluate_route((2, 3), 0.0, inst, sp).total
    cost_32 = evaluate_route((3, 2), 0.0, inst, sp).total
    elapsed = time.perf_counter() - start
    ok = (
        abs(p2 - 5.0 / 6.0) < 0.01
        and abs(p3 - 1.0 / 6.0) < 0.01
        and cost_23 == 4.0
        and cost_32 == 16.0
        and elapsed < 5.0
    )
    report(2, ok, f"freqs ({p2:.3f}, {p3:.3f}) vs (0.833, 0.167); costs {cost_23}/{cost_32}", elapsed)
    assert ok


def test_criterion_03_two_segment_monotone_and_dispatch():
    start = time.perf_counter()
    violations = 0
    routes_checked = 0
    zero_dispatch_ok = True
    seed = 0
    while routes_checked < 1000:
        rng = rng_for(30_000 + seed)
        seed += 1
        inst, sp = random_static_instance(rng, n_required=6)
        inst2, _ = generate_td(inst, "2lp", (), seed=seed)
        evaluator = RouteEvaluator(inst2, sp)
        ts = np.linspace(0.0, inst2.horizon, 1000)
        for _ in range(50):
            route = random_route(rng, inst2)
            prof = evaluator.profile(route, ts)
            if np.any(np.diff(prof) < -1e-9):
                violations += 1
            routes_checked += 1
            if routes_checked >= 1000:
                break
        plan = init_individual(inst2, sp, rng)
        deps = optimize_departures(plan, inst2, sp)
        if any(d != 0.0 for d in deps):
            zero_dispatch_ok = False
    elapsed = time.perf_counter() - start
    ok = violations == 0 and zero_dispatch_ok and elapsed < 30.0
    report(3, ok, f"{routes_checked} routes, {violations} monotonicity violations, "
                  f"dispatcher zeros: {zero_dispatch_ok}", elapsed)
    assert ok


def test_criterion_04_small_slope_arrival_bounds():
    start = time.perf_counter()
    dt = 1e-4
    tol = 1e-7
    violations = 0
    for idx in range(100):
        rng = rng_for(40_000 + idx)
        n = int(rng.integers(3, 11))
        k = float(rng.choice([0.3, 0.5, 1.0]))
        inst, route, sp = chain_route_instance(rng, n, k, "guarded")
        evaluator = RouteEvaluator(inst, sp)
        for t0 in (0.0, inst.horizon / 8.0, inst.horizon / 4.0):
            base = evaluator.evaluate(route, t0).arrival_times[1:-1]
            bumped = evaluator.evaluate(route, t0 + dt).arrival_times[1:-1]
            for i, (a, b) in enumerate(zip(base, bumped), start=1):
                delta = b - a
                lower = (1.0 - k) ** (i - 1) * dt
                if delta < lower - tol or delta > dt + tol:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    report(4, ok, f"100 routes x 3 departures, {violations} bound violations", elapsed)
    assert ok


def test_criterion_05_gss_matches_grid_oracle():
    start = time.perf_counter()
    worst = 0.0
    failures = 0
    for idx in range(100):
        rng = rng_for(50_000 + idx)
        n = int(rng.integers(3, 11))
        k = float(rng.choice([0.3, 0.5, 1.0]))
        inst, route, sp = chain_route_instance(rng, n, k, "aligned")
        horizon = inst.horizon
        _, got = gss(route_objective(route, inst, sp), 0.0, horizon, 1e-7 * horizon)
        _, want = grid_oracle(
            route_objective(route, inst, sp), 0.0, horizon, horizon / 1e5
        )
        rel = abs(got - want) / want
        worst = max(worst, rel)
        if rel > 1e-6:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 120.0
    report(5, ok, f"100 routes, worst relative gap {worst:.2e}", elapsed)
    assert ok


def test_criterion_06_ncs_near_grid_oracle():
    start = time.perf_counter()
    hits = 0
    for idx in range(100):
        rng = rng_for(60_000 + idx)
        n = int(rng.integers(3, 11))
        k = float(rng.choice([2.0, 3.0]))
        inst, route, sp = chain_route_instance(rng, n, k, "general")
        horizon = inst.horizon
        obj = route_objective(route, inst, sp)
        _, got = ncs(obj, 0.0, horizon, NcsParams(budget=2000, seed=idx))
        assert obj.evaluations <= 2000
        _, want = grid_oracle(
            route_objective(route, inst, sp), 0.0, horizon, horizon / 1e5
        )
        if got <= 1.02 * want:
            hits += 1

    fig4_inst, fig4_sp = make_fig4_instance()
    fig4_obj = route_objective((1, 2, 3), fig4_inst, fig4_sp)
    _, fig4_cost = ncs(fig4_obj, 0.0, 20.0, NcsParams(budget=2000, seed=0))
    elapsed = time.perf_counter() - start
    ok = hits >= 90 and fig4_cost <= 9.41 and elapsed < 300.0
    report(6, ok, f"{hits}/100 within 1.02x oracle; worked-example cost {fig4_cost:.3f} "
                  f"(oracle min 9.222 at t 5.778)", elapsed)
    assert ok


def test_criterion_07_routing_search_matches_enumeration():
    start = time.perf_counter()
    inst, sp = make_desk_instance()
    _, want = brute_force_optimum(inst, sp)
    hits = 0
    for seed in range(20):
        res = evolve(inst, sp, MaensParams(psize=10, generations=50, pls=0.1, seed=seed))
        if abs(res.total_cost - want) < 1e-9:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 19 and elapsed < 60.0
    report(7, ok, f"{hits}/20 runs found the enumerated optimum {want:.1f}", elapsed)
    assert ok


def test_criterion_08_static_regression_toward_bound(gdb1):
    start = time.perf_counter()
    inst, sp = gdb1  # parsed costs are constant (k = 0, flat everywhere)
    assert inst.num_required == 22
    lb = 316.0
    costs = []
    for seed in range(20):
        res = evolve(inst, sp, MaensParams(psize=10, generations=50, pls=0.1, seed=seed))
        costs.append(res.total_cost)
    best = min(costs)
    elapsed = time.perf_counter() - start
    ok = abs(best - lb) / lb <= 0.05 and elapsed < 1200.0
    report(8, ok, f"best-of-20 {best:.1f} vs bound {lb:.0f} "
                  f"(gap {100*(best-lb)/lb:.2f}%, limit 331.8)", elapsed)
    assert ok


def test_criterion_09_dual_stage_benefit(gdb1):
    start = time.perf_counter()
    path = str(DATA / "gdb1.dat")
    common = dict(
        instances=(path,),
        family="3lp",
        slope_set=(2.0,),
        gen_seed=3,
        runs=20,
        base_seed=100,
        jobs=2,
        psize=10,
        generations=50,
        pls=0.1,
    )
    gn = run_experiment(RunConfig(algorithm="maens-gn", **common))
    zero = run_experiment(RunConfig(algorithm="maens-only", **common))
    costs_gn = gn.results[0].costs
    costs_zero = zero.results[0].costs
    verdict = wilcoxon_rank_sum(costs_gn, costs_zero)
    elapsed = time.perf_counter() - start
    ok = verdict.verdict == "better" and elapsed < 3600.0
    report(9, ok, f"mean {np.mean(costs_gn):.1f} vs all-zero {np.mean(costs_zero):.1f}, "
                  f"p={verdict.p_value:.2e}", elapsed)
    assert ok


def test_criterion_10_operator_coverage_invariant():
    start = time.perf_counter()
    violations = 0
    applications = 0
    rng_master = rng_for(1009)
    inst, sp = random_static_instance(rng_master, n_vertices=7, n_required=5)
    ev = RouteEvaluator(inst, sp)

    plans = []
    for s in range(4000):
        plan = init_individual(inst, sp, rng_for(70_000 + s))
        plans.append(plan)
        applications += 1
        if not coverage_ok(plan, inst):
            violations += 1
    for s in range(5000):
        rng = rng_for(80_000 + s)
        i, j = rng.integers(0, len(plans), size=2)
        child = crossover(plans[int(i)], plans[int(j)], rng, ev, 25.0).plan
        applications += 1
        if not coverage_ok(child, inst):
            violations += 1
    for s in range(1000):
        rng = rng_for(90_000 + s)
        ind = assess(ev, plans[s % len(plans)])
        out = local_search(ind, rng, ev, 25.0)
        applications += 1
        if not coverage_ok(out.plan, inst):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and applications == 10_000 and elapsed < 60.0
    report(10, ok, f"{applications} operator applications, {violations} coverage violations",
           elapsed)
    assert ok


def test_criterion_11_bench_determinism():
    start = time.perf_counter()
    config = RunConfig(
        instances=(str(DATA / "gdb1.dat"),),
        algorithm="maens-gn",
        family="3lp",
        slope_set=(2.0,),
        gen_seed=5,
        runs=2,
        base_seed=42,
        psize=6,
        generations=5,
    )
    a = run_experiment(config)
    b = run_experiment(config)
    costs_a = [rec.cost for rec in a.results[0].runs]
    costs_b = [rec.cost for rec in b.results[0].runs]
    elapsed = time.perf_counter() - start
    ok = costs_a == costs_b
    report(11, ok, f"cost columns identical: {costs_a == costs_b}", elapsed)
    assert ok
