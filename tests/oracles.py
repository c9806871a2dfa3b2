"""Independent oracles for the test suite.

Everything here is deliberately written from scratch (explicit segment
logic, matrix relaxation, exhaustive enumeration, a per-process search
with pairwise distances) so the implementations under test are checked
against a second, unrelated path to the answer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from carptdsc.departure import INVPHI, NCS_EPOCH_ADAPT, NCS_SIGMA_DIVISOR
from carptdsc.maens import IMPROVE_EPS, LS_MAX_SWEEPS, SCORE_FLOOR, _merge_split, assess
from carptdsc.solution import (
    SCREEN_TOL, FeasibilityReport, RouteEvaluator, join_routes, split_routes,
)


def piecewise_cost(c_min, bt, et, k, t):
    """Three-segment cost by explicit segment selection."""
    if t < bt:
        return c_min + (bt - t) * k
    elif t <= et:
        return c_min
    else:
        return c_min + (t - et) * k


def selection_probabilities(instance, candidates, current_time):
    """Closed-form roulette probabilities of ``select_next_task``."""
    scores = [
        1.0 / max(instance.tasks[tid].cost_fn.value(current_time), SCORE_FLOOR)
        for tid in candidates
    ]
    total = sum(scores)
    return [s / total for s in scores]


def gss_eval_bound(lo, hi, epsilon):
    """Closed-form bound on gss evaluations beyond the initial pair."""
    if epsilon >= hi - lo:
        return 2
    return math.ceil(math.log(epsilon / (hi - lo)) / math.log(INVPHI)) + 2


@dataclass
class SimResult:
    arrivals: list
    service_total: float
    deadhead_cost: float
    finish: float

    @property
    def total(self):
        return self.service_total + self.deadhead_cost


def simulate_route(route, depart, instance, sp):
    """Step-by-step event walk: deadhead leg, serve, repeat, return home."""
    clock = depart
    at = instance.depot
    deadhead_cost = 0.0
    service_total = 0.0
    arrivals = []
    for tid in route:
        task = instance.tasks[tid]
        leg_time, leg_cost = sp.time[at, task.arc.tail], sp.cost[at, task.arc.tail]
        clock += leg_time
        deadhead_cost += leg_cost
        arrivals.append(clock)
        fn = task.cost_fn
        sc = piecewise_cost(fn.c_min, fn.bt, fn.et, fn.k, clock)
        service_total += sc
        clock += sc
        at = task.arc.head
    leg_time, leg_cost = sp.time[at, instance.depot], sp.cost[at, instance.depot]
    clock += leg_time
    deadhead_cost += leg_cost
    return SimResult(arrivals, service_total, deadhead_cost, clock)


def floyd_warshall(instance):
    """All-pairs (time, cost) by lexicographic relaxation."""
    n = instance.num_vertices
    inf = math.inf
    t = [[inf] * n for _ in range(n)]
    c = [[inf] * n for _ in range(n)]
    for v in range(n):
        t[v][v] = 0.0
        c[v][v] = 0.0
    for arc in instance.arcs:
        cand = (arc.travel_time, arc.travel_cost)
        if cand < (t[arc.tail][arc.head], c[arc.tail][arc.head]):
            t[arc.tail][arc.head], c[arc.tail][arc.head] = cand
    for mid in range(n):
        for i in range(n):
            if t[i][mid] == inf:
                continue
            for j in range(n):
                if t[mid][j] == inf:
                    continue
                cand = (t[i][mid] + t[mid][j], c[i][mid] + c[mid][j])
                if cand < (t[i][j], c[i][j]):
                    t[i][j], c[i][j] = cand
    return t, c


def all_plans(instance):
    """Every coverage-feasible, capacity-feasible plan of a small instance."""
    roots = sorted({instance.pair_root(t) for t in instance.real_task_ids})
    orientations = []
    for root in roots:
        inv = instance.tasks[root].inverse_id
        orientations.append((root,) if inv is None else (root, inv))
    for perm in itertools.permutations(range(len(roots))):
        for orient in itertools.product(*[orientations[i] for i in perm]):
            seq = list(orient)
            for cuts in itertools.product([False, True], repeat=len(seq) - 1):
                routes = []
                cur = [seq[0]]
                for tid, cut in zip(seq[1:], cuts):
                    if cut:
                        routes.append(cur)
                        cur = [tid]
                    else:
                        cur.append(tid)
                routes.append(cur)
                if any(
                    sum(instance.tasks[t].demand for t in r) > instance.capacity
                    for r in routes
                ):
                    continue
                plan = [0]
                for r in routes:
                    plan.extend(r)
                    plan.append(0)
                yield tuple(plan)


def brute_force_optimum(instance, sp):
    """Exhaustive minimum total cost at all-zero departures."""
    evaluator = RouteEvaluator(instance, sp)
    best_cost = math.inf
    best_plan = None
    for plan in all_plans(instance):
        cost = sum(evaluator.total(r, 0.0) for r in split_routes(plan))
        if cost < best_cost:
            best_cost = cost
            best_plan = plan
    return best_plan, best_cost


def bhattacharyya(m1, s1, m2, s2):
    """Bhattacharyya distance between two 1-D Gaussians."""
    v1, v2 = s1 * s1, s2 * s2
    return 0.25 * (m1 - m2) ** 2 / (v1 + v2) + 0.5 * math.log(
        (v1 + v2) / (2.0 * s1 * s2)
    )


def reference_ncs(obj, lo, hi, params):
    """Negatively-correlated search written per process and per draw.

    Keeps one step size per process, draws every normal variate with its
    own call, and takes each proposal's distance as the minimum pairwise
    Bhattacharyya distance to the other processes.
    """
    if lo >= hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    rng = np.random.Generator(np.random.PCG64(params.seed))
    span = hi - lo
    nproc = params.process_count
    sigma0 = span / NCS_SIGMA_DIVISOR

    means = []
    fits = []
    best_t = math.nan
    best_f = math.inf
    used = 0

    def evaluate(t):
        nonlocal used, best_t, best_f
        f = obj(t)
        used += 1
        if f < best_f:
            best_f, best_t = f, t
        return f

    init_points = lo + span * rng.random(nproc)
    for t in init_points:
        if used >= params.budget:
            return best_t, best_f
        means.append(float(t))
        fits.append(evaluate(float(t)))
    sigmas = [sigma0] * len(means)

    epoch = 0
    successes = 0
    while used < params.budget:
        epoch += 1
        proposals = []
        proposal_fits = []
        for i in range(len(means)):
            if used >= params.budget:
                break
            t = min(hi, max(lo, means[i] + sigmas[i] * rng.standard_normal()))
            proposals.append(t)
            proposal_fits.append(evaluate(t))
        if not proposals:
            break

        pool = fits[: len(proposals)] + proposal_fits
        f_lo, f_hi = min(pool), max(pool)
        f_span = max(f_hi - f_lo, 1e-300)
        dists = []
        for i, t in enumerate(proposals):
            d = min(
                bhattacharyya(t, sigmas[i], means[j], sigmas[j])
                for j in range(len(means))
                if j != i
            )
            dists.append(d)
        d_hi = max(max(dists), 1e-300)

        progress = used / params.budget
        for i, t in enumerate(proposals):
            f_norm = (proposal_fits[i] - f_lo) / f_span
            d_norm = dists[i] / d_hi
            lam = 1.0 + max(0.1 * (1.0 - progress), 0.01) * rng.standard_normal()
            if f_norm / max(d_norm, 1e-12) < lam:
                means[i] = t
                fits[i] = proposal_fits[i]
                successes += 1

        if epoch % NCS_EPOCH_ADAPT == 0:
            rate = successes / (NCS_EPOCH_ADAPT * len(means))
            if rate > 0.2:
                factor = 1.0 / 0.85
            elif rate < 0.2:
                factor = 0.85
            else:
                factor = 1.0
            sigmas = [
                min(span, max(1e-12 * span, s * factor)) for s in sigmas
            ]
            successes = 0

    return best_t, best_f


def reference_grid_sweep(costs_at, lo, hi, step):
    """Minimum over grid_oracle's whole grid, priced in one ``costs_at`` call.

    ``costs_at`` maps an array of departure times to their costs; for a
    route, ``partial(RouteEvaluator.profile, route)`` prices every point
    in one vectorized pass, independent of the scalar ``total`` calls
    that grid_oracle makes.

    The grid is lo + step * i for i = 0..count, where count rounds (hi -
    lo) / step down with a 1e-9 slack; its last point is clamped to hi,
    or hi follows it.  The first minimum wins, so ties go to the smaller t.
    """
    count = int(math.floor((hi - lo) / step + 1e-9))
    ts = lo + step * np.arange(count + 1)
    if ts[-1] > hi:
        ts[-1] = hi
    elif ts[-1] < hi:
        ts = np.append(ts, hi)
    costs = costs_at(ts)
    i = int(np.argmin(costs))
    return float(ts[i]), float(costs[i])


def reference_total(ev, route, t):
    """Cost of ``route`` departing at ``t``, every task row and leg looked up
    as it is reached: the scalar pass ``RouteEvaluator.total`` once was."""
    sp_time, sp_cost, rows = ev.sp_time, ev.sp_cost, ev.rows
    cur = t
    v = ev.depot
    total = 0.0
    for tid in route:
        tail, head, c_min, bt, et, k, _ = rows[tid]
        cur += sp_time[v][tail]
        total += sp_cost[v][tail]
        if cur < bt:
            sc = c_min + k * (bt - cur)
        elif cur > et:
            sc = c_min + k * (cur - et)
        else:
            sc = c_min
        total += sc
        cur += sc
        v = head
    return total + sp_cost[v][ev.depot]


def whole_route_penalized(ev, route, lam):
    """Penalized cost of ``route`` departing at 0, by one walk of the whole route."""
    total, violation = ev.walk(ev.origin, route)
    return total + lam * violation


def reference_cheapest_insertion(routes, tid, ev, instance, lam):
    """Cheapest insertion by walking every whole candidate route."""
    best = None
    for ri, route in enumerate(routes):
        base = whole_route_penalized(ev, route, lam)
        for pos in range(len(route) + 1):
            for oid in instance.orientations(tid):
                delta = whole_route_penalized(ev, route[:pos] + [oid] + route[pos:], lam) - base
                if best is None or delta < best[0]:
                    best = (delta, ri, pos, oid)
    for oid in instance.orientations(tid):
        delta = whole_route_penalized(ev, [oid], lam)
        if best is None or delta < best[0]:
            best = (delta, None, 0, oid)
    _, ri, pos, oid = best
    if ri is None:
        routes.append([oid])
    else:
        routes[ri].insert(pos, oid)


def reference_static_insertion(ev, candidates, tid, lam):
    """``RouteEvaluator.cheapest_insertion`` on a static instance, screening
    every cut of every candidate in index order: its static loop before it
    skipped any route.  Walks go through ``ev.splice_walk``, so a caller can
    count them."""
    assert ev.static
    orients = []
    for oid in ev.instance.orientations(tid):
        tail, head, c_min, _, _, _, demand = ev.rows[oid]
        orients.append(((oid,), tail, c_min, demand, ev.sp_time[head], ev.sp_cost[head]))
    bases = [table.penalized(lam) for table in candidates]
    bound, near = math.inf, []
    for ri, (table, base) in enumerate(zip(candidates, bases)):
        for pos, ((start, services, deadhead, v, load), (w, over_w, _, pieces)) in \
                enumerate(zip(table.prefixes, table.suffixes)):
            _, rest, _, _, _, err, _ = pieces[0]
            for single, tail, c_min, demand, time_h, cost_h in orients:
                cost = services + deadhead + ev.sp_cost[v][tail]
                cur = start + ev.sp_time[v][tail]
                cost += c_min
                u = cur + c_min + time_h[w]
                tau = math.inf
                if u < math.inf:
                    cost += cost_h[w] + rest
                    tau = SCREEN_TOL * (err + u + cost)
                    over = over_w + (load + demand)
                    if over > -ev.load_tol:
                        excess = over if over > 0.0 else 0.0
                        cost += lam * excess
                        tau += lam * (SCREEN_TOL * excess + ev.load_tol)
                if not tau < math.inf:
                    cost, tau = ev.splice_walk(table, pos, single, pos, lam), 0.0
                delta = cost - base
                if tau:
                    tau += SCREEN_TOL * base
                if delta + tau < bound:
                    bound = delta + tau
                if not delta - tau > bound:
                    near.append((delta - tau, None if tau else delta, ri, pos, single))
    near = [c for c in near if not c[0] > bound]
    if len(near) == 1:
        return near[0][2:]
    walked = [(ev.splice_walk(candidates[ri], pos, single, pos, lam) - bases[ri]
               if delta is None else delta, ri, pos, single)
              for _, delta, ri, pos, single in near]
    _, ri, pos, single = min(walked, key=lambda c: c[0])
    return ri, pos, single


def reference_scan_insertion(routes, ev, instance, lam, rng, length, eps):
    """The segment-move scan, scoring every candidate by whole-route walks."""
    positions = [(ri, pi) for ri, r in enumerate(routes) for pi in range(len(r) - length + 1)]
    for src in rng.permutation(len(positions)):
        ri, pi = positions[src]
        route = routes[ri]
        forward = route[pi:pi + length]
        backward = [instance.tasks[tid].inverse_id for tid in reversed(forward)]
        segments = [forward] if None in backward else [forward, backward]
        removed = route[:pi] + route[pi + length:]
        base_src = whole_route_penalized(ev, route, lam)
        removed_cost = whole_route_penalized(ev, removed, lam) if removed else 0.0
        targets = [(rj, qj) for rj, r in enumerate(routes)
                   for qj in range(len(r) + 1) if rj != ri]
        targets += [(ri, qj) for qj in range(len(removed) + 1)]
        targets.append((-1, 0))
        for tgt in rng.permutation(len(targets)):
            rj, qj = targets[tgt]
            for seg in segments:
                if rj == ri:
                    cand = removed[:qj] + seg + removed[qj:]
                    delta = whole_route_penalized(ev, cand, lam) - base_src
                elif rj == -1:
                    delta = removed_cost - base_src + whole_route_penalized(ev, seg, lam)
                else:
                    base_tgt = whole_route_penalized(ev, routes[rj], lam)
                    cand = routes[rj][:qj] + seg + routes[rj][qj:]
                    delta = (removed_cost - base_src
                             + whole_route_penalized(ev, cand, lam) - base_tgt)
                if delta < -eps:
                    if rj == ri:
                        routes[ri] = removed[:qj] + seg + removed[qj:]
                    elif rj == -1:
                        routes[ri] = removed
                        routes.append(list(seg))
                    else:
                        routes[rj][qj:qj] = seg
                        routes[ri] = removed
                    routes[:] = [r for r in routes if r]
                    return True
    return False


def reference_scan_swap(routes, ev, instance, lam, rng, eps):
    """The swap scan, scoring every candidate by whole-route walks."""
    positions = [(ri, pi) for ri, r in enumerate(routes) for pi in range(len(r))]
    if len(positions) < 2:
        return False
    pairs = [(i, j) for i in range(len(positions)) for j in range(i + 1, len(positions))]
    for pick in rng.permutation(len(pairs)):
        i, j = pairs[pick]
        ri, pi = positions[i]
        rj, pj = positions[j]
        a, b = routes[ri][pi], routes[rj][pj]
        same = ri == rj
        base = whole_route_penalized(ev, routes[ri], lam) + (
            0.0 if same else whole_route_penalized(ev, routes[rj], lam))
        for bo in instance.orientations(b):
            for ao in instance.orientations(a):
                cand_i = list(routes[ri])
                cand_j = cand_i if same else list(routes[rj])
                cand_i[pi] = bo
                cand_j[pj] = ao
                new = whole_route_penalized(ev, cand_i, lam) + (
                    0.0 if same else whole_route_penalized(ev, cand_j, lam))
                if new - base < -eps:
                    routes[ri] = cand_i
                    routes[rj] = cand_j
                    return True
    return False


def reference_local_search(individual, rng, ev, lam):
    """``maens.local_search`` with the memoryless whole-route scans: the same
    sweeps, merge-split and acceptance, but no move is remembered as failed."""
    instance = ev.instance
    routes = [list(route) for route in split_routes(individual.plan)]
    moves = [
        lambda: reference_scan_insertion(routes, ev, instance, lam, rng, 1, IMPROVE_EPS),
        lambda: reference_scan_insertion(routes, ev, instance, lam, rng, 2, IMPROVE_EPS),
        lambda: reference_scan_swap(routes, ev, instance, lam, rng, IMPROVE_EPS),
    ]

    def converge_basic(budget):
        used = 0
        while used < budget:
            used += 1
            moved = False
            for si in rng.permutation(len(moves)):
                while moves[si]():
                    moved = True
            if not moved:
                break
        return used

    used = converge_basic(LS_MAX_SWEEPS)
    tables = [ev.table(route) for route in routes]
    if _merge_split(tables, ev, lam, rng):
        routes[:] = [list(table.route) for table in tables]
        converge_basic(max(1, LS_MAX_SWEEPS - used))
    result = assess(ev, join_routes(routes))
    return result if result.penalized(lam) <= individual.penalized(lam) else individual


def reference_split_sequence(seq, ev, instance, lam):
    """Minimum-cost split, walking every segment ``seq[j:i]`` as a whole route."""
    n = len(seq)
    dp = [math.inf] * (n + 1)
    cut = [0] * (n + 1)
    dp[0] = 0.0
    for i in range(1, n + 1):
        load = 0.0
        for j in range(i - 1, -1, -1):
            load += instance.tasks[seq[j]].demand
            if load > instance.capacity:
                break
            cost = dp[j] + whole_route_penalized(ev, seq[j:i], lam)
            if cost < dp[i]:
                dp[i] = cost
                cut[i] = j
    if not math.isfinite(dp[n]):
        return None
    routes = []
    i = n
    while i > 0:
        routes.append(list(seq[cut[i]:i]))
        i = cut[i]
    return routes[::-1]


def reference_check_feasibility(solution, instance, sp):
    """Every constraint of ``solution``, each on its own pass: a check walk of
    every route, a first-orientation record per task pair, a demand sum in
    route order, and the arrival times of ``RouteEvaluator.evaluate`` at
    max(t, 0), each departure, service start and return held to [0, H]."""
    evaluator = RouteEvaluator(instance, sp)
    routes = split_routes(solution.plan)
    if len(routes) != len(solution.departures):
        raise ValueError(f"{len(solution.departures)} departure times for {len(routes)} routes")
    for route in routes:
        evaluator.walk(evaluator.origin, route)
    seen_pairs = {}  # pair root: the orientation served first
    duplicate = inverse_clash = False
    for route in routes:
        for tid in route:
            root = instance.pair_root(tid)
            if root in seen_pairs:
                duplicate = True
                inverse_clash = inverse_clash or seen_pairs[root] != tid
            else:
                seen_pairs[root] = tid
    returns = []
    capacity_ok = horizon_tasks_ok = True
    for route, t in zip(routes, solution.departures):
        load = 0.0
        for tid in route:
            load += instance.tasks[tid].demand
        if load > instance.capacity:
            capacity_ok = False
        arrivals = evaluator.evaluate(route, max(t, 0.0)).arrival_times
        if t < 0 or any(a > instance.horizon for a in arrivals[:-1]):
            horizon_tasks_ok = False
        returns.append(arrivals[-1])
    return FeasibilityReport(
        no_duplicate_service=not duplicate,
        no_inverse_service=not inverse_clash,
        all_tasks_served=len(seen_pairs) == instance.num_required,
        capacity_respected=capacity_ok,
        horizon_tasks=horizon_tasks_ok,
        horizon_return=not any(r > instance.horizon for r in returns),
        returns=tuple(returns),
    )
