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
from carptdsc.maens import SCORE_FLOOR
from carptdsc.solution import RouteEvaluator, split_routes


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
