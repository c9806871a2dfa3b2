"""Memetic routing search with time-dependent evaluation (stage 1).

The search evolves routing plans only; every candidate is evaluated with
all routes departing at time 0, the reference point of stage 1 (departure
times are optimized afterwards, per route, by the departure module).

Components: one path-scanning builder whose nearest-task ties are broken
by roulette-wheel selection over reciprocal time-dependent service costs
(it builds the initial plans under the vehicle capacity, and merge-split's
task ordering without one), a sequence-based crossover, three
first-improvement move neighborhoods (moving a segment of one or two
tasks, which may be reversed with every task inverted, and swap), and a
merge-split large neighborhood that dissolves routes and rebuilds them via
the builder plus a minimum-cost splitting pass.  Capacity and horizon
violations are penalized with an adaptive coefficient; the final answer is
the best feasible plan found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional, Sequence

import numpy as np

from .instance import Instance, ShortestPaths
from .solution import RouteEvaluator, RoutingPlan, join_routes, split_routes

SCORE_FLOOR = 1e-9  # guards the reciprocal score on degenerate zero costs
IMPROVE_EPS = 1e-9
SCREEN_TOL = 1e-9  # relative rounding bound of an insertion screen (tau per unit of scale)
MERGE_SPLIT_ROUTES = 2  # routes dissolved and rebuilt by one merge-split
LS_MAX_SWEEPS = 30  # rounds of the basic move neighborhoods per local search
PENALTY_PERIOD = 5  # generations between penalty doubling/halving


class SolverError(RuntimeError):
    """No feasible plan found within the search budget."""


@dataclass(frozen=True)
class Individual:
    plan: RoutingPlan
    total_cost: float
    violation: float  # capacity excess plus horizon excess, summed over routes

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0

    def penalized(self, lam: float) -> float:
        """The cost with the violation weighed by the penalty coefficient ``lam``."""
        return self.total_cost + lam * self.violation


@dataclass(frozen=True)
class MaensParams:
    psize: int = 10
    generations: int = 50
    pls: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.psize < 2:
            raise ValueError(f"population size must be >= 2, got {self.psize}")
        if not 0.0 <= self.pls <= 1.0:
            raise ValueError(f"local-search probability must be in [0, 1], got {self.pls}")
        if self.generations < 1:
            raise ValueError("need at least one generation")


@dataclass
class EvolveResult:
    plan: RoutingPlan
    total_cost: float
    # rows (generation, best penalized in population, best feasible cost so far)
    trace: list[tuple[int, float, float]] = field(default_factory=list)


def mix_seed(seed: int, indices: Iterable[int]) -> int:
    """Deterministic 48-bit seed for the stream keyed by ``indices`` under ``seed``."""
    mixed = seed & 0xFFFFFFFF
    for idx in indices:
        mixed = (mixed * 1_000_003 + idx + 1) & 0xFFFFFFFFFFFF
    return mixed


def _stream(seed: int, *indices: int) -> np.random.Generator:
    """Independent deterministic RNG stream for a (generation, offspring) slot."""
    return np.random.Generator(np.random.PCG64(mix_seed(seed, indices)))


class _Assessor:
    """Cached route statistics, summed into individuals."""

    def __init__(self, evaluator: RouteEvaluator):
        self.evaluator = evaluator
        self._cache: dict[tuple[int, ...], tuple[float, float]] = {}

    def route_stats(self, route: Sequence[int]) -> tuple[float, float]:
        """(total cost, violation) of one route departing at time 0."""
        key = tuple(route)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self.evaluator.walk(self.evaluator.origin, key)
        return hit

    def contrib(self, route: Sequence[int], lam: float) -> float:
        total, violation = self.route_stats(route)
        return total + lam * violation

    def assess(self, plan: RoutingPlan) -> Individual:
        total = 0.0
        violation = 0.0
        for route in split_routes(plan):
            rt, rv = self.route_stats(route)
            total += rt
            violation += rv
        return Individual(plan=plan, total_cost=total, violation=violation)


def select_next_task(
    instance: Instance,
    candidates: Sequence[int],
    current_time: float,
    rng: np.random.Generator,
) -> int:
    """Roulette-wheel pick among equally-near tasks.

    Each candidate's score is the reciprocal of its time-dependent service
    cost at ``current_time`` (its shared arrival time), so cheaper-to-serve
    tasks are proportionally more likely.
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    scores = [
        1.0 / max(instance.tasks[tid].cost_fn.value(current_time), SCORE_FLOOR)
        for tid in candidates
    ]
    pick = rng.random() * sum(scores)
    acc = 0.0
    for tid, score in zip(candidates, scores):
        acc += score
        if pick < acc:
            return tid
    return candidates[-1]


def _path_scan(
    instance: Instance,
    ev: RouteEvaluator,
    roots: Iterable[int],
    capacity: float,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Path-scanning routes over the tasks of ``roots`` (pair roots).

    Routes are built one at a time from the depot at departure time 0,
    repeatedly adding the unserved task that fits the remaining
    ``capacity`` and is nearest (by shortest-path travel time) to the
    current route end.  A task and its inverse are both candidates; ties
    are broken by :func:`select_next_task`.  A route closes when no
    unserved task fits or none can be reached.
    """
    sp_time, rows = ev.sp_time, ev.rows
    depot = instance.depot

    unserved: set[int] = set(roots)
    candidates_of = {root: instance.orientations(root) for root in unserved}

    routes: list[list[int]] = []
    while unserved:
        route: list[int] = []
        load = 0.0
        cur_v = depot
        cur_t = 0.0
        while True:
            feasible = [
                tid
                for root in unserved
                for tid in candidates_of[root]
                if rows[tid][6] + load <= capacity
            ]
            if not feasible:
                break
            dmin = min(sp_time[cur_v][rows[t][0]] for t in feasible)
            if dmin == float("inf"):
                break  # remaining tasks unreachable from here
            nearest = sorted(
                t for t in feasible if sp_time[cur_v][rows[t][0]] <= dmin + 1e-9
            )
            chosen = select_next_task(instance, nearest, cur_t + dmin, rng)
            tail, head, _, _, _, _, demand = rows[chosen]
            cur_t += sp_time[cur_v][tail]
            cur_t += instance.tasks[chosen].cost_fn.value(cur_t)
            cur_v = head
            load += demand
            route.append(chosen)
            unserved.discard(instance.pair_root(chosen))
        if not route:
            raise SolverError("constructor could not place any remaining task")
        routes.append(route)
    return routes


def init_individual(
    instance: Instance, sp: ShortestPaths, rng: np.random.Generator
) -> RoutingPlan:
    """Path-scanning construction of one routing plan (see :func:`_path_scan`)."""
    ev = RouteEvaluator(instance, sp)
    return join_routes(_path_scan(instance, ev, instance.roots, instance.capacity, rng))


def _cheapest_insertion(
    routes: list[list[int]],
    tid: int,
    assessor: _Assessor,
    instance: Instance,
    lam: float,
) -> None:
    """Insert ``tid`` (or its inverse) where it increases cost least.

    Each route is walked once to record its prefix states, and
    :meth:`RouteEvaluator.suffix_pieces` gives the linear piece of each
    suffix.  A candidate steps the prefix state ahead of its position
    through the inserted task; if that shifts the next task's start by
    an amount inside the suffix's interval, the candidate is screened in
    O(1) from the piece, within a rounding bound tau, and otherwise
    walked.  Every screened candidate that could tie the least delta is
    then walked too, and the first strict minimum of the walked deltas,
    in the order (route, position, orientation), wins: the same choice,
    bit for bit, as walking every candidate from its prefix state.
    """
    ev = assessor.evaluator
    orientations = instance.orientations(tid)
    walk, sp_time, sp_cost = ev.walk, ev.sp_time, ev.sp_cost
    horizon, capacity = instance.horizon, instance.capacity
    rows = []
    for oid in orientations:
        tail, head, c_min, bt, et, k, demand = ev.rows[oid]
        rows.append((oid, tail, sp_time[head], sp_cost[head], c_min, bt, et, k,
                     demand - capacity))
    inf = math.inf
    # bound: the least screen + tau so far, so no delta is below it; a
    # candidate whose screen - tau exceeds it cannot be the minimum
    bound = inf
    near = []  # (screen - tau, delta or None if screened, ri, pos, oid, state, base)
    for ri, route in enumerate(routes):
        prefixes = [ev.origin]
        total, violation = walk(prefixes[0], route, prefixes)
        base = total + lam * violation
        load = prefixes[-1][4]
        scale = (base if base > 0.0 else -base) + lam * load
        pieces = ev.suffix_pieces(route, prefixes)
        ret_0 = pieces[-1][1]
        for pos, (state, piece) in enumerate(zip(prefixes, pieces)):
            cur, services, deadhead, v, _ = state
            w, u, lo, hi, slope, ret_slope, rest, err_c, err_d = piece
            time_v, cost_v = sp_time[v], sp_cost[v]
            tol_0 = SCREEN_TOL * (rest + err_c + lam * err_d + scale)
            tol_d = SCREEN_TOL * ((slope if slope > 0.0 else -slope)
                                  + lam * (ret_slope if ret_slope > 0.0 else -ret_slope))
            for oid, tail, time_h, cost_h, c_min, bt, et, k, excess in rows:
                t = cur + time_v[tail]
                if t < bt:
                    sc = c_min + k * (bt - t)
                elif t > et:
                    sc = c_min + k * (t - et)
                else:
                    sc = c_min
                t += sc
                d = t + time_h[w] - u
                if lo <= d <= hi and d < inf:
                    head_sum = services + sc + deadhead + cost_v[tail] + cost_h[w]
                    late = ret_0 + ret_slope * d - horizon
                    over = load + excess
                    delta = head_sum + rest + slope * d + lam * (
                        (late if late > 0.0 else 0.0) + (over if over > 0.0 else 0.0)) - base
                    tol = tol_0 + SCREEN_TOL * head_sum + tol_d * (d if d > 0.0 else -d)
                    exact = None
                else:
                    total, violation = walk(state, [oid] + route[pos:])
                    delta = exact = total + lam * violation - base
                    tol = 0.0
                if delta + tol < bound:
                    bound = delta + tol
                if not delta - tol > bound:  # a screen that is NaN is walked
                    near.append((delta - tol, exact, ri, pos, oid, state, base))
    for oid in orientations:  # opening a fresh route is always an option
        delta = assessor.contrib([oid], lam)
        if delta < bound:
            bound = delta
        near.append((delta, delta, None, 0, oid, None, 0.0))
    best = None  # (delta, route index or None, position, oriented id)
    for low, delta, ri, pos, oid, state, base in near:
        if low > bound:
            continue
        if delta is None:
            total, violation = walk(state, [oid] + routes[ri][pos:])
            delta = total + lam * violation - base
        if best is None or delta < best[0]:
            best = (delta, ri, pos, oid)
    _, ri, pos, oid = best
    if ri is None:
        routes.append([oid])
    else:
        routes[ri].insert(pos, oid)


def crossover(
    parent1: RoutingPlan,
    parent2: RoutingPlan,
    instance: Instance,
    rng: np.random.Generator,
    assessor: _Assessor,
    lam: float,
) -> RoutingPlan:
    """Sequence-based crossover.

    Each parent's route list is cut at a random route plus intra-route
    point; the head of parent 1 is joined to the tail of parent 2.  Tasks
    served twice (directly or via their inverse) are dropped after their
    first occurrence, and tasks lost in the exchange are reinserted at
    their cheapest positions.  The child may violate capacity; that is
    left to the penalty mechanism.  ``lam`` weighs the violation in the
    insertion costs.
    """
    routes1 = split_routes(parent1)
    routes2 = split_routes(parent2)
    r1 = int(rng.integers(len(routes1)))
    c1 = int(rng.integers(len(routes1[r1]) + 1))
    r2 = int(rng.integers(len(routes2)))
    c2 = int(rng.integers(len(routes2[r2]) + 1))

    routes = routes1[:r1] + [routes1[r1][:c1] + routes2[r2][c2:]] + routes2[r2 + 1:]

    seen: set[int] = set()
    deduped: list[list[int]] = []
    for route in routes:
        kept = []
        for tid in route:
            root = instance.pair_root(tid)
            if root not in seen:
                seen.add(root)
                kept.append(tid)
        if kept:
            deduped.append(kept)
    routes = deduped

    missing = [root for root in instance.roots if root not in seen]
    if missing:
        order = list(rng.permutation(len(missing)))
        for idx in order:
            _cheapest_insertion(routes, missing[idx], assessor, instance, lam)
    if not routes:
        raise ValueError("crossover produced an empty plan")
    return join_routes(routes)


def _scan_insertion(routes, assessor, instance, lam, rng, length) -> bool:
    """Move ``length`` consecutive tasks to another position; first improvement.

    The segment moves as it is or, when every task in it has an inverse,
    reversed with each task inverted.
    """
    positions = [
        (ri, pi) for ri, r in enumerate(routes) for pi in range(len(r) - length + 1)
    ]
    for src in rng.permutation(len(positions)):
        ri, pi = positions[src]
        route = routes[ri]
        forward = route[pi:pi + length]
        backward = [instance.tasks[tid].inverse_id for tid in reversed(forward)]
        segments = [forward] if None in backward else [forward, backward]
        removed = route[:pi] + route[pi + length:]
        base_src = assessor.contrib(route, lam)
        removed_contrib = assessor.contrib(removed, lam) if removed else 0.0
        targets = [(rj, qj) for rj, r in enumerate(routes)
                   for qj in range(len(r) + 1) if rj != ri]
        targets += [(ri, qj) for qj in range(len(removed) + 1)]
        targets.append((-1, 0))  # fresh route
        for tgt in rng.permutation(len(targets)):
            rj, qj = targets[tgt]
            for seg in segments:
                if rj == ri:
                    cand = removed[:qj] + seg + removed[qj:]
                    delta = assessor.contrib(cand, lam) - base_src
                elif rj == -1:
                    delta = removed_contrib - base_src + assessor.contrib(seg, lam)
                else:
                    base_tgt = assessor.contrib(routes[rj], lam)
                    cand_tgt = routes[rj][:qj] + seg + routes[rj][qj:]
                    delta = (
                        removed_contrib - base_src
                        + assessor.contrib(cand_tgt, lam) - base_tgt
                    )
                if delta < -IMPROVE_EPS:
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


def _scan_swap(routes, assessor, instance, lam, rng) -> bool:
    """Exchange two tasks (any routes, any orientations); first improvement."""
    positions = [(ri, pi) for ri, r in enumerate(routes) for pi in range(len(r))]
    if len(positions) < 2:
        return False
    pair_idx = [
        (i, j) for i in range(len(positions)) for j in range(i + 1, len(positions))
    ]
    for pick in rng.permutation(len(pair_idx)):
        (i, j) = pair_idx[pick]
        ri, pi = positions[i]
        rj, pj = positions[j]
        a, b = routes[ri][pi], routes[rj][pj]
        same = ri == rj
        base = assessor.contrib(routes[ri], lam) + (
            0.0 if same else assessor.contrib(routes[rj], lam))
        for bo in instance.orientations(b):
            for ao in instance.orientations(a):
                cand_i = list(routes[ri])
                cand_j = cand_i if same else list(routes[rj])
                cand_i[pi] = bo
                cand_j[pj] = ao
                new = assessor.contrib(cand_i, lam) + (
                    0.0 if same else assessor.contrib(cand_j, lam))
                if new - base < -IMPROVE_EPS:
                    routes[ri] = cand_i
                    routes[rj] = cand_j
                    return True
    return False


def _split_sequence(
    seq: list[int], assessor: _Assessor, instance: Instance, lam: float
) -> list[list[int]]:
    """Minimum-cost split of a task sequence into capacity-feasible routes."""
    ev = assessor.evaluator
    n = len(seq)
    dp = [math.inf] * (n + 1)
    cut = [0] * (n + 1)
    dp[0] = 0.0
    for i in range(1, n + 1):
        load = 0.0
        j = i - 1
        while j >= 0:
            load += ev.rows[seq[j]][6]
            if load > instance.capacity:
                break
            cost = dp[j] + assessor.contrib(seq[j:i], lam)
            if cost < dp[i]:
                dp[i] = cost
                cut[i] = j
            j -= 1
    if not math.isfinite(dp[n]):
        raise SolverError("split found no capacity-feasible segmentation")
    routes: list[list[int]] = []
    i = n
    while i > 0:
        j = cut[i]
        routes.append(list(seq[j:i]))
        i = j
    routes.reverse()
    return routes


def _merge_split(routes, assessor, instance, lam, rng) -> bool:
    """Dissolve ``MERGE_SPLIT_ROUTES`` routes and rebuild them; keep if improving."""
    if len(routes) < 2:
        return False
    count = min(MERGE_SPLIT_ROUTES, len(routes))
    picked = sorted(int(i) for i in rng.choice(len(routes), size=count, replace=False))
    roots = [
        instance.pair_root(tid) for ri in picked for tid in routes[ri]
    ]
    old_contrib = sum(assessor.contrib(routes[ri], lam) for ri in picked)
    seq = [
        tid
        for route in _path_scan(instance, assessor.evaluator, roots, math.inf, rng)
        for tid in route
    ]
    rebuilt = _split_sequence(seq, assessor, instance, lam)
    new_contrib = sum(assessor.contrib(r, lam) for r in rebuilt)
    if new_contrib - old_contrib < -IMPROVE_EPS:
        for ri in reversed(picked):
            routes.pop(ri)
        routes.extend(rebuilt)
        return True
    return False


# the basic move neighborhoods: single insertion, double insertion, swap
_MOVES = (partial(_scan_insertion, length=1), partial(_scan_insertion, length=2), _scan_swap)


def local_search(
    individual: Individual,
    instance: Instance,
    rng: np.random.Generator,
    assessor: _Assessor,
    lam: float,
) -> Individual:
    """Accept-only-improving refinement of one individual.

    Runs first-improvement sweeps of the three move neighborhoods (in
    random order) to convergence, applies merge-split once, and, if that
    helped, converges the basic moves again.  The result never has a
    worse penalized cost at ``lam`` than the input, and coverage is
    preserved.
    """
    routes = [list(r) for r in split_routes(individual.plan)]

    def converge_basic(budget: int) -> int:
        used = 0
        while used < budget:
            used += 1
            moved = False
            for si in rng.permutation(len(_MOVES)):
                while _MOVES[si](routes, assessor, instance, lam, rng):
                    moved = True
            if not moved:
                break
        return used

    used = converge_basic(LS_MAX_SWEEPS)
    if _merge_split(routes, assessor, instance, lam, rng):
        converge_basic(max(1, LS_MAX_SWEEPS - used))

    result = assessor.assess(join_routes(routes))
    if result.penalized(lam) <= individual.penalized(lam):
        return result
    return individual  # accept-only moves make this unreachable; safety net


def evolve(
    instance: Instance,
    sp: ShortestPaths,
    params: MaensParams,
) -> EvolveResult:
    """Run the memetic search and return the best feasible plan found.

    Each generation makes ``psize`` offspring.  Deterministic for a fixed
    seed; every offspring slot owns an RNG stream derived from (seed,
    generation, slot), so results do not depend on evaluation order.
    Individuals are ranked by penalized cost at the current penalty
    coefficient, then by plan.
    """
    assessor = _Assessor(RouteEvaluator(instance, sp))

    def rank(ind: Individual) -> tuple[float, RoutingPlan]:
        return ind.penalized(lam), ind.plan

    population: list[Individual] = []
    seen: set[RoutingPlan] = set()
    attempts = 0
    while len(population) < params.psize and attempts < 50 * params.psize:
        routes = _path_scan(instance, assessor.evaluator, instance.roots, instance.capacity,
                            _stream(params.seed, 0, attempts))
        plan = join_routes(routes)
        attempts += 1
        if plan in seen:
            continue
        seen.add(plan)
        population.append(assessor.assess(plan))
    if not population:
        raise SolverError("could not construct any initial plan")
    while len(population) < params.psize:  # tiny instances: allow duplicates
        population.append(population[len(population) % len(seen)])

    # the penalty coefficient starts at the best cost per unit of capacity
    lam = max(1.0, min(ind.total_cost for ind in population) / max(1.0, instance.capacity))
    lam_floor, lam_ceil = lam / 1024.0, lam * 2.0 ** 20
    population.sort(key=rank)

    best_feasible: Optional[Individual] = None
    for ind in population:
        if ind.feasible and (best_feasible is None or ind.total_cost < best_feasible.total_cost):
            best_feasible = ind

    trace: list[tuple[int, float, float]] = []
    for gen in range(1, params.generations + 1):
        offspring: list[Individual] = []
        for slot in range(params.psize):
            rng = _stream(params.seed, gen, slot)
            if len(population) >= 2:
                i, j = rng.choice(len(population), size=2, replace=False)
                p1, p2 = population[int(i)].plan, population[int(j)].plan
            else:
                p1 = p2 = population[0].plan
            child_plan = crossover(p1, p2, instance, rng, assessor, lam)
            child = assessor.assess(child_plan)
            if rng.random() < params.pls:
                child = local_search(child, instance, rng, assessor, lam)
            offspring.append(child)

        pool = population + offspring
        pool.sort(key=rank)
        next_pop: list[Individual] = []
        seen_plans: set[RoutingPlan] = set()
        for ind in pool:
            if ind.plan in seen_plans:
                continue
            seen_plans.add(ind.plan)
            next_pop.append(ind)
            if len(next_pop) == params.psize:
                break
        for ind in pool:  # fewer distinct plans than psize: pad with best
            if len(next_pop) == params.psize:
                break
            next_pop.append(ind)
        population = next_pop

        for ind in offspring:
            if ind.feasible and (
                best_feasible is None or ind.total_cost < best_feasible.total_cost
            ):
                best_feasible = ind

        trace.append((
            gen,
            population[0].penalized(lam),
            best_feasible.total_cost if best_feasible is not None else math.nan,
        ))

        if gen % PENALTY_PERIOD == 0:
            lam = min(lam * 2.0, lam_ceil) if not population[0].feasible else max(
                lam / 2.0, lam_floor
            )
            population.sort(key=rank)

    if best_feasible is None:
        raise SolverError(
            "no feasible plan found within the generation budget "
            "(capacity or horizon may be unsatisfiable)"
        )
    return EvolveResult(
        plan=best_feasible.plan,
        total_cost=best_feasible.total_cost,
        trace=trace,
    )
