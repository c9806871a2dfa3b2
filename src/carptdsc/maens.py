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

Crossover's insertions (``RouteEvaluator.cheapest_insertion``) and the
moves screen candidates with ``RouteEvaluator.splice`` and walk each one a
screen cannot settle, so every decision is the one walking every
candidate gives; no route score is cached.  An insertion walks no lone
candidate that could be least, and a child with inserted tasks is priced
from its route tables, with the floats :func:`assess` gives.  On an exact
instance (``RouteEvaluator.exact``) crossover keeps no table: each
insertion is priced exactly from a route's total and load, with no walk.
One local search keeps a record of the moves it found cannot improve,
keyed by the contents of the routes they change, and skips them until one
of those routes changes: a skipped move could not have been accepted, and
every random draw is made as without the record, so the search takes the
same moves.
The operators take that evaluator and read the instance from
``ev.instance``; :func:`init_individual` and :func:`select_next_task` take
the instance itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .instance import Instance, ShortestPaths
from .solution import (SCREEN_TOL, RouteEvaluator, RouteTable, RoutingPlan, join_routes,
                       ordered_sum, split_routes)

SCORE_FLOOR = 1e-9  # guards the reciprocal score on degenerate zero costs
IMPROVE_EPS = 1e-9
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


def assess(ev: RouteEvaluator, plan: RoutingPlan) -> Individual:
    total = violation = 0.0
    for route in split_routes(plan):
        rt, rv = ev.walk(ev.origin, route)
        total, violation = total + rt, violation + rv
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
    pick = rng.random() * ordered_sum(scores)
    acc = 0.0
    for tid, score in zip(candidates, scores):
        acc += score
        if pick < acc:
            return tid
    return candidates[-1]


def _path_scan(
    ev: RouteEvaluator, roots: Iterable[int], capacity: float, rng: np.random.Generator
) -> list[list[int]]:
    """Path-scanning routes over the tasks of ``roots`` (pair roots).

    Routes are built one at a time from the depot at departure time 0,
    repeatedly adding the unserved task that fits the remaining
    ``capacity`` and is nearest (by shortest-path travel time) to the
    current route end.  A task and its inverse are both candidates; ties
    are broken by :func:`select_next_task`.  A route closes when no
    unserved task fits or none can be reached.
    """
    instance, sp_time, rows = ev.instance, ev.sp_time, ev.rows
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
            time_v = sp_time[cur_v]
            # (travel time from the route end, task) of each task that fits
            legs = [
                (time_v[rows[tid][0]], tid)
                for root in unserved
                for tid in candidates_of[root]
                if rows[tid][6] + load <= capacity
            ]
            if not legs:
                break
            dmin = min(leg for leg, _ in legs)
            if dmin == float("inf"):
                break  # remaining tasks unreachable from here
            nearest = sorted(t for leg, t in legs if leg <= dmin + 1e-9)
            chosen = select_next_task(instance, nearest, cur_t + dmin, rng)
            tail, head, _, _, _, _, demand = rows[chosen]
            cur_t += sp_time[cur_v][tail]
            cur_t += instance.tasks[chosen].cost_fn.value(cur_t)
            cur_v = head
            load += demand
            route.append(chosen)
            unserved.discard(instance.pair_root(chosen))
        if not route:  # every task fits an empty vehicle, so none is reachable
            names = " ".join(str(root) for root in sorted(unserved))
            raise SolverError("constructor could not place any remaining task: "
                              f"the depot cannot reach the unserved tasks {names}")
        routes.append(route)
    return routes


def init_individual(
    instance: Instance, sp: ShortestPaths, rng: np.random.Generator
) -> RoutingPlan:
    """Path-scanning construction of one routing plan (see :func:`_path_scan`)."""
    ev = RouteEvaluator(instance, sp)
    return join_routes(_path_scan(ev, instance.roots, instance.capacity, rng))


def _cheapest_insertion(routes: list, tid: int, ev: RouteEvaluator, lam: float) -> None:
    """Insert ``tid`` (or its inverse) where it increases cost least.

    ``routes`` holds :meth:`RouteEvaluator.table` of each route, or on an
    exact instance (:attr:`RouteEvaluator.exact`) its
    :meth:`RouteEvaluator.totals`; the place is
    :meth:`RouteEvaluator.cheapest_insertion`'s among them and a fresh route
    (the empty route), last.  On an exact instance the route it lands in is
    priced by :meth:`RouteEvaluator.inserted`, with no table.
    """
    candidates = routes + [ev.empty]
    ri, pos, single = ev.cheapest_insertion(candidates, tid, lam)
    candidates[ri] = (ev.inserted(candidates[ri], pos, single[0]) if ev.exact
                      else ev.splice_table(candidates[ri], pos, single, pos))
    routes[:] = [t for t in candidates if t.route]


def crossover(
    parent1: RoutingPlan,
    parent2: RoutingPlan,
    rng: np.random.Generator,
    ev: RouteEvaluator,
    lam: float,
) -> Individual:
    """Sequence-based crossover.

    Each parent's route list is cut at a random route plus intra-route
    point; the head of parent 1 is joined to the tail of parent 2.  Tasks
    served twice (directly or via their inverse) are dropped after their
    first occurrence, and tasks lost in the exchange are reinserted at
    their cheapest positions.  The child may violate capacity; that is
    left to the penalty mechanism.  ``lam`` weighs the violation in the
    insertion costs.  The child is priced as :func:`assess` prices it, from
    its route tables when a task was inserted, or, on an exact instance,
    from each route's totals and load.
    """
    instance = ev.instance
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
    if not missing:
        return assess(ev, join_routes(routes))
    price = ev.totals if ev.exact else ev.table
    priced = [price(route) for route in routes]
    for idx in rng.permutation(len(missing)):
        _cheapest_insertion(priced, missing[idx], ev, lam)
    # a table's walk continued the stored prefix states, and totals are kept
    # exactly, so each total and violation is a walk of the route from the origin
    return Individual(plan=join_routes([p.route for p in priced]),
                      total_cost=ordered_sum(p.total for p in priced),
                      violation=ordered_sum(p.violation for p in priced))


class _Record:
    """The moves one local search found cannot improve, keyed by route contents.

    A screen or walk of a move is a pure function of the contents of the
    routes it changes, the move and λ, which stays fixed for one local
    search: a move that failed fails again until one of its routes
    changes.  ``ids`` numbers each distinct route once, so a key is a few
    ints.  An insertion key is (segment length, source route, position,
    target route, ``SAME`` or ``FRESH``), a swap key (``SWAP``, route,
    position, other route or ``SAME``, position): the first int keeps the
    neighborhoods' keys apart.
    """

    __slots__ = ("ids", "failed")
    SWAP = 0
    SAME, FRESH = -1, -2

    def __init__(self):
        self.ids: dict[tuple[int, ...], int] = {}
        self.failed: set[tuple[int, ...]] = set()

    def route_ids(self, tables: list[RouteTable]) -> list[int]:
        ids = self.ids
        return [ids.setdefault(tuple(t.route), len(ids)) for t in tables]


def _scan_insertion(tables, ev, lam, rng, record, length) -> bool:
    """Move ``length`` consecutive tasks to another position; first improvement.

    The segment moves as it is or, when every task in it has an inverse,
    reversed with each task inverted.  Each changed route (a fresh one is
    the empty route's) is screened by :meth:`RouteEvaluator.splice` from
    the routes' ``tables``, and a move that could improve is walked.
    Target routes that ``record`` holds for a segment are skipped; each
    source still draws its target permutation.
    """
    tasks = ev.instance.tasks
    splice, splice_walk, splice_table = ev.splice, ev.splice_walk, ev.splice_table
    failed = record.failed
    candidates = tables + [ev.empty]
    bases = [t.penalized(lam) for t in candidates]
    ids = record.route_ids(tables) + [record.FRESH]
    slots = [(rj, qj) for rj, t in enumerate(candidates) for qj in range(len(t.route) + 1)]
    # slots[starts[rj]:starts[rj + 1]] are route rj's
    starts = list(accumulate((len(t.route) + 1 for t in candidates), initial=0))
    n_targets = len(slots) - length  # the source's route has ``length`` tasks fewer
    positions = [(ri, pi) for ri, t in enumerate(tables) for pi in range(len(t.route) - length + 1)]
    for src in rng.permutation(len(positions)).tolist():
        ri, pi = positions[src]
        keys = [(length, ids[ri], pi, record.SAME if rj == ri else rid)
                for rj, rid in enumerate(ids)]
        open_ = [key not in failed for key in keys]
        order = rng.permutation(n_targets).tolist()
        if True not in open_:
            continue
        table = tables[ri]
        route = table.route
        end = pi + length
        forward = route[pi:end]
        backward = [tasks[tid].inverse_id for tid in reversed(forward)]
        segments = [forward] if None in backward else [forward, backward]
        rest = len(route) - length  # tasks left in the route
        gain = (splice_walk(table, pi, (), end, lam) if rest else 0.0) - bases[ri]
        # each open target route's (pre, post, slack): a move's delta is pre +
        # value - post for the value of its splice, screened within tau + slack
        terms = [(gain, post, SCREEN_TOL * (abs(gain) + post)) if is_open else None
                 for post, is_open in zip(bases, open_)]
        if open_[ri]:
            terms[ri] = (0.0, bases[ri], SCREEN_TOL * (0.0 + bases[ri]))
        # every other route's slots, the route's without the segment, a fresh route
        first, last = starts[ri], starts[ri + 1]
        targets = slots[:first] + slots[last:-1] + slots[first:first + rest + 1] + slots[-1:]
        for tgt in order:
            rj, qj = targets[tgt]
            term = terms[rj]
            if term is None:
                continue
            pre, post, slack = term
            for seg in segments:
                if rj != ri:
                    move = (candidates[rj], qj, seg, qj)
                else:  # the route without the segment, with seg put in at qj
                    move = ((table, qj, seg + route[qj:pi], end) if qj <= pi
                            else (table, pi, route[end:qj + length] + seg, qj + length))
                value, tau = splice(*move, lam)
                if tau:
                    if pre + value - post - tau - slack > -IMPROVE_EPS:
                        continue
                    value = splice_walk(*move, lam)
                if pre + value - post < -IMPROVE_EPS:
                    candidates[rj] = splice_table(*move)
                    if rj != ri:
                        candidates[ri] = splice_table(table, pi, (), end)
                    tables[:] = [t for t in candidates if t.route]
                    return True
        failed.update(keys)
    return False


def _scan_swap(tables, ev, lam, rng, record) -> bool:
    """Exchange two tasks (any routes, any orientations); first improvement.

    Screened and confirmed as in :func:`_scan_insertion`; two tasks of one
    route are spliced by walking from the first through the second.  Pairs
    that ``record`` holds are skipped.
    """
    splice, splice_walk = ev.splice, ev.splice_walk
    failed = record.failed
    ids = record.route_ids(tables)
    orientations = ev.instance.orientations
    # (route, position, the task's orientations) of every task
    positions = [(ri, pi, orientations(tid))
                 for ri, t in enumerate(tables) for pi, tid in enumerate(t.route)]
    bases = [t.penalized(lam) for t in tables]
    pair_idx = list(combinations(positions, 2))
    for pick in rng.permutation(len(pair_idx)).tolist():
        (ri, pi, a_orients), (rj, pj, b_orients) = pair_idx[pick]
        same = ri == rj
        key = (record.SWAP, ids[ri], pi, record.SAME if same else ids[rj], pj)
        if key in failed:
            continue
        table_i, table_j = tables[ri], tables[rj]
        base = bases[ri] + (0.0 if same else bases[rj])
        scored_j = []  # (splice, value, tau) of route j with each orientation of a
        for bo in b_orients:
            splice_i = (table_i, pi, (bo,), pi + 1)
            new_i, tau_i = (0.0, 0.0) if same else splice(*splice_i, lam)
            for n, ao in enumerate(a_orients):
                if same:  # positions are in route order, so pi < pj
                    splice_i = (table_i, pi, [bo, *table_i.route[pi + 1:pj], ao], pj + 1)
                    new_i, tau_i = splice(*splice_i, lam)
                if n == len(scored_j):
                    splice_j = (table_j, pj, (ao,), pj + 1)
                    new_j, tau_j = (0.0, 0.0) if same else splice(*splice_j, lam)
                    scored_j.append((splice_j, new_j, tau_j))
                splice_j, new_j, tau_j = scored_j[n]
                if tau_i or tau_j:
                    if new_i + new_j - base - (tau_i + tau_j + SCREEN_TOL * base) > -IMPROVE_EPS:
                        continue
                    if tau_i:  # confirm with the walks that the screens stand for
                        new_i, tau_i = splice_walk(*splice_i, lam), 0.0
                    if tau_j:
                        new_j = splice_walk(*splice_j, lam)
                if new_i + new_j - base < -IMPROVE_EPS:
                    tables[ri] = ev.splice_table(*splice_i)
                    if not same:
                        tables[rj] = ev.splice_table(*splice_j)
                    return True
        failed.add(key)
    return False


def _split_sequence(seq: list[int], ev: RouteEvaluator, lam: float) -> list[list[int]]:
    """Minimum-cost split of a task sequence into capacity-feasible routes.

    ``trails[j]`` holds the prefix states of the route ``seq[j:i - 1]``;
    one more step of that walk scores ``seq[j:i]``.
    """
    n, capacity = len(seq), ev.instance.capacity
    dp = [math.inf] * (n + 1)
    cut = [0] * (n + 1)
    dp[0] = 0.0
    trails = [[ev.origin] for _ in range(n)]
    for i in range(1, n + 1):
        load = 0.0
        j = i - 1
        while j >= 0:
            load += ev.rows[seq[j]][6]
            if load > capacity:
                break
            total, violation = ev.walk(trails[j][-1], (seq[i - 1],), trails[j])
            cost = dp[j] + (total + lam * violation)
            if cost < dp[i]:
                dp[i] = cost
                cut[i] = j
            j -= 1
    routes, i = [], n
    while i > 0:
        routes.append(list(seq[cut[i]:i]))
        i = cut[i]
    return routes[::-1]


def _merge_split(tables, ev, lam, rng) -> bool:
    """Dissolve ``MERGE_SPLIT_ROUTES`` routes and rebuild them; keep if improving."""
    if len(tables) < MERGE_SPLIT_ROUTES:
        return False
    picked = sorted(int(i) for i in rng.choice(len(tables), size=MERGE_SPLIT_ROUTES,
                                               replace=False))
    pair_root = ev.instance.pair_root
    roots = [pair_root(tid) for ri in picked for tid in tables[ri].route]
    old_contrib = ordered_sum(tables[ri].penalized(lam) for ri in picked)
    seq = [tid for route in _path_scan(ev, roots, math.inf, rng) for tid in route]
    rebuilt = [ev.table(route) for route in _split_sequence(seq, ev, lam)]
    if ordered_sum(t.penalized(lam) for t in rebuilt) - old_contrib < -IMPROVE_EPS:
        tables[:] = [t for ri, t in enumerate(tables) if ri not in picked] + rebuilt
        return True
    return False


# the basic move neighborhoods: single insertion, double insertion, swap
_MOVES = (partial(_scan_insertion, length=1), partial(_scan_insertion, length=2), _scan_swap)


def local_search(
    individual: Individual,
    rng: np.random.Generator,
    ev: RouteEvaluator,
    lam: float,
) -> Individual:
    """Accept-only-improving refinement of one individual.

    Runs first-improvement sweeps of the three move neighborhoods (in
    random order) to convergence, applies merge-split once, and, if that
    helped, converges the basic moves again.  Every scan of the call
    shares one :class:`_Record` of the moves found not to improve.  The
    result never has a worse penalized cost at ``lam`` than the input, and
    coverage is preserved.
    """
    tables = [ev.table(list(route)) for route in split_routes(individual.plan)]
    record = _Record()

    def converge_basic(budget: int) -> int:
        used = 0
        while used < budget:
            used += 1
            moved = False
            for si in rng.permutation(len(_MOVES)):
                while _MOVES[si](tables, ev, lam, rng, record):
                    moved = True
            if not moved:
                break
        return used

    used = converge_basic(LS_MAX_SWEEPS)
    if _merge_split(tables, ev, lam, rng):
        converge_basic(max(1, LS_MAX_SWEEPS - used))

    result = assess(ev, join_routes([table.route for table in tables]))
    if result.penalized(lam) <= individual.penalized(lam):
        return result
    return individual  # accept-only moves make this unreachable; safety net


def _cheapest_feasible(
    best: Optional[Individual], individuals: Iterable[Individual]
) -> Optional[Individual]:
    """The cheapest feasible of ``best`` and ``individuals``; a tie keeps the earlier."""
    for ind in individuals:
        if ind.feasible and (best is None or ind.total_cost < best.total_cost):
            best = ind
    return best


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
    ev = RouteEvaluator(instance, sp)

    def rank(ind: Individual) -> tuple[float, RoutingPlan]:
        return ind.penalized(lam), ind.plan

    plans: dict[RoutingPlan, None] = {}  # distinct construction plans, in order
    attempts = 0
    while len(plans) < params.psize and attempts < 50 * params.psize:
        rng = _stream(params.seed, 0, attempts)
        plans[join_routes(_path_scan(ev, instance.roots, instance.capacity, rng))] = None
        attempts += 1
    distinct = [assess(ev, plan) for plan in plans]
    # tiny instances have fewer distinct plans than psize: repeat them in turn
    population = [distinct[i % len(distinct)] for i in range(params.psize)]

    # the penalty coefficient starts at the best cost per unit of capacity
    lam = max(1.0, min(ind.total_cost for ind in population) / max(1.0, instance.capacity))
    lam_floor, lam_ceil = lam / 1024.0, lam * 2.0 ** 20
    population.sort(key=rank)
    best_feasible = _cheapest_feasible(None, population)

    trace: list[tuple[int, float, float]] = []
    for gen in range(1, params.generations + 1):
        offspring: list[Individual] = []
        for slot in range(params.psize):
            rng = _stream(params.seed, gen, slot)
            i, j = rng.choice(len(population), size=2, replace=False)
            child = crossover(population[int(i)].plan, population[int(j)].plan, rng, ev, lam)
            if rng.random() < params.pls:
                child = local_search(child, rng, ev, lam)
            offspring.append(child)

        pool = sorted(population + offspring, key=rank)
        first: dict[RoutingPlan, Individual] = {}  # each plan's best-ranked individual
        for ind in pool:
            first.setdefault(ind.plan, ind)
        # the distinct plans in rank order, padded from the top of the pool
        population = (list(first.values()) + pool)[:params.psize]
        best_feasible = _cheapest_feasible(best_feasible, offspring)

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
