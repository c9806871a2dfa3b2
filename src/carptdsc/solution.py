"""Solution encoding, route-cost evaluation, and constraint checking.

A routing plan is a flat task-ID sequence using 0 as separator, starting
and ending at the depot, e.g. (0, 1, 3, 0, 2, 4, 0) encodes two routes.
A solution pairs the plan with one departure time per route.

Route cost follows the arrival-time recurrence: a service cost equals
its service time and no waiting is allowed, so each task's time of
beginning of service is the departure time plus all preceding service
costs and shortest-path travel times.  An arc's travel cost is a field of
its own: the DAT and Solomon readers set it to the travel time, but an
arc may take 12 time units and cost 0.  ``RouteEvaluator.walk`` is the
one forward pass for stage 1 and the solution checks (one walk per route).
Crossover's ``cheapest_insertion`` walks each insertion from its cut's
prefix state, or on an exact instance (a plain CARP file: no ramp, no
horizon, integer costs, demands and capacity, and sums below 2**53)
prices it from the route's total and load alone, with the walk's float.
Only the moves screen: ``splice`` prices their candidates within a bound
of a walk.  Stage 2 prices a route with ``departure_cost``, a scalar pass
over legs read once per route, and ``total`` is that pass at one
departure.  ``evaluate``, ``evaluate_route`` and ``profile`` serve only
the benchmark harness and the tests.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .instance import Instance, ShortestPaths

RoutingPlan = tuple[int, ...]
DepartureTimes = tuple[float, ...]
# a task's (tail, head, c_min, bt, et, k, demand)
TaskRow = tuple[int, int, float, float, float, float, float]
# a route prefix's (time, service-cost sum, deadhead sum, end vertex, load)
RouteState = tuple[float, float, float, int, float]
INF = float("inf")
SCREEN_TOL = 1e-9  # relative rounding bound of a splice screen (tau per unit of scale)


class RouteTable(NamedTuple):
    """A route's prefix states and suffix functions (see RouteEvaluator.table)."""

    route: Sequence[int]
    prefixes: list[RouteState]
    suffixes: list  # the suffix function of each route[j:]
    total: float
    violation: float

    def penalized(self, lam: float) -> float:
        """The route's cost with its violation weighed by the penalty coefficient ``lam``."""
        return self.total + lam * self.violation

    @property
    def load(self) -> float:
        """The route's load, as its walk added it up."""
        return self.prefixes[-1][4]


class RouteTotals(NamedTuple):
    """A route's total, violation and load, and its prefix states unless the
    instance is exact: what :meth:`RouteEvaluator.cheapest_insertion` reads."""

    route: Sequence[int]
    total: float
    violation: float
    load: float
    prefixes: Optional[list[RouteState]] = None

    penalized = RouteTable.penalized


class PlanError(ValueError):
    """Malformed routing plan."""


@dataclass(frozen=True)
class Solution:
    plan: RoutingPlan
    departures: DepartureTimes


@dataclass(frozen=True)
class RouteEval:
    """Evaluation of one route at a fixed departure time.

    ``arrival_times`` covers the depot departure, every task's time of
    beginning of service, and the arrival back at the depot; so its
    length is the route length plus two and arrival_times[0] is the
    departure time.
    """

    arrival_times: tuple[float, ...]
    total: float


@dataclass(frozen=True)
class FeasibilityReport:
    no_duplicate_service: bool    # no task served twice
    no_inverse_service: bool      # no task served together with its inverse
    all_tasks_served: bool        # served set covers every task up to inversion
    capacity_respected: bool      # per-route demand within capacity
    horizon_tasks: bool           # every service start within [0, horizon]
    horizon_return: bool          # every return-to-depot within [0, horizon]
    returns: tuple[float, ...]    # each route's time back at the depot

    @property
    def broken(self) -> tuple[str, ...]:
        """Names of the checks that fail, in declaration order."""
        return tuple(
            name for name in ("no_duplicate_service", "no_inverse_service",
                              "all_tasks_served", "capacity_respected",
                              "horizon_tasks", "horizon_return")
            if not getattr(self, name)
        )

    @property
    def feasible(self) -> bool:
        return not self.broken


def split_routes(plan: Sequence[int]) -> list[tuple[int, ...]]:
    """Split a 0-delimited plan into routes; empty runs are dropped."""
    plan = tuple(plan)
    if len(plan) < 2 or plan[0] != 0 or plan[-1] != 0:
        raise PlanError(f"plan must begin and end with the separator 0: {plan}")
    routes: list[tuple[int, ...]] = []
    current: list[int] = []
    for tid in plan[1:]:
        if tid < 0:
            raise PlanError(f"negative task ID {tid} in plan")
        if tid == 0:
            if current:
                routes.append(tuple(current))
                current = []
        else:
            current.append(tid)
    return routes  # plan[-1] == 0 was checked, so the last run was flushed


def join_routes(routes: Sequence[Sequence[int]]) -> RoutingPlan:
    """Inverse of :func:`split_routes`; no routes yields the empty plan (0, 0)."""
    plan: list[int] = [0]
    for route in routes:
        if route:
            plan.extend(route)
            plan.append(0)
    if len(plan) == 1:
        plan.append(0)
    return tuple(plan)


class RouteEvaluator:
    """Route evaluation bound to one instance and its shortest paths.

    Precomputes one row of attributes per task and plain nested lists for
    the travel matrices, keeping the forward pass cheap inside search
    loops.  Evaluation is a pure function of (route, departure time).

    :meth:`walk` is the route kernel: stage 1 scores routes with it, and
    :meth:`walks` walks each route of a solution once for the checks.
    :meth:`splice` screens a changed route within a bound of it, for the
    moves alone.  :meth:`cheapest_insertion` walks or, on an :attr:`exact`
    instance, prices exactly every insertion of one task into the
    :class:`RouteTotals` that :meth:`totals` and :meth:`inserted` keep up.
    Stage 2 prices with :meth:`departure_cost`, a faster scalar pass over
    legs read once per route that adds services and deadhead in one
    running sum (so it can differ from a walk in the last bits);
    :meth:`total` is that pass at one departure.  :meth:`evaluate`, a view
    over a walk, and :meth:`profile`, ``total`` vectorized, serve only the
    benchmark harness and the tests.
    """

    def __init__(self, instance: Instance, sp: ShortestPaths):
        self.instance = instance
        self.depot = instance.depot
        self.origin: RouteState = (0.0, 0.0, 0.0, instance.depot, 0.0)
        self.horizon = instance.horizon
        self.capacity = instance.capacity
        self.load_tol = SCREEN_TOL * instance.capacity  # rounding bound of a route's load
        self.sp_time = sp.time.tolist()
        self.sp_cost = sp.cost.tolist()
        # an ID missing here (unknown, or the plan separator 0) is rejected by walk()
        self.rows: dict[int, TaskRow] = {
            tid: (task.arc.tail, task.arc.head, task.cost_fn.c_min, task.cost_fn.bt,
                  task.cost_fn.et, task.cost_fn.k, task.demand)
            for tid, task in instance.tasks.items()
        }
        # a fresh route is a splice into the empty route, whose suffix is the return
        self.empty = RouteTable((), [self.origin], [(self.depot, -instance.capacity, [0.0], [
            (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0)])], *self.walk(self.origin, ()))

    def walk(
        self,
        state: RouteState,
        tasks: Sequence[int],
        trail: Optional[list[RouteState]] = None,
    ) -> tuple[float, float]:
        """Continue a route from ``state`` through ``tasks`` back to the depot.

        Returns (cost, violation): the cost is the service-cost sum plus
        the deadhead sum, each added up in route order; the violation is
        the return's horizon excess plus the load's capacity excess.  If
        ``trail`` is a list, the state after each task is appended to it,
        so ``[origin] + trail`` are the prefix states of the route.
        """
        cur, services, deadhead, v, load = state
        sp_time, sp_cost, row_of = self.sp_time, self.sp_cost, self.rows
        for tid in tasks:
            row = row_of.get(tid)
            if row is None:
                raise PlanError(f"unknown or depot task ID {tid} in route")
            tail, head, c_min, bt, et, k, demand = row
            leg_t = sp_time[v][tail]
            if leg_t == INF:
                raise PlanError(f"no deadhead path from vertex {v} to task {tid}")
            deadhead += sp_cost[v][tail]
            cur += leg_t
            if cur < bt:
                sc = c_min + k * (bt - cur)
            elif cur > et:
                sc = c_min + k * (cur - et)
            else:
                sc = c_min
            services += sc
            cur += sc
            v = head
            load += demand
            if trail is not None:
                trail.append((cur, services, deadhead, v, load))
        leg_t = sp_time[v][self.depot]
        if leg_t == INF:
            raise PlanError(f"no deadhead path from vertex {v} back to the depot")
        deadhead += sp_cost[v][self.depot]
        cur += leg_t
        # max(0.0, x) without the call
        late = cur - self.horizon
        over = load - self.capacity
        return services + deadhead, (late if late > 0.0 else 0.0) + (over if over > 0.0 else 0.0)

    def table(self, route: Sequence[int]) -> RouteTable:
        """Prefix states and suffix functions of ``route`` departing at 0."""
        return self.splice_table(self.empty, 0, route, 0)

    def splice_table(self, table: RouteTable, i: int, tasks: Sequence[int], j: int) -> RouteTable:
        """The table of ``route[:i] + tasks + route[j:]``, keeping ``table``'s
        prefix states up to i and suffix functions from j on.

        Suffix j, the cost ``route[j:]`` adds from its first vertex on and
        its return time, is linear between breakpoints in the service
        start u >= 0 of ``route[j]``: (first vertex, load - capacity, each
        piece's first u, pieces), a piece being (lo, cost, C, ret, D, err,
        S): values at u = lo, slopes, rounding scale, and S >= |C|, |D|.
        Composed from the back: where a task's ramp slope is σ, the next
        start moves by f = 1 + σ per unit of u, so a piece maps back with
        slopes σ + f·C and f·D (in reverse order for f < 0).
        """
        route = [*table.route[:i], *tasks, *table.route[j:]]
        prefixes = table.prefixes[:i + 1]
        total, violation = self.walk(prefixes[-1], route[i:], prefixes)
        sp_time, sp_cost, rows = self.sp_time, self.sp_cost, self.rows
        end = i + len(tasks)  # suffix j of table is suffix end here
        suffixes = [None] * end + table.suffixes[j:]
        w, over, los, pieces = suffixes[end]
        for m in range(end - 1, -1, -1):
            tail, head, c_min, bt, et, k, demand = rows[route[m]]
            leg_t, leg_c = sp_time[head][w], sp_cost[head][w]
            new_los, new = [], []
            # (start, end, σ, pivot) of each part of u >= 0 where the service cost is linear
            for a, b, sigma, pivot in (((0.0, bt, -k, bt), (bt, et, 0.0, bt), (et, INF, k, et))
                                       if k else ((0.0, INF, 0.0, 0.0),)):
                f, abs_sigma, abs_f = 1.0 + sigma, abs(sigma), abs(1.0 + sigma)
                x_a = a + (c_min + sigma * (a - pivot)) + leg_t
                q_a = bisect_right(los, x_a) - 1
                # the pieces of suffix m + 1 that x = u + sc + leg_t passes through
                for q in range(q_a, len(los)) if f > 0.0 else range(q_a, -1, -1) if f < 0.0 \
                        else (q_a,):
                    u = a if q == q_a else a + (los[q + (f < 0.0)] - x_a) / f
                    if not u < b:
                        break
                    sc = c_min + sigma * (u - pivot)
                    x = u + sc + leg_t
                    lo, cost, slope, ret, ret_slope, err, scale = pieces[q]
                    cost = sc + leg_c + cost + slope * (x - lo)
                    ret += ret_slope * (x - lo)
                    new_scale = abs_sigma + abs_f * scale
                    new_los.append(u)
                    new.append((u, cost, sigma + f * slope, ret, f * ret_slope,
                                err + cost + ret + (scale + new_scale) * x, new_scale))
            suffixes[m] = (w, over, los, pieces) = (tail, over + demand, new_los, new)
        return RouteTable(route, prefixes, suffixes, total, violation)

    def splice(self, table: RouteTable, i: int, tasks: Sequence[int], j: int,
               lam: float) -> tuple[float, float]:
        """Penalized cost at ``lam`` of ``route[:i] + tasks + route[j:]``, and tau.

        A walk of ``tasks`` from prefix state i and one bisection into
        suffix j give a screen within tau of the route's :meth:`walk`; an
        unreachable leg or a non-finite screen is walked, tau 0.
        """
        cur, services, deadhead, v, load = table.prefixes[i]
        sp_time, sp_cost, rows = self.sp_time, self.sp_cost, self.rows
        cost = services + deadhead
        for tid in tasks:  # an unreachable leg leaves cur, and so u, inf or NaN
            tail, head, c_min, bt, et, k, demand = rows[tid]
            cost += sp_cost[v][tail]
            cur += sp_time[v][tail]
            if cur < bt:
                sc = c_min + k * (bt - cur)
            elif cur > et:
                sc = c_min + k * (cur - et)
            else:
                sc = c_min
            cost += sc
            cur += sc
            v = head
            load += demand
        w, over, los, pieces = table.suffixes[j]
        u = cur + sp_time[v][w]
        if u < INF:
            lo, rest, slope, ret, ret_slope, err, scale = pieces[
                bisect_right(los, u) - 1 if len(los) > 1 else 0]
            d = u - lo
            cost += sp_cost[v][w] + rest + slope * d
            late = ret + ret_slope * d - self.horizon
            over += load
            # the walk's cost and return are within tau of these, its load
            # within load_tol; an excess that cannot be positive is 0 there
            tau = SCREEN_TOL * (err + scale * u + cost)
            if late > -tau or over > -self.load_tol:
                excess = (late if late > 0.0 else 0.0) + (over if over > 0.0 else 0.0)
                cost += lam * excess
                tau += lam * ((tau if late > -tau else 0.0) + SCREEN_TOL * excess
                              + (self.load_tol if over > -self.load_tol else 0.0))
            if tau < INF:
                return cost, tau
        return self.splice_walk(table, i, tasks, j, lam), 0.0

    @cached_property
    def exact(self) -> bool:
        """Whether :meth:`cheapest_insertion` can price this instance exactly.

        It holds when every task has k = 0, there is no horizon, every leg
        is finite, every arc travel cost, c_min, demand and the capacity is
        an integer, and, for N task IDs, c the largest leg cost, m the largest
        c_min and Q the capacity, (N + 3)·(c + m) < 2**53 and
        (N + 1)·Q < 2**53.  Every integer below 2**53 in magnitude is a
        float, and a sum or difference of two such is exact while its
        value is one too.  So, for routes of at most N tasks (a plan
        serves each task ID at most once), every float below is exact:

        - A leg cost is a sum of arc travel costs along a path, added up
          by ``shortest_paths``.  A sum of integers that reaches 2**53
          rounds to no less than 2**53, above c, so every leg cost was
          added exactly and is an integer in [0, c].
        - A walk's running service and deadhead sums, and so its total T,
          are integers in [0, (n + 1)·(c + m)] for a route of n tasks.
        - D = c[v][tail] + c_min + c[head][w] - c[v][w] has partial sums in
          [-c, 2c + m], and T + D is the total of the route with the task
          put in, so in [0, (N + 2)·(c + m)].  The least detour G is in
          [-c, 2c + m] too, so T + G is at most (N + 3)·(c + m).
        - A load sums at most N + 1 demands of at most Q each (a larger
          demand is rejected by ``build_instance``), so L + d and
          L + d - Q are below (N + 1)·Q in magnitude.

        With no horizon, every return is -inf late; so T + D and
        max(0, L + d - Q) are the walk's total and violation of the route
        with the task put in, bit for bit.
        """
        rows = self.rows.values()
        integers = [arc.travel_cost for arc in self.instance.arcs]
        integers += [row[2] for row in rows] + [row[6] for row in rows] + [self.capacity]
        if not (self.horizon == INF and not any(row[5] for row in rows)
                and all(float(x).is_integer() for x in integers)
                and np.isfinite(self.sp_time).all() and np.isfinite(self.sp_cost).all()):
            return False
        largest = int(np.max(self.sp_cost)) + int(max(row[2] for row in rows))
        n = len(self.rows)
        return (n + 3) * largest < 2 ** 53 and (n + 1) * int(self.capacity) < 2 ** 53

    @cached_property
    def detour_floors(self) -> Optional[dict[int, tuple[float, float]]]:
        """Per task ID, (G, least demand) over its orientations on an
        :attr:`exact` instance; None on any other.

        G is the least c[v][tail] + c_min + c[head][w] - c[v][w] over every
        vertex pair (v, w) and each orientation, so no cut of any route adds
        less; it takes no triangle inequality.  One V x V array per task ID
        at a time, on the first exact insertion.
        """
        if not self.exact:
            return None
        cost = np.array(self.sp_cost)
        detours = {tid: float(np.min(cost[:, tail, None] + c_min + cost[head] - cost))
                   for tid, (tail, head, c_min, *_) in self.rows.items()}
        floors = {}
        for tid in self.rows:
            oids = self.instance.orientations(tid)
            floors[tid] = (min(detours[oid] for oid in oids), min(self.rows[oid][6] for oid in oids))
        return floors

    def cheapest_insertion(self, candidates: Sequence, tid: int,
                           lam: float) -> tuple[int, int, tuple[int]]:
        """Where one orientation of ``tid`` raises a candidate's penalized cost
        at ``lam`` least: (candidate index, position, (oid,)), the first
        strict minimum of the walked deltas in (candidate, position,
        orientation) order, as if every insertion was walked.

        On an :attr:`exact` instance a candidate (a :class:`RouteTotals` or a
        :class:`RouteTable`) is read for its route, total T, violation and
        load L only, and nothing is walked.  An orientation of demand d put
        in between vertices v and w adds
        D = c[v][tail] + c_min + c[head][w] - c[v][w], and its delta is
        ((T + D) + λ·e') - base, for e' = max(0, L + d - Q) and
        base = T + λ·violation.  T + D and e' are the walk's total and
        violation (see :attr:`exact`), whose penalized cost is
        (T + D) + λ·e': so each delta is the walk's float, and the least
        (delta, candidate, position, orientation) wins.  Candidates are
        visited in ascending order of ((T + G) + λ·e'_lo) - base, with G
        the task's least detour (:attr:`detour_floors`) and e'_lo the e'
        of its least demand.  G <= D, e'_lo <= e', λ >= 0 and rounding is
        monotone, so no delta of the route is below that bound.  Once a
        bound is above the least delta so far, that route and every later
        one are skipped; a route whose bound equals it is screened, as it
        may win the tie by coming earlier.  This takes λ as stage 1 sets
        it: at least 0, and small enough that λ times a load (below 2**53)
        plus a total stays finite, so every delta is.

        On any other instance each orientation at each cut is walked on from
        the cut's prefix state.  Nothing is screened: a route is read for
        one insertion before it changes.
        """
        best, at = INF, None  # the least delta so far and its (candidate, position, (oid,))
        if self.exact:
            rows, cost, depot, capacity = self.rows, self.sp_cost, self.depot, self.capacity
            g, demand_lo = self.detour_floors[tid]
            orients = []  # each orientation's (oid, tail, c_min, demand, leg costs from its head)
            for oid in self.instance.orientations(tid):
                tail, head, c_min, _, _, _, demand = rows[oid]
                orients.append((oid, tail, c_min, demand, cost[head]))
            bases = [route.penalized(lam) for route in candidates]
            visits = []  # (lower bound on the candidate's deltas, index)
            for ri, (route, base) in enumerate(zip(candidates, bases)):
                over = route.load + demand_lo - capacity
                visits.append((((route.total + g) + lam * (over if over > 0.0 else 0.0)) - base,
                               ri))
            visits.sort()
            for low, ri in visits:
                if low > best:  # so is every later bound, and every delta of those routes
                    break
                route, base = candidates[ri], bases[ri]
                total, load = route.total, route.load
                screens = []  # each orientation's (oid, tail, c_min, leg costs, λ·e')
                for oid, tail, c_min, demand, cost_h in orients:
                    over = load + demand - capacity
                    screens.append((oid, tail, c_min, cost_h, lam * (over if over > 0.0 else 0.0)))
                v = depot
                for pos, next_tid in enumerate((*route.route, 0)):
                    w = rows[next_tid][0] if next_tid else depot
                    cost_v = cost[v]
                    direct = cost_v[w]  # the leg the insertion replaces
                    for oid, tail, c_min, cost_h, penalty in screens:
                        delta = ((total + (cost_v[tail] + c_min + cost_h[w] - direct))
                                 + penalty) - base
                        if delta < best or (delta == best and ri < at[0]):
                            best, at = delta, (ri, pos, (oid,))
                    if next_tid:
                        v = rows[next_tid][1]
            return at
        walk, oids = self.walk, self.instance.orientations(tid)
        for ri, priced in enumerate(candidates):
            base, route = priced.penalized(lam), priced.route
            for pos, state in enumerate(priced.prefixes):
                rest = route[pos:]
                for oid in oids:
                    total, violation = walk(state, (oid, *rest))
                    delta = (total + lam * violation) - base
                    if delta < best or at is None:
                        best, at = delta, (ri, pos, (oid,))
        return at

    def totals(self, route: Sequence[int],
               prefixes: Optional[list[RouteState]] = None) -> RouteTotals:
        """``route`` with the total, violation and load of its walk on from
        ``prefixes``, the prefix states of its first tasks (the origin alone
        by default).  The walk appends the others; they are kept unless the
        instance is :attr:`exact`."""
        prefixes = [self.origin] if prefixes is None else prefixes
        total, violation = self.walk(prefixes[-1], route[len(prefixes) - 1:], prefixes)
        return RouteTotals(route, total, violation, prefixes[-1][4],
                           None if self.exact else prefixes)

    def inserted(self, priced, pos: int, oid: int) -> RouteTotals:
        """``priced`` (a :class:`RouteTotals` or :class:`RouteTable`) with
        ``oid`` put in at ``pos``, walked on from prefix state ``pos``.  On an
        :attr:`exact` instance it is priced without a walk: T + D, L + d
        and max(0, L + d - Q) as :meth:`cheapest_insertion` reads them,
        which are the walk's floats."""
        route = priced.route
        if not self.exact:
            return self.totals([*route[:pos], oid, *route[pos:]], priced.prefixes[:pos + 1])
        rows, cost = self.rows, self.sp_cost
        tail, head, c_min, _, _, _, demand = rows[oid]
        v = rows[route[pos - 1]][1] if pos else self.depot
        w = rows[route[pos]][0] if pos < len(route) else self.depot
        load = priced.load + demand
        over = load - self.capacity
        return RouteTotals([*route[:pos], oid, *route[pos:]],
                           priced.total + (cost[v][tail] + c_min + cost[head][w] - cost[v][w]),
                           over if over > 0.0 else 0.0, load)

    def splice_walk(self, table: RouteTable, i: int, tasks: Sequence[int], j: int,
                    lam: float) -> float:
        """What :meth:`splice` screens, walked from prefix state i."""
        total, violation = self.walk(table.prefixes[i], [*tasks, *table.route[j:]])
        return total + lam * violation

    def walks(self, solution: Solution) -> list[tuple[tuple[int, ...], float, list[RouteState]]]:
        """Each route of ``solution`` with its departure t and its trail.

        One :meth:`walk` per route, from the departure state at max(t, 0);
        the trail is that state followed by the state after each task.
        """
        routes = split_routes(solution.plan)
        if len(routes) != len(solution.departures):
            raise ValueError(
                f"{len(solution.departures)} departure times for {len(routes)} routes"
            )
        walks = []
        for route, t in zip(routes, solution.departures):
            trail: list[RouteState] = [(max(t, 0.0), 0.0, 0.0, self.depot, 0.0)]
            self.walk(trail[0], route, trail)
            walks.append((route, t, trail))
        return walks

    def slope_changes(self, route: Sequence[int]) -> list[float]:
        """Departures where the cost of ``route`` may change slope, from its table.

        Suffix 0 of the table is linear between the pieces' first service
        starts u = t + (depot leg); its first piece starts the table's domain,
        u = 0, so only the others are slope changes.
        """
        first, _, los, _ = self.table(route).suffixes[0]
        leg = self.sp_time[self.depot][first]
        return [u - leg for u in los[1:]]

    def evaluate(self, route: Sequence[int], t: float) -> RouteEval:
        """Arrival times and cost of ``route`` departing at ``t``.

        A view over one :meth:`walk` from the departure state: each
        service start is the state before it plus the deadhead leg's
        time, the same addition :meth:`walk` makes, and so is the return.
        """
        if t < 0:
            raise ValueError(f"departure time must be >= 0, got {t}")
        trail: list[RouteState] = [(t, 0.0, 0.0, self.depot, 0.0)]
        total, _ = self.walk(trail[0], route, trail)
        sp_time, rows = self.sp_time, self.rows
        arrivals = [t]
        arrivals += [cur + sp_time[v][rows[tid][0]] for (cur, _, _, v, _), tid in zip(trail, route)]
        cur, _, _, v, _ = trail[-1]
        arrivals.append(cur + sp_time[v][self.depot])
        return RouteEval(arrival_times=tuple(arrivals), total=total)

    def departure_cost(self, route: Sequence[int]) -> Callable[[float], float]:
        """The cost of ``route`` as a function of its departure time t.

        Each task's (leg time, leg cost, c_min, bt, et, k) and the return
        leg's cost are read here, once; the function adds the deadhead legs
        and the service costs in one running sum, in route order.
        """
        sp_time, sp_cost, rows = self.sp_time, self.sp_cost, self.rows
        legs = []
        v = self.depot
        for tid in route:
            tail, head, c_min, bt, et, k, _ = rows[tid]
            legs.append((sp_time[v][tail], sp_cost[v][tail], c_min, bt, et, k))
            v = head
        back = sp_cost[v][self.depot]

        def cost(t: float) -> float:
            total = 0.0
            for leg_t, leg_c, c_min, bt, et, k in legs:
                t += leg_t
                total += leg_c
                if t < bt:
                    sc = c_min + k * (bt - t)
                elif t > et:
                    sc = c_min + k * (t - et)
                else:
                    sc = c_min
                total += sc
                t += sc
            return total + back

        return cost

    def total(self, route: Sequence[int], t: float) -> float:
        """Route cost only: :meth:`departure_cost` of ``route`` at ``t``."""
        return self.departure_cost(route)(t)

    def profile(self, route: Sequence[int], ts: np.ndarray) -> np.ndarray:
        """Route cost swept over an array of departure times (vectorized).

        Equals ``[total(route, t) for t in ts]`` bit for bit.  The sweep
        advances the arrival times and the cost in place, with two scratch
        arrays for the ramp terms, so a task allocates no array.
        """
        self.walk(self.origin, route)  # rejects what walk() rejects
        cur = np.array(ts, dtype=float)
        total = np.zeros_like(cur)
        sc = np.empty_like(cur)
        late = np.empty_like(cur)
        v = self.depot
        for tid in route:
            tail, head, c_min, bt, et, k, _ = self.rows[tid]
            total += self.sp_cost[v][tail]
            cur += self.sp_time[v][tail]
            # c_min + k * (max(bt - cur, 0) + max(cur - et, 0)), in place
            np.maximum(np.subtract(bt, cur, out=sc), 0.0, out=sc)
            np.maximum(np.subtract(cur, et, out=late), 0.0, out=late)
            sc += late
            sc *= k
            sc += c_min
            total += sc
            cur += sc
            v = head
        total += self.sp_cost[v][self.depot]
        return total


def evaluate_route(
    route: Sequence[int], t: float, instance: Instance, sp: ShortestPaths
) -> RouteEval:
    """Evaluate one route at departure time ``t``."""
    return RouteEvaluator(instance, sp).evaluate(route, t)


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added with ``+`` in order, from 0.0; the built-in ``sum``
    compensates float rounding from Python 3.12 on, so it differs by version."""
    return reduce(operator.add, values, 0.0)


def evaluate_solution(solution: Solution, instance: Instance, sp: ShortestPaths) -> float:
    """Total cost: the per-route costs added with ``+`` in route order."""
    evaluator = RouteEvaluator(instance, sp)
    return ordered_sum(evaluator.total(route, t) for route, t, _ in evaluator.walks(solution))


def check_feasibility(
    solution: Solution, instance: Instance, sp: ShortestPaths
) -> FeasibilityReport:
    """Evaluate every constraint; violations are report content, not errors."""
    evaluator = RouteEvaluator(instance, sp)
    walks = evaluator.walks(solution)
    served = [tid for route, _, _ in walks for tid in route]
    roots = {instance.pair_root(tid) for tid in served}
    sp_time, rows, horizon = evaluator.sp_time, evaluator.rows, instance.horizon
    returns = tuple(trail[-1][0] + sp_time[trail[-1][3]][evaluator.depot]
                    for _, _, trail in walks)
    # legs and service costs are >= 0, so each route's last service start is
    # its latest; t > H also covers an infinite t, after which starts may be NaN
    last_starts = [trail[-2][0] + sp_time[trail[-2][3]][rows[route[-1]][0]]
                   for route, _, trail in walks]
    return FeasibilityReport(
        no_duplicate_service=len(roots) == len(served),
        no_inverse_service=len(set(served)) == len(roots),
        all_tasks_served=len(roots) == instance.num_required,
        # the walk adds each route's demands in route order
        capacity_respected=not any(trail[-1][4] > instance.capacity for _, _, trail in walks),
        horizon_tasks=not any(t < 0 or t > horizon or start > horizon
                              for (_, t, _), start in zip(walks, last_starts)),
        horizon_return=not any(r > horizon for r in returns),
        returns=returns,
    )


def format_solution(
    solution: Solution, instance: Instance, sp: ShortestPaths
) -> str:
    """Line-oriented text form: one route line per route plus a total line."""
    evaluator = RouteEvaluator(instance, sp)
    lines = []
    total = 0.0
    for i, (route, t, _) in enumerate(evaluator.walks(solution), start=1):
        cost = evaluator.total(route, t)
        total += cost
        tasks = " ".join(str(tid) for tid in route)
        lines.append(f"route {i}: {tasks}; depart {t:.6f}; cost {cost:.6f}")
    lines.append(f"total {total:.6f}")
    return "\n".join(lines) + "\n"
