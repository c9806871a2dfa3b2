"""Solution encoding, route-cost evaluation, and constraint checking.

A routing plan is a flat task-ID sequence using 0 as separator, starting
and ending at the depot, e.g. (0, 1, 3, 0, 2, 4, 0) encodes two routes.
A solution pairs the plan with one departure time per route.

Route cost follows the arrival-time recurrence: service and travel costs
equal service and travel times, no waiting is allowed, so each task's
time of beginning of service is the departure time plus all preceding
service costs and shortest-path travel times.  ``RouteEvaluator.walk``
is the one forward pass for stage 1, ``evaluate`` and the feasibility
checks; ``total`` and ``profile`` are stage 2's scalar and vector sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .instance import Instance, ShortestPaths

RoutingPlan = tuple[int, ...]
DepartureTimes = tuple[float, ...]
# a task's (tail, head, c_min, bt, et, k, demand)
TaskRow = tuple[int, int, float, float, float, float, float]
# a route prefix's (time, service-cost sum, deadhead sum, end vertex, load)
RouteState = tuple[float, float, float, int, float]
# a route suffix's linear piece (see RouteEvaluator.suffix_pieces): first
# vertex, old service start, shift interval, cost and return slopes,
# services plus deadhead, cost and return rounding scales
SuffixPiece = tuple[int, float, float, float, float, float, float, float, float]


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
    capacity_excess: tuple[float, ...]
    duplicates: tuple[int, ...]
    missing: tuple[int, ...]
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
    if current:
        # plan[-1] == 0 was checked, so the last run is always flushed
        raise PlanError("plan does not end with the separator 0")
    return routes


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

    :meth:`walk` is the route kernel: stage 1 scores routes with it,
    :meth:`evaluate` reads its states, and every route check goes
    through it.  Stage 2 keeps two sweeps of its own: :meth:`total`, a
    scalar pass that is faster than a walk and adds services and deadhead
    in one running sum (so it can differ from a walk in the last bits),
    and :meth:`profile`, the same pass vectorized over departure times.
    """

    def __init__(self, instance: Instance, sp: ShortestPaths):
        self.instance = instance
        self.depot = instance.depot
        self.origin: RouteState = (0.0, 0.0, 0.0, instance.depot, 0.0)
        self.sp_time = sp.time.tolist()
        self.sp_cost = sp.cost.tolist()
        # an ID missing here (unknown, or the plan separator 0) is rejected by walk()
        self.rows: dict[int, TaskRow] = {
            tid: (task.arc.tail, task.arc.head, task.cost_fn.c_min, task.cost_fn.bt,
                  task.cost_fn.et, task.cost_fn.k, task.demand)
            for tid, task in instance.tasks.items()
        }

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
        inf = float("inf")
        for tid in tasks:
            row = row_of.get(tid)
            if row is None:
                raise PlanError(f"unknown or depot task ID {tid} in route")
            tail, head, c_min, bt, et, k, demand = row
            leg_t = sp_time[v][tail]
            if leg_t == inf:
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
        if leg_t == inf:
            raise PlanError(f"no deadhead path from vertex {v} back to the depot")
        deadhead += sp_cost[v][self.depot]
        cur += leg_t
        # max(0.0, x) without the call
        late = cur - self.instance.horizon
        over = load - self.instance.capacity
        return services + deadhead, (late if late > 0.0 else 0.0) + (over if over > 0.0 else 0.0)

    def suffix_pieces(
        self, route: Sequence[int], prefixes: Sequence[RouteState]
    ) -> list[SuffixPiece]:
        """The linear piece of every suffix ``route[j:]``, for j = 0..len(route).

        ``prefixes`` are the route's prefix states, ``[origin] + trail`` of
        one :meth:`walk`.  Piece j is (w, u, lo, hi, C, D, rest, err_c,
        err_d): ``w`` is the suffix's first vertex (the depot for the
        empty suffix) and ``u`` the old time there (the service start of
        ``route[j]``, or the return).  If that time moves to ``u + d`` with
        d in [lo, hi], no task of the suffix crosses its ``bt`` or ``et``,
        so the suffix's services plus deadhead from ``w`` on are
        ``rest + C·d`` and its return is ``ret + D·d``, exact up to
        rounding.  ``err_c`` and ``err_d`` sum |C|·u and |D|·u over the
        suffix: the scales of that rounding.

        One backward pass: a task with ramp slope σ ∈ {-k, 0, k} at its
        old start scales every later shift by f = 1 + σ, so C = σ + f·C'
        and D = f·D', and the next piece's interval, divided by f (and
        flipped for f < 0; no bound for f = 0), is cut to the task's own.
        """
        inf = float("inf")
        sp_time, sp_cost, row_of = self.sp_time, self.sp_cost, self.rows
        cur, _, _, v, _ = prefixes[len(route)]
        w, u = self.depot, cur + sp_time[v][self.depot]
        lo, hi, slope, ret_slope, rest, err_c, err_d = -inf, inf, 0.0, 1.0, 0.0, 0.0, u
        pieces = [(w, u, lo, hi, slope, ret_slope, rest, err_c, err_d)]
        for j in range(len(route) - 1, -1, -1):
            tail, head, c_min, bt, et, k, _ = row_of[route[j]]
            cur, _, _, v, _ = prefixes[j]
            u = cur + sp_time[v][tail]
            if k == 0.0:
                sigma, a, b, sc = 0.0, -inf, inf, c_min
            elif u < bt:
                sigma, a, b, sc = -k, -inf, bt - u, c_min + k * (bt - u)
            elif u > et:
                sigma, a, b, sc = k, et - u, inf, c_min + k * (u - et)
            else:
                sigma, a, b, sc = 0.0, bt - u, et - u, c_min
            f = 1.0 + sigma
            if f > 0.0:
                lo, hi = lo / f, hi / f
            elif f < 0.0:
                lo, hi = hi / f, lo / f
            else:
                lo, hi = -inf, inf
            lo = a if a > lo else lo
            hi = b if b < hi else hi
            # an overflowed slope leaves this and every earlier rounding
            # scale inf or NaN, so no screen there is trusted
            slope = sigma + f * slope
            ret_slope = f * ret_slope
            rest += sc + sp_cost[head][w]
            err_c += (slope if slope > 0.0 else -slope) * u
            err_d += (ret_slope if ret_slope > 0.0 else -ret_slope) * u
            w = tail
            pieces.append((w, u, lo, hi, slope, ret_slope, rest, err_c, err_d))
        pieces.reverse()
        return pieces

    def routes(self, solution: Solution) -> list[tuple[int, ...]]:
        """The routes of ``solution``, each checked once as :meth:`walk` checks it."""
        routes = split_routes(solution.plan)
        if len(routes) != len(solution.departures):
            raise ValueError(
                f"{len(solution.departures)} departure times for {len(routes)} routes"
            )
        for route in routes:
            self.walk(self.origin, route)
        return routes

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

    def total(self, route: Sequence[int], t: float) -> float:
        """Route cost only; same forward pass without bookkeeping."""
        sp_time, sp_cost, rows = self.sp_time, self.sp_cost, self.rows
        cur = t
        v = self.depot
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
        return total + sp_cost[v][self.depot]

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

    def solution_cost(self, solution: Solution) -> float:
        return sum(
            self.total(route, t)
            for route, t in zip(self.routes(solution), solution.departures)
        )


def evaluate_route(
    route: Sequence[int], t: float, instance: Instance, sp: ShortestPaths
) -> RouteEval:
    """Evaluate one route at departure time ``t``."""
    return RouteEvaluator(instance, sp).evaluate(route, t)


def evaluate_solution(solution: Solution, instance: Instance, sp: ShortestPaths) -> float:
    """Total cost, the sum of independent per-route costs."""
    return RouteEvaluator(instance, sp).solution_cost(solution)


def check_feasibility(
    solution: Solution, instance: Instance, sp: ShortestPaths
) -> FeasibilityReport:
    """Evaluate every constraint; violations are report content, not errors."""
    evaluator = RouteEvaluator(instance, sp)
    routes = evaluator.routes(solution)

    seen_pairs: dict[int, int] = {}
    duplicates: list[int] = []
    inverse_clash = False
    for route in routes:
        for tid in route:
            root = instance.pair_root(tid)
            if root in seen_pairs:
                duplicates.append(tid)
                if seen_pairs[root] != tid:
                    inverse_clash = True
            else:
                seen_pairs[root] = tid

    missing = [root for root in instance.roots if root not in seen_pairs]

    excess: list[float] = []
    returns: list[float] = []
    horizon_tasks_ok = True
    for route, t in zip(routes, solution.departures):
        load = sum(evaluator.rows[tid][6] for tid in route)
        excess.append(max(0.0, load - instance.capacity))
        if t < 0:  # violates the lower end of the time window
            horizon_tasks_ok = False
        ev = evaluator.evaluate(route, max(t, 0.0))
        # arrival_times[0] is the departure, [1:-1] the service starts,
        # [-1] the return leg; the window applies to all of them
        if any(a > instance.horizon for a in ev.arrival_times[:-1]):
            horizon_tasks_ok = False
        returns.append(ev.arrival_times[-1])

    return FeasibilityReport(
        no_duplicate_service=not duplicates,
        no_inverse_service=not inverse_clash,
        all_tasks_served=not missing,
        capacity_respected=all(e == 0.0 for e in excess),
        horizon_tasks=horizon_tasks_ok,
        horizon_return=not any(r > instance.horizon for r in returns),
        capacity_excess=tuple(excess),
        duplicates=tuple(duplicates),
        missing=tuple(missing),
        returns=tuple(returns),
    )


def format_solution(
    solution: Solution, instance: Instance, sp: ShortestPaths
) -> str:
    """Line-oriented text form: one route line per route plus a total line."""
    evaluator = RouteEvaluator(instance, sp)
    routes = evaluator.routes(solution)
    lines = []
    total = 0.0
    for i, (route, t) in enumerate(zip(routes, solution.departures), start=1):
        cost = evaluator.total(route, t)
        total += cost
        tasks = " ".join(str(tid) for tid in route)
        lines.append(f"route {i}: {tasks}; depart {t:.6f}; cost {cost:.6f}")
    lines.append(f"total {total:.6f}")
    return "\n".join(lines) + "\n"
