"""Per-route vehicle departure-time optimization.

The total cost is separable across routes, so each route's departure time
is optimized independently on [0, horizon].  Dispatch follows the problem
family and slope magnitude: two-segment costs are non-decreasing in the
departure time, so 0 is optimal; three-segment costs with slope <= 1 are
(similar-)unimodal or non-decreasing and handled by golden-section search;
slopes > 1 can produce non-unimodal route costs and are handled by a
negatively-correlated stochastic search.  A grid oracle, exact on its
grid, is provided for verification.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .costfn import Family, classify
from .instance import Instance, ShortestPaths
from .maens import mix_seed
from .solution import DepartureTimes, RouteEvaluator, RoutingPlan, split_routes

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # interval shrink factor per iteration
GSS_EPS = 1e-3           # optimize_departures stops gss at this times the horizon
NCS_SIGMA_DIVISOR = 6.0  # ncs's first step size is the interval length over this
NCS_EPOCH_ADAPT = 10     # ncs adapts its step size every this many epochs


class ScalarObjective:
    """Deterministic scalar objective on [lo, hi] with an evaluation counter.

    ``slope_changes``, when given, returns the times t >= 0 where the
    objective's slope may change (it is affine between them); only
    :func:`grid_oracle` calls it.
    """

    def __init__(
        self,
        fn: Callable[[float], float],
        slope_changes: Optional[Callable[[], list[float]]] = None,
    ):
        self.fn = fn
        self.slope_changes = slope_changes
        self.evaluations = 0

    def __call__(self, t: float) -> float:
        self.evaluations += 1
        return self.fn(t)


def route_objective(
    route: Sequence[int], instance: Instance, sp: ShortestPaths
) -> ScalarObjective:
    """Route cost (deadhead included) as a function of the departure time.

    The route is walked once here, so an unknown task is named before any
    evaluation; the slope changes are computed on demand, as gss and ncs
    never ask for them.
    """
    evaluator = RouteEvaluator(instance, sp)
    evaluator.walk(evaluator.origin, route)
    return ScalarObjective(evaluator.departure_cost(route),
                           partial(evaluator.slope_changes, tuple(route)))


@dataclass(frozen=True)
class NcsParams:
    process_count: int = 10
    budget: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.process_count < 2:
            raise ValueError(f"need at least 2 search processes, got {self.process_count}")
        if self.budget <= 0:
            raise ValueError(f"evaluation budget must be positive, got {self.budget}")


def gss(obj: ScalarObjective, lo: float, hi: float, epsilon: float) -> tuple[float, float]:
    """Golden-section search for a minimum of ``obj`` on [lo, hi].

    Intended for (similar-)unimodal or non-decreasing objectives.  The
    bracket shrinks by the golden ratio each iteration until its length
    drops below ``epsilon``; the midpoint of the final bracket and its
    cost are returned.
    """
    if lo >= hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    c = hi - (hi - lo) * INVPHI
    d = lo + (hi - lo) * INVPHI
    fc = obj(c)
    fd = obj(d)
    while hi - lo > epsilon:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * INVPHI
            fc = obj(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * INVPHI
            fd = obj(d)
    mid = 0.5 * (lo + hi)
    return mid, obj(mid)


def ncs(
    obj: ScalarObjective, lo: float, hi: float, params: NcsParams
) -> tuple[float, float]:
    """Negatively-correlated search for a minimum of ``obj`` on [lo, hi].

    Maintains ``process_count`` Gaussian search processes in parallel.
    Each epoch every process proposes one offspring; an offspring replaces
    its parent when its normalized fitness over its normalized distance to
    the other processes' distributions falls below a threshold drawn
    around 1, so processes are simultaneously pulled toward good regions
    and pushed apart.  Never exceeds ``params.budget`` objective
    evaluations; returns the best point evaluated, clamped to [lo, hi] by
    construction.

    One step size, starting at (hi - lo) / 6, is shared by all processes
    and adapted every 10 epochs by the 1/5-success rule on the success rate
    pooled over all processes; Tang, Yang & Yao (IEEE JSAC 2016) give
    each process its own.  With equal variances the log term of the
    Bhattacharyya distance, log((v + v) / (2 s s)), is log(1) = 0, so the
    distance to the nearest other process is a scaled squared distance to
    the nearest other mean, read off the means sorted once per epoch.
    Each batch of points is evaluated through ``obj.fn`` and counted in
    ``obj.evaluations``; a proposal clamped to lo or hi counts too, but
    ``obj.fn`` prices each end only once.  The normal variates of each
    adaptation period (each epoch's steps, then its thresholds) come from
    one draw of at most ``2 * NCS_EPOCH_ADAPT * process_count`` values, the
    same stream as one draw per variate, so memory does not grow with the
    budget.
    """
    if lo >= hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    rng = np.random.Generator(np.random.PCG64(params.seed))
    span = hi - lo
    nproc = params.process_count
    budget = params.budget
    sigma = span / NCS_SIGMA_DIVISOR

    fn = obj.fn
    ends: dict[float, float] = {}  # the cost at lo and at hi, once priced
    means = (lo + span * rng.random(nproc)).tolist()[:budget]
    fits = [fn(t) for t in means]
    used = len(means)
    obj.evaluations += used
    best_f = min(fits)
    best_t = means[fits.index(best_f)] if best_f < math.inf else math.nan

    epoch = 0
    successes = 0
    while used < budget:
        if epoch % NCS_EPOCH_ADAPT == 0:
            # the normals of the adaptation period's epochs in draw order, each
            # epoch's steps then its thresholds: the stream does not depend
            # on how its draws are chunked
            normals = rng.standard_normal(
                2 * min(budget - used, NCS_EPOCH_ADAPT * nproc)).tolist()
            drawn = 0
        epoch += 1
        count = min(nproc, budget - used)
        steps = normals[drawn:drawn + count]
        thresholds = normals[drawn + count:drawn + 2 * count]
        drawn += 2 * count
        # min(hi, max(lo, t)) without the calls; the same float, as lo < hi
        proposals = [
            (t if t < hi else hi) if (t := m + sigma * z) > lo else lo
            for m, z in zip(means, steps)
        ]
        proposal_fits = [
            fn(t) if lo < t < hi else ends[t] if t in ends else ends.setdefault(t, fn(t))
            for t in proposals
        ]
        used += count
        obj.evaluations += count
        f = min(proposal_fits)
        if f < best_f:
            best_f, best_t = f, proposals[proposal_fits.index(f)]

        pool = fits[:count] + proposal_fits
        f_lo, f_hi = min(pool), max(pool)
        f_span = max(f_hi - f_lo, 1e-300)
        # Bhattacharyya distance of N(t, var) to the nearest N(m, var):
        # monotone in (t - m) ** 2, so the nearest mean gives the minimum
        var2 = 2.0 * (sigma * sigma)
        # the nearest other mean is t's nearer sorted neighbour on either
        # side that is not its own parent; the infinite ends are never
        # nearer than the other finite means
        order = sorted(range(nproc), key=means.__getitem__)
        ranked = [-math.inf] + [means[j] for j in order] + [math.inf]
        order = [-1] + order + [-1]
        dists = []
        for i, t in enumerate(proposals):
            r = bisect_left(ranked, t)
            left = r - 2 if order[r - 1] == i else r - 1
            right = r + 1 if order[r] == i else r
            sq = (t - ranked[left]) ** 2
            sq_right = (t - ranked[right]) ** 2
            dists.append(0.25 * (sq_right if sq_right < sq else sq) / var2)
        d_hi = max(max(dists), 1e-300)

        spread = max(0.1 * (1.0 - used / budget), 0.01)
        for i, z in enumerate(thresholds):
            f_norm = (proposal_fits[i] - f_lo) / f_span
            d_norm = dists[i] / d_hi
            if f_norm / (1e-12 if 1e-12 > d_norm else d_norm) < 1.0 + spread * z:
                means[i] = proposals[i]
                fits[i] = proposal_fits[i]
                successes += 1

        if epoch % NCS_EPOCH_ADAPT == 0:
            rate = successes / (NCS_EPOCH_ADAPT * nproc)
            if rate > 0.2:
                factor = 1.0 / 0.85
            elif rate < 0.2:
                factor = 0.85
            else:
                factor = 1.0
            sigma = min(span, max(1e-12 * span, sigma * factor))
            successes = 0

    return best_t, best_f


def grid_oracle(
    obj: ScalarObjective, lo: float, hi: float, step: float
) -> tuple[float, float]:
    """Exhaustive minimum over {lo, lo+step, ...} up to and including hi.

    Ties break toward the smaller departure time.  Verification tool.
    When ``obj.slope_changes`` lists the slope changes (a route's
    objective) and lo >= 0, the objective is affine between them, so on
    the grid points of one piece it is least at the piece's first or
    last point: only the points ⌊(x - lo) / step⌋ + {-1, 0, 1, 2} around
    each slope change x, the first and last grid points and hi are
    evaluated, at most 4·(slope changes) + 3 of them, whatever (hi - lo)
    / step.  Otherwise every grid point is evaluated, O((hi - lo) / step)
    of them.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step}")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    steps = (hi - lo) / step
    if not math.isfinite(steps):
        raise ValueError(f"step {step} is too small: a grid on [{lo}, {hi}] would be infinite")
    count = int(math.floor(steps + 1e-9))
    # the slope changes are listed for t >= 0 only
    if obj.slope_changes is None or lo < 0:
        indices = range(count + 1)
    else:
        picked = {0, count}
        for x in obj.slope_changes():
            q = (x - lo) / step
            if -3.0 < q < count + 2.0:  # else no bracketing index is on the grid
                i = math.floor(q)
                picked.update(j for j in range(i - 1, i + 3) if 0 <= j <= count)
        indices = sorted(picked)
    # made one at a time; indices ends at count, which the 1e-9 slack can put past hi
    end = lo + step * count
    ts = chain((lo + step * i for i in indices[:-1]), (min(end, hi),), (hi,) if end < hi else ())
    best_t, best_f = float(lo), math.inf
    for t in ts:
        f = obj(t)
        if f < best_f:
            best_t, best_f = t, f
    return float(best_t), float(best_f)


def optimize_departures(
    plan: RoutingPlan,
    instance: Instance,
    sp: ShortestPaths,
    seed: int = 0,
) -> DepartureTimes:
    """Optimal (or near-optimal) departure time for every route of ``plan``.

    Two-segment instances get all-zero departures, and so do three-segment
    ones at slope 0, whose route costs do not change with t.  Other
    three-segment instances are routed to gss when the slope magnitude is
    <= 1 and to ncs otherwise, each route independently on [0, horizon]:
    gss stops at ``GSS_EPS`` times the horizon, and ncs runs with
    ``NcsParams``' defaults.  Per-route ncs seeds mix ``seed`` with the route's tasks, so
    the result is independent of optimization order.
    """
    routes = split_routes(plan)
    kind = classify(instance)
    if kind.family is Family.TWO_SEGMENT:
        return tuple(0.0 for _ in routes)

    horizon = instance.horizon
    if not math.isfinite(horizon):
        raise ValueError("departure optimization needs a finite planning horizon")
    if kind.k == 0.0:
        return tuple(0.0 for _ in routes)

    evaluator = RouteEvaluator(instance, sp)
    departures: list[float] = []
    for route in routes:
        obj = ScalarObjective(evaluator.departure_cost(route))
        if kind.k <= 1.0:
            t_star, _ = gss(obj, 0.0, horizon, GSS_EPS * horizon)
        else:
            # the ncs stream is keyed to the route content, so a route's
            # departure does not depend on its position in the plan
            t_star, _ = ncs(obj, 0.0, horizon, NcsParams(seed=mix_seed(seed, route)))
        departures.append(t_star)
    return tuple(departures)

