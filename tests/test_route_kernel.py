"""The stage-1 route kernel ``RouteEvaluator.walk`` and the splice scorer.

``walk`` must give the same (cost, violation), bit for bit, as the
step-by-step event walk ``oracles.simulate_route`` plus the load excess,
and ``evaluate`` the same arrival times and cost; a walk that starts from
a recorded prefix state must equal a walk of the whole route; every
screen of ``RouteEvaluator.splice`` must be within its tau of the walk
of the route it prices; cheapest insertion, the move scans and the split
must choose what walking every whole candidate route chooses, crossover
with no route table and no ``splice`` (and on an exact instance with no
walk at all, as its general loop does on a copy with a horizon, and with
the answer of the static loop that screened every route before routes
were skipped), exactness must be worked out from the input alone, and
crossover's child must carry the prices ``assess`` gives it; local
search, which skips the moves its record holds as failed, must match the
same search without a record; the solution checks must walk each route
once and agree with the reference checks; and the search built on them
must reproduce pinned plans.
"""

import dataclasses
import hashlib
import math
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from carptdsc import (
    Arc,
    MaensParams,
    RouteEvaluator,
    ServiceCostFunction,
    Solution,
    Task,
    build_instance,
    check_feasibility,
    crossover,
    evaluate_solution,
    evolve,
    format_solution,
    init_individual,
    instance_io,
    join_routes,
    local_search,
    shortest_paths,
    split_routes,
)
from carptdsc.bench import load_instance_text
from carptdsc.maens import (
    IMPROVE_EPS,
    SolverError,
    _MOVES,
    _Record,
    _cheapest_insertion,
    _scan_insertion,
    _scan_swap,
    _split_sequence,
    assess,
)
from carptdsc.solution import PlanError

from conftest import DATA, random_static_file, rng_for
from oracles import (
    reference_check_feasibility,
    reference_cheapest_insertion,
    reference_local_search,
    reference_scan_insertion,
    reference_scan_swap,
    reference_split_sequence,
    reference_static_insertion,
    simulate_route,
)


def _cases():
    """Static gdb1 and long-routes-0 take cheapest insertion's exact loop;
    gdb1 3LP k = 0 has no ramp but a horizon (714) that can bind, so it
    takes the general loop with every other case.  long-routes-0 3LP k = 2
    has routes of 10-17 tasks with ramps."""
    _, static = instance_io.parse_carp((DATA / "gdb1.dat").read_text())
    cases = {"gdb1": static}
    for k in (0.3, 1.0, 2.0, 3.0):
        cases[f"gdb1-3lp-k{k}"], _ = instance_io.generate_td(static, "3lp", (k,), 3)
    cases["gdb1-3lp-k0"], _ = instance_io.generate_td(static, "3lp", (0.0,), 3)
    cases["r101_25"] = load_instance_text((DATA / "r101_25.txt").read_text())
    _, cases["long-routes-0"] = instance_io.parse_carp((DATA / "long-routes-0.dat").read_text())
    cases["long-routes-0-3lp-k2"], _ = instance_io.generate_td(cases["long-routes-0"], "3lp",
                                                               (2.0,), 0)
    out = {}
    for name, inst in cases.items():
        sp = shortest_paths(inst)
        out[name] = (inst, sp, RouteEvaluator(inst, sp))
    return out


CASES = _cases()


def _bits(stats):
    return tuple(float(x).hex() for x in stats)


def _full_stats(inst, sp, route):
    """(cost, violation) of ``route`` departing at 0, by the event walk."""
    sim = simulate_route(route, 0.0, inst, sp)
    load = 0.0
    for tid in route:
        load += inst.tasks[tid].demand
    return sim.total, max(0.0, sim.finish - inst.horizon) + max(0.0, load - inst.capacity)


@st.composite
def _case_route(draw, max_size=20):
    """((instance, shortest paths, evaluator), route, one more task ID)."""
    case = CASES[draw(st.sampled_from(sorted(CASES)))]
    ids = st.sampled_from(case[0].real_task_ids)
    return case, draw(st.lists(ids, max_size=max_size)), draw(ids)


@settings(max_examples=300, deadline=None)
@given(_case_route())
def test_walk_matches_the_event_walk_bit_for_bit(case_route):
    (inst, sp, ev), route, _ = case_route
    assert _bits(ev.walk(ev.origin, route)) == _bits(_full_stats(inst, sp, route))


@settings(max_examples=300, deadline=None)
@given(_case_route(), st.floats(0.0, 1.0, exclude_min=True))
def test_evaluate_matches_the_event_walk_bit_for_bit(case_route, fraction):
    (inst, sp, ev), route, _ = case_route
    t = fraction * (inst.horizon if inst.horizon < float("inf") else 1e3)
    got = ev.evaluate(route, t)
    sim = simulate_route(route, t, inst, sp)
    assert _bits(got.arrival_times) == _bits([t, *sim.arrivals, sim.finish])
    assert got.total.hex() == float(sim.total).hex()


@settings(max_examples=200, deadline=None)
@given(_case_route(max_size=15), st.sampled_from([1.0, 7.5, 1e3, 2.0 ** 20]))
def test_prefix_insertion_delta_matches_full_evaluation(case_route, lam):
    (inst, sp, ev), route, oid = case_route
    prefixes = [ev.origin]
    total, violation = ev.walk(ev.origin, route, prefixes)
    assert len(prefixes) == len(route) + 1
    assert _bits((total, violation)) == _bits(_full_stats(inst, sp, route))
    base = total + lam * violation
    for pos, state in enumerate(prefixes):
        total, violation = ev.walk(state, [oid] + route[pos:])
        full_total, full_violation = _full_stats(inst, sp, route[:pos] + [oid] + route[pos:])
        assert (total + lam * violation - base).hex() == (
            full_total + lam * full_violation - base).hex()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cheapest_insertion_matches_whole_route_reference(name):
    inst, sp, ev = CASES[name]
    roots = sorted({inst.pair_root(t) for t in inst.real_task_ids})
    for seed in range(15):
        rng = rng_for(seed)
        order = [roots[int(i)] for i in rng.permutation(len(roots))]
        missing = order[:4]
        rest = order[4:]
        cuts = sorted(int(c) for c in rng.choice(len(rest), size=3, replace=False))
        routes = [rest[a:b] for a, b in zip([0] + cuts, cuts + [len(rest)]) if rest[a:b]]
        lam = float(rng.uniform(0.5, 50.0))
        priced = [ev.totals(list(r)) for r in routes]
        want = [list(r) for r in routes]
        for tid in missing:
            _cheapest_insertion(priced, tid, ev, lam)
            reference_cheapest_insertion(want, tid, ev, inst, lam)
            assert [p.route for p in priced] == want


def _splices(route, kind, oid, other):
    """(i, tasks, j) of every splice of one ``kind`` that the stage-1
    operators make in ``route``, with ``oid`` and ``other`` as new tasks."""
    n = len(route)
    if kind == "insert":
        return [(i, [oid], i) for i in range(n + 1)]
    if kind == "remove":
        return [(i, [], i + length) for length in (1, 2) for i in range(n - length + 1)]
    if kind == "swap":
        return [(i, [oid], i + 1) for i in range(n)] + [
            (i, [oid, *route[i + 1:j], other], j + 1) for i in range(n) for j in range(i + 1, n)]
    out = []  # a segment moved within the route, as _scan_insertion moves it
    for length in (1, 2):
        for p in range(n - length + 1):
            end = p + length
            seg = route[p:end]
            for q in range(n - length + 1):
                if q <= p:
                    out.append((q, seg + route[q:p], end))
                else:
                    out.append((p, route[end:q + length] + seg, q + length))
    return out


_LAMBDAS = st.floats(0.0, 2.0 ** 20)
_KINDS = st.sampled_from(["insert", "remove", "swap", "move"])


def _screens_within_tau(ev, route, kind, oid, other, lam):
    """Check every splice of one ``kind`` in ``route`` against its walk;
    return the j of each splice that was screened (tau > 0)."""
    table = ev.table(route)
    assert table.route == route and len(table.prefixes) == len(table.suffixes) == len(route) + 1
    screened = []
    for i, tasks, j in _splices(route, kind, oid, other):
        value, tau = ev.splice(table, i, tasks, j, lam)
        total, violation = ev.walk(ev.origin, route[:i] + tasks + route[j:])
        walked = total + lam * violation
        if tau == 0.0:
            assert value.hex() == walked.hex()
        else:
            assert abs(value - walked) <= tau
            screened.append(j)
    return screened


@settings(max_examples=300, deadline=None)
@given(_case_route(), _LAMBDAS, _KINDS, st.data())
def test_every_splice_screen_is_within_tau_of_its_walk(case_route, lam, kind, data):
    (inst, sp, ev), route, oid = case_route
    other = data.draw(st.sampled_from(inst.real_task_ids))
    _screens_within_tau(ev, route, kind, oid, other, lam)


@pytest.mark.parametrize("capacity", [60, 120])
@pytest.mark.parametrize("kind", ["insert", "remove", "swap", "move"])
def test_splice_screens_of_long_suffixes_are_within_tau(long_suffix_routes, capacity, kind):
    """3LP k = 3 routes whose suffix 0 has more than 64 pieces."""
    inst, sp, routes = long_suffix_routes[capacity, 3.0]
    ev = RouteEvaluator(inst, sp)
    ids = inst.real_task_ids
    long = [r for r in routes if len(ev.table(r).suffixes[0][3]) > 64]
    screened_long = 0  # screens that read a suffix of more than 64 pieces
    for n, route in enumerate(long):
        suffixes = ev.table(route).suffixes
        screened = _screens_within_tau(ev, route, kind, ids[n], ids[-1 - n], 7.5)
        screened_long += sum(len(suffixes[j][3]) > 64 for j in screened)
    assert screened_long


def test_cheapest_insertion_among_long_suffixes_matches_whole_route_reference(long_suffix_routes):
    for inst, sp, routes in long_suffix_routes.values():
        ev = RouteEvaluator(inst, sp)
        for ri, route in enumerate(routes):
            if len(ev.table(route).suffixes[0][3]) <= 64:
                continue
            tid = route[len(route) // 2]  # taken out of its route, then put back
            want = [[t for t in r if t != tid] if rj == ri else list(r)
                    for rj, r in enumerate(routes)]
            priced = [ev.totals(r) for r in want]
            _cheapest_insertion(priced, inst.pair_root(tid), ev, 3.0)
            reference_cheapest_insertion(want, inst.pair_root(tid), ev, inst, 3.0)
            assert [p.route for p in priced] == want


@st.composite
def _case_routes(draw, max_routes=4):
    """((instance, shortest paths, evaluator), routes, task ID to insert)."""
    case = CASES[draw(st.sampled_from(sorted(CASES)))]
    ids = st.sampled_from(case[0].real_task_ids)
    routes = draw(st.lists(st.lists(ids, min_size=1, max_size=20), max_size=max_routes))
    return case, routes, draw(ids)


@settings(max_examples=200, deadline=None)
@given(_case_routes(), _LAMBDAS)
def test_screened_cheapest_insertion_matches_whole_route_reference(case_routes, lam):
    (inst, sp, ev), routes, tid = case_routes
    priced = [ev.totals(list(r)) for r in routes]
    want = [list(r) for r in routes]
    _cheapest_insertion(priced, tid, ev, lam)
    reference_cheapest_insertion(want, tid, ev, inst, lam)
    assert [p.route for p in priced] == want


def _counted(ev, names):
    """Count calls of ``ev``'s kernels ``names``, in a dict by name."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counted(*args, name=name, kernel=getattr(ev, name)):
            calls[name] += 1
            return kernel(*args)
        setattr(ev, name, counted)
    return calls


def test_crossover_calls_no_table_or_splice_kernel():
    """Crossover's repair walks each insertion from its cut's prefix state,
    or on an exact instance prices it from route totals: on every case it
    builds no route table and screens nothing."""
    kernels = ("table", "splice_table", "splice", "splice_walk")
    for name in sorted(CASES):
        inst, sp, _ = CASES[name]
        ev = RouteEvaluator(inst, sp)
        calls = _counted(ev, (*kernels, "inserted"))
        for seed in range(6):
            rng = rng_for(seed)
            plans = [init_individual(inst, sp, rng) for _ in range(2)]
            crossover(*plans, rng, ev, float(rng.uniform(0.5, 50.0)))
        assert calls.pop("inserted"), name  # some child had tasks put back
        assert calls == dict.fromkeys(kernels, 0), name


def test_the_static_loop_is_taken_by_static_instances_alone():
    """Every task k = 0 and no horizon: a static CARP file, nothing else."""
    _, static = instance_io.parse_carp((DATA / "gdb1.dat").read_text())
    two_segment, _ = instance_io.generate_td(static, "2lp", (), 3)
    assert CASES["gdb1"][2].exact and CASES["long-routes-0"][2].exact
    assert not RouteEvaluator(two_segment, CASES["gdb1"][1]).exact
    for name in ("gdb1-3lp-k0", "gdb1-3lp-k2.0", "r101_25", "long-routes-0-3lp-k2"):
        assert not CASES[name][2].exact, name


@pytest.mark.parametrize("name", ["gdb1", "long-routes-0"])
def test_static_insertions_match_the_general_loop(name):
    """A copy of a static instance with a horizon no route reaches takes the
    general loop, and inserts every task of a removed route where the
    exact loop does, into routes with the same totals and violations."""
    inst, sp, ev = CASES[name]
    general = RouteEvaluator(dataclasses.replace(inst, horizon=1e6), sp)
    assert ev.exact and not general.exact

    def tabled(tables):
        return [(t.route, t.total.hex(), t.violation.hex()) for t in tables]

    for seed in range(10):
        rng = rng_for(seed)
        routes = split_routes(init_individual(inst, sp, rng))
        missing = [inst.pair_root(tid) for tid in routes.pop(int(rng.integers(len(routes))))]
        got = [ev.table(list(r)) for r in routes]
        want = [general.table(list(r)) for r in routes]
        for tid in missing:
            _cheapest_insertion(got, tid, ev, 7.5)
            _cheapest_insertion(want, tid, general, 7.5)
            assert tabled(got) == tabled(want)


class _LoggedWalks(RouteEvaluator):
    """An evaluator that logs each ``splice_walk`` call in ``walked``."""

    def __init__(self, instance, sp):
        super().__init__(instance, sp)
        self.walked = []

    def splice_walk(self, table, i, tasks, j, lam):
        self.walked.append((tuple(table.route), i, tuple(tasks), j, lam.hex()))
        return super().splice_walk(table, i, tasks, j, lam)


class _Watched(list):
    """A table's route that notes in ``passes`` each pass over it and each
    indexed read: the exact loop iterates over the route, the general
    loop slices it at each cut."""

    def __init__(self, states, passes, ri):
        super().__init__(states)
        self.passes, self.ri = passes, ri

    def __iter__(self):
        self.passes.add(self.ri)
        return super().__iter__()

    def __getitem__(self, index):
        self.passes.add(self.ri)
        return super().__getitem__(index)


def _skipping_run(ev, candidates, tid, lam):
    """``cheapest_insertion``'s answer and walks, then the unskipped static
    loop's, and the indices of the candidates whose cuts were screened."""
    passes = set()
    watched = [t._replace(route=_Watched(t.route, passes, ri)) for ri, t in enumerate(candidates)]
    ev.walked = []
    got = ev.cheapest_insertion(watched, tid, lam), ev.walked
    ev.walked = []
    want = reference_static_insertion(ev, candidates, tid, lam), ev.walked
    return got, want, passes


_LOGGED = {name: _LoggedWalks(*CASES[name][:2]) for name in ("gdb1", "long-routes-0")}


@st.composite
def _overflowing_routes(draw):
    """(evaluator, candidate tables, task ID): a partial plan of up to six
    routes of up to 20 tasks, many over capacity, and the fresh route."""
    ev = _LOGGED[draw(st.sampled_from(sorted(_LOGGED)))]
    ids = st.sampled_from(ev.instance.real_task_ids)
    routes = draw(st.lists(st.lists(ids, min_size=1, max_size=20), max_size=6))
    return ev, [ev.table(r) for r in routes] + [ev.empty], draw(ids)


@settings(max_examples=300, deadline=None)
@given(_overflowing_routes(), _LAMBDAS)
def test_static_skips_change_no_answer_and_no_walk(case, lam):
    """Skipping the routes whose bound exceeds the least delta so far returns
    what the unskipped static loop returns, and on these exact instances
    nothing is walked."""
    ev, candidates, tid = case
    assert ev.exact
    got, want, _ = _skipping_run(ev, candidates, tid, lam)
    assert got[0] == want[0] and got[1] == []


def _walked_deltas(ev, table, tid, lam):
    """The walked delta of each insertion of ``tid`` into ``table``."""
    base = table.penalized(lam)
    return [RouteEvaluator.splice_walk(ev, table, pos, (oid,), pos, lam) - base
            for pos in range(len(table.route) + 1) for oid in ev.instance.orientations(tid)]


@settings(max_examples=150, deadline=None)
@given(_overflowing_routes(), _LAMBDAS)
def test_every_skipped_screen_is_above_the_final_bound(case, lam):
    """Each insertion into a route left unscreened has a walked delta above
    the least walked delta of all: it could neither have won nor tied."""
    ev, candidates, tid = case
    _, _, passes = _skipping_run(ev, candidates, tid, lam)
    least = min(min(_walked_deltas(ev, t, tid, lam)) for t in candidates)
    for ri, table in enumerate(candidates):
        if ri not in passes:
            assert all(delta > least for delta in _walked_deltas(ev, table, tid, lam))


@pytest.mark.parametrize("name", sorted(_LOGGED))
def test_crossover_repairs_skip_routes_and_match_the_unskipped_loop(name):
    """Every task of a removed route put back into a seeded plan, at a
    penalty that makes full routes dear: the same answers as the unskipped
    loop, no walk, and some routes are not screened at all."""
    ev = _LOGGED[name]
    inst, sp = ev.instance, CASES[name][1]
    skipped = 0
    for seed in range(8):
        rng = rng_for(seed)
        routes = split_routes(init_individual(inst, sp, rng))
        missing = [inst.pair_root(tid) for tid in routes.pop(int(rng.integers(len(routes))))]
        tables = [ev.table(list(r)) for r in routes]
        for tid in missing:
            candidates = tables + [ev.empty]
            got, want, passes = _skipping_run(ev, candidates, tid, 50.0)
            assert got[0] == want[0] and got[1] == []
            skipped += len(candidates) - len(passes)
            ri, pos, single = got[0]
            if ri == len(tables):
                tables.append(ev.table(list(single)))
            else:
                tables[ri] = ev.splice_table(tables[ri], pos, single, pos)
    assert skipped


def _triangle_instance(cost_02):
    """Depot 0 and vertices 1, 2, joined both ways by arcs of time 1; the
    arcs between 0 and 2 cost ``cost_02``, the others 1.  Task 1 serves
    1 -> 2 (demand 1); tasks 2 (0 -> 1) and 3 (2 -> 0) fill capacity 2."""
    arcs = [Arc(1, 1, 2, 1.0, 1.0), Arc(2, 0, 1, 1.0, 1.0), Arc(3, 2, 0, 1.0, cost_02),
            Arc(4, 1, 0, 1.0, 1.0), Arc(5, 2, 1, 1.0, 1.0), Arc(6, 0, 2, 1.0, cost_02)]
    static = ServiceCostFunction(1.0, 0.0, 0.0, 0.0)
    tasks = [Task(tid, arcs[tid - 1], 1.0, static) for tid in (1, 2, 3)]
    inst = build_instance(3, arcs, tasks, 0, 2.0, math.inf)
    return _LoggedWalks(inst, shortest_paths(inst))


def test_a_full_route_whose_penalty_outweighs_the_fresh_route_is_skipped():
    """Route (2, 3) is full; task 1 fits between its tasks at no detour, so
    each of its screens adds at least the penalty.  At lam = 100 that is
    above the fresh route's 3, and the route is not screened."""
    ev = _triangle_instance(1.0)
    full = ev.table([2, 3])
    assert ev.detour_floors[1][0] == 0.0 and full.violation == 0.0
    got, want, passes = _skipping_run(ev, [full, ev.empty], 1, 100.0)
    assert got == want == ((1, 0, (1,)), [])
    assert passes == {1}


def test_a_route_whose_bound_ties_the_least_delta_is_screened():
    """At lam = 3 the full route's bound, and its delta between tasks 2 and
    3, equal the fresh route's delta (3): the full route is screened and,
    put first, wins the tie with nothing walked; put after the fresh
    route, it loses it.  At lam = 3.5 its bound is above 3, and it is
    skipped."""
    ev = _triangle_instance(1.0)
    full = ev.table([2, 3])
    assert ev.detour_floors[1][0] == 0.0 and full.violation == 0.0
    got, want, passes = _skipping_run(ev, [full, ev.empty], 1, 3.0)
    assert got[0] == want[0] == (0, 1, (1,)) and got[1] == []
    assert passes == {0, 1}
    got, want, passes = _skipping_run(ev, [ev.empty, full], 1, 3.0)
    assert got[0] == want[0] == (0, 0, (1,)) and got[1] == []
    assert passes == {0, 1}
    got, want, passes = _skipping_run(ev, [full, ev.empty], 1, 3.5)
    assert got[0] == want[0] == (1, 0, (1,)) and got[1] == []
    assert passes == {1}


def test_nothing_is_skipped_where_costs_break_the_triangle_inequality():
    """The arcs between 0 and 2 are fast but cost 50, so task 1 put first in
    the full route (3, 2) saves 48 of travel cost before the penalty.  The
    least detour comes from the cost matrix over every vertex pair, so at
    lam = 60 that route (delta 12) is screened and beats the fresh route
    (52); c_min - c[tail][head] = 0, or the same bound from the time
    matrix, would have skipped it."""
    ev = _triangle_instance(50.0)
    full = ev.table([3, 2])
    assert ev.detour_floors[1][0] == -48.0 and full.violation == 0.0
    got, want, passes = _skipping_run(ev, [full, ev.empty], 1, 60.0)
    assert got[0] == want[0] == (0, 0, (1,)) and got[1] == []
    assert passes == {0, 1}


def test_nothing_is_skipped_when_a_vertex_is_unreachable():
    """A static instance with an isolated vertex has an infinite leg, so no
    route is skipped, even where the same tables skip some without it: the
    general loop walks every cut, and calls no ``splice_walk``."""
    inst, sp, _ = CASES["gdb1"]
    isolated = dataclasses.replace(inst, num_vertices=inst.num_vertices + 1)
    ev = _LoggedWalks(isolated, shortest_paths(isolated))
    assert ev.horizon == math.inf and not any(row[5] for row in ev.rows.values())
    assert not ev.exact and ev.detour_floors is None
    routes = split_routes(init_individual(inst, sp, rng_for(0)))
    tid = inst.pair_root(routes.pop()[0])
    candidates = [ev.table(r) for r in routes] + [ev.empty]
    got, want, passes = _skipping_run(ev, candidates, tid, 2.0 ** 20)
    assert got[0] == want[0] and got[1] == [] and passes == set(range(len(candidates)))
    reachable = _LOGGED["gdb1"]
    _, _, passes = _skipping_run(reachable, [reachable.table(r) for r in routes]
                                 + [reachable.empty], tid, 2.0 ** 20)
    assert len(passes) < len(candidates)


@settings(max_examples=60, deadline=None)
@given(_case_routes(max_routes=3), _LAMBDAS, st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2, "swap"]))
def test_move_scans_match_whole_route_references(case_routes, lam, seed, move):
    """Routes with repeated tasks are fine here: the scans only read IDs."""
    (inst, sp, ev), routes, _ = case_routes
    tables = [ev.table(list(r)) for r in routes]
    want = [list(r) for r in routes]
    if move == "swap":
        moved = _scan_swap(tables, ev, lam, rng_for(seed), _Record())
        assert moved == reference_scan_swap(want, ev, inst, lam, rng_for(seed), IMPROVE_EPS)
    else:
        moved = _scan_insertion(tables, ev, lam, rng_for(seed), _Record(), length=move)
        assert moved == reference_scan_insertion(want, ev, inst, lam, rng_for(seed), move,
                                                 IMPROVE_EPS)
    assert [t.route for t in tables] == want


@pytest.mark.parametrize("move", [1, 2, "swap"])
def test_move_scans_walk_the_screens_they_cannot_trust(move):
    """One task repeated along a late route at a huge lambda: many moves
    leave the route as it is, and their screens read a few 1e-9 below
    the walk, so a move accepted on its screen alone would be wrong."""
    inst, sp, ev = CASES["gdb1-3lp-k0.3"]
    for tid, size, seed in [(3, 14, 0), (26, 14, 2), (28, 20, 0)]:
        tables = [ev.table([tid] * size)]
        want = [[tid] * size]
        if move == "swap":
            moved = _scan_swap(tables, ev, 2.0 ** 20, rng_for(seed), _Record())
            assert moved == reference_scan_swap(want, ev, inst, 2.0 ** 20, rng_for(seed),
                                                IMPROVE_EPS)
        else:
            moved = _scan_insertion(tables, ev, 2.0 ** 20, rng_for(seed), _Record(),
                                    length=move)
            assert moved == reference_scan_insertion(want, ev, inst, 2.0 ** 20, rng_for(seed),
                                                     move, IMPROVE_EPS)
        assert [t.route for t in tables] == want


@st.composite
def _plan_of(draw, inst, max_tasks=16):
    """A plan of distinct tasks of ``inst``, each pair served once in a
    drawn orientation, cut into routes at drawn points."""
    roots = sorted({inst.pair_root(tid) for tid in inst.real_task_ids})
    picked = draw(st.lists(st.sampled_from(roots), min_size=1, max_size=max_tasks, unique=True))
    plan = [0]
    for root in picked:
        plan.append(draw(st.sampled_from(inst.orientations(root))))
        if draw(st.booleans()):
            plan.append(0)
    return join_routes(split_routes(plan + [0]))


@st.composite
def _case_plan(draw):
    """((instance, shortest paths, evaluator), plan) by :func:`_plan_of`."""
    case = CASES[draw(st.sampled_from(sorted(CASES)))]
    return case, draw(_plan_of(case[0]))


@settings(max_examples=200, deadline=None)
@given(_case_plan(), _LAMBDAS, st.integers(0, 2 ** 32 - 1), st.data())
def test_crossover_prices_its_child_as_assess_does(case_plan, lam, seed, data):
    """A child with inserted tasks is priced from its route tables, whose
    walks continue stored prefix states: the floats are a whole walk's."""
    (inst, sp, ev), plan = case_plan
    other = data.draw(_plan_of(inst))
    child = crossover(plan, other, rng_for(seed), ev, lam)
    assert child == assess(ev, child.plan)


def _tied_instance(seed):
    """A random static CARP instance with every edge cost and demand 1 or
    2 and capacity 4: many insertions tie, and a few tasks fill a route."""
    rng = rng_for(seed)
    f = random_static_file(rng, n_vertices=9, n_extra_edges=6, n_required=12, capacity=4.0,
                           name=f"tied{seed}")
    f = dataclasses.replace(
        f,
        required_edges=tuple((i, j, float(rng.integers(1, 3)), float(rng.integers(1, 3)))
                             for i, j, _, _ in f.required_edges),
        non_required_edges=tuple((i, j, float(rng.integers(1, 3)))
                                 for i, j, _ in f.non_required_edges))
    inst = instance_io.carp_to_instance(f)
    return inst, shortest_paths(inst)


_EXACT = {**{name: CASES[name][:2] for name in ("gdb1", "long-routes-0")},
          **{f"tied{seed}": _tied_instance(seed) for seed in range(4)}}


@st.composite
def _exact_partial_plan(draw):
    """(instance, shortest paths, routes, task ID): a partial plan of an
    exact instance, many of whose routes are over capacity, and a task it
    does not serve."""
    inst, sp = _EXACT[draw(st.sampled_from(sorted(_EXACT)))]
    plan = draw(_plan_of(inst, max_tasks=min(30, inst.num_required - 1)))
    served = {inst.pair_root(tid) for tid in plan if tid}
    tid = draw(st.sampled_from([root for root in inst.roots if root not in served]))
    return inst, sp, [list(route) for route in split_routes(plan)], tid


@settings(max_examples=300, deadline=None)
@given(_exact_partial_plan(), _LAMBDAS)
def test_exact_insertion_matches_whole_route_reference_and_walks_nothing(case, lam):
    """On an exact instance crossover's insertion chooses what walking every
    whole candidate route chooses, ties included, and prices the route it
    changes with the floats of its walk, without a walk."""
    inst, sp, routes, tid = case
    ev, reference = RouteEvaluator(inst, sp), RouteEvaluator(inst, sp)
    assert ev.exact
    priced = [ev.totals(route) for route in routes]
    calls = _counted(ev, ("walk", "splice", "splice_walk", "splice_table"))
    _cheapest_insertion(priced, tid, ev, lam)
    assert calls == {"walk": 0, "splice": 0, "splice_walk": 0, "splice_table": 0}
    want = [list(route) for route in routes]
    reference_cheapest_insertion(want, tid, reference, inst, lam)
    assert [p.route for p in priced] == want
    for p in priced:
        total, violation = reference.walk(reference.origin, p.route)
        assert (p.total.hex(), p.violation.hex()) == (total.hex(), violation.hex())


def _exactness_cases():
    """Instances and whether each is exact: a plain CARP file is, and
    anything with a ramp, a horizon, a non-integral cost, demand or
    capacity, an infinite leg or magnitudes past the bound is not."""
    replace = dataclasses.replace
    _, gdb1 = instance_io.parse_carp((DATA / "gdb1.dat").read_text())
    _, tenth = instance_io.parse_carp((DATA / "gdb1-tenth.dat").read_text())
    n = len(gdb1.tasks)  # task IDs: (n + 1) * capacity must stay below 2**53

    def scaled(factor):
        return replace(gdb1, arcs=tuple(replace(arc, travel_cost=arc.travel_cost * factor)
                                        for arc in gdb1.arcs))

    first = gdb1.arcs[0]
    return {
        "gdb1": (gdb1, True),
        "long-routes-0": (CASES["long-routes-0"][0], True),
        "tied0": (_EXACT["tied0"][0], True),
        "one arc cost + 0.1": (replace(gdb1, arcs=(
            replace(first, travel_cost=first.travel_cost + 0.1), *gdb1.arcs[1:])), False),
        "gdb1-tenth": (tenth, False),
        "a demand of 1.5": (replace(gdb1, tasks={
            **gdb1.tasks, 1: replace(gdb1.tasks[1], demand=1.5)}), False),
        "capacity 5.5": (replace(gdb1, capacity=5.5), False),
        "an isolated vertex": (replace(gdb1, num_vertices=gdb1.num_vertices + 1), False),
        "2LP": (instance_io.generate_td(gdb1, "2lp", (), 3)[0], False),
        "3LP k = 0": (CASES["gdb1-3lp-k0"][0], False),
        "3LP k = 2": (CASES["gdb1-3lp-k2.0"][0], False),
        "r101_25": (CASES["r101_25"][0], False),
        "capacity below the bound": (replace(gdb1, capacity=float((2 ** 53 - 1) // (n + 1))),
                                     True),
        "capacity at the bound": (replace(gdb1, capacity=float(2 ** 53 // (n + 1) + 1)), False),
        "costs times 2**40": (scaled(2.0 ** 40), True),
        "costs times 2**47": (scaled(2.0 ** 47), False),
    }


_EXACTNESS = _exactness_cases()


@pytest.mark.parametrize("name", sorted(_EXACTNESS))
def test_exactness_is_worked_out_from_the_input(name):
    inst, exact = _EXACTNESS[name]
    ev = RouteEvaluator(inst, shortest_paths(inst))
    assert ev.exact is exact
    assert (ev.detour_floors is not None) is exact


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_EXACT)), _LAMBDAS, st.integers(0, 2 ** 32 - 1), st.data())
def test_crossover_children_on_exact_instances_carry_their_walks_floats(name, lam, seed, data):
    """A child priced from its routes' totals, kept up without walks, has the
    total and violation of :func:`assess`, bit for bit."""
    inst, sp = _EXACT[name]
    ev = RouteEvaluator(inst, sp)
    plan, other = data.draw(_plan_of(inst)), data.draw(_plan_of(inst))
    child = crossover(plan, other, rng_for(seed), ev, lam)
    want = assess(ev, child.plan)
    assert (child.total_cost.hex(), child.violation.hex()) == (
        want.total_cost.hex(), want.violation.hex())


@settings(max_examples=100, deadline=None)
@given(_case_plan(), _LAMBDAS, st.integers(0, 2 ** 32 - 1))
def test_local_search_matches_the_memoryless_reference(case_plan, lam, seed):
    """The record of failed moves skips only moves that cannot improve."""
    (inst, sp, ev), plan = case_plan
    ind = assess(ev, plan)
    assert local_search(ind, rng_for(seed), ev, lam) == reference_local_search(
        ind, rng_for(seed), ev, lam)


@settings(max_examples=100, deadline=None)
@given(_case_route(max_size=8), _LAMBDAS, st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2, "swap"]))
def test_move_scans_key_a_route_apart_from_its_copy(case_route, lam, seed, move):
    """A route and its copy have one route ID: the moves a record holds as
    failed within the route alone say nothing of moves into the copy."""
    (inst, sp, ev), route, _ = case_route
    if move == "swap":
        scan = partial(_scan_swap, ev=ev, lam=lam)
        reference = partial(reference_scan_swap, ev=ev, instance=inst, lam=lam, eps=IMPROVE_EPS)
    else:
        scan = partial(_scan_insertion, ev=ev, lam=lam, length=move)
        reference = partial(reference_scan_insertion, ev=ev, instance=inst, lam=lam,
                            length=move, eps=IMPROVE_EPS)
    record = _Record()
    tables = [ev.table(route or [1])]
    while scan(tables, rng=rng_for(seed), record=record):
        seed += 1
    tables = tables * 2
    want = [list(t.route) for t in tables]
    assert scan(tables, rng=rng_for(seed), record=record) == reference(want, rng=rng_for(seed))
    assert [t.route for t in tables] == want


class _NothingImproves(RouteEvaluator):
    """Prices every changed route at +inf, so a scan fails every move and
    records every key it makes."""

    def splice(self, table, i, tasks, j, lam):
        return math.inf, 0.0

    def splice_walk(self, table, i, tasks, j, lam):
        return math.inf


@pytest.mark.parametrize("move", range(len(_MOVES)))
def test_a_record_filled_by_the_other_neighborhoods_changes_no_scan(move):
    """Every neighborhood tags its keys: a key another one recorded as
    failed never makes this one skip a move."""
    for name in sorted(CASES):
        inst, sp, ev = CASES[name]
        blocked = _NothingImproves(inst, sp)
        for seed in range(3):
            plan = init_individual(inst, sp, rng_for(seed))
            tables = [ev.table(list(r)) for r in split_routes(plan)]
            filled = _Record()
            for other in range(len(_MOVES)):
                if other != move:
                    assert not _MOVES[other](list(tables), blocked, 7.5, rng_for(seed), filled)
            got, want = list(tables), list(tables)
            moved = _MOVES[move](got, ev, 7.5, rng_for(seed), filled)
            assert moved == _MOVES[move](want, ev, 7.5, rng_for(seed), _Record())
            assert [t.route for t in got] == [t.route for t in want]


@pytest.mark.parametrize("move", range(len(_MOVES)))
def test_a_scan_of_unchanged_routes_reuses_its_record(move):
    """On routes no move improves, a second scan with the record of the
    first screens and walks nothing."""
    inst, sp, _ = CASES["gdb1-3lp-k2.0"]
    ev = RouteEvaluator(inst, sp)
    tables = [ev.table(list(r)) for r in split_routes(init_individual(inst, sp, rng_for(1)))]
    while any(scan(tables, ev, 7.5, rng_for(0), _Record()) for scan in _MOVES):
        pass
    record = _Record()
    assert not _MOVES[move](tables, ev, 7.5, rng_for(1), record)
    calls = []
    for name in ("splice", "splice_walk"):
        kernel = getattr(ev, name)
        setattr(ev, name, lambda *args, kernel=kernel: calls.append(args) or kernel(*args))
    assert not _MOVES[move](tables, ev, 7.5, rng_for(2), record)
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(_case_route(max_size=30), _LAMBDAS)
def test_split_sequence_matches_whole_route_reference(case_route, lam):
    (inst, sp, ev), seq, _ = case_route
    want = reference_split_sequence(seq, ev, inst, lam)
    if want is None:
        with pytest.raises(SolverError):
            _split_sequence(seq, ev, lam)
    else:
        assert _split_sequence(seq, ev, lam) == want


def _broken_instance():
    """Task 2's tail (vertex 2) cannot be reached from the depot and task
    3's head (vertex 3) cannot reach the depot."""
    arcs = [
        Arc(1, 0, 1, 1, 1), Arc(2, 1, 0, 1, 1),
        Arc(3, 2, 0, 1, 1), Arc(4, 0, 3, 1, 1),
    ]
    tasks = [
        Task(1, arcs[0], 1.0, ServiceCostFunction(1.0)),
        Task(2, arcs[2], 1.0, ServiceCostFunction(1.0)),
        Task(3, arcs[3], 1.0, ServiceCostFunction(1.0)),
    ]
    inst = build_instance(4, arcs, tasks, 0, 5.0, 100.0)
    sp = shortest_paths(inst)
    return inst, sp, RouteEvaluator(inst, sp)


@pytest.mark.parametrize("route", [(1, 99), (0,), (1, 0, 1), (-1,)])
def test_walk_rejects_unknown_and_depot_ids(route):
    inst, sp, ev = _broken_instance()
    with pytest.raises(PlanError, match="unknown or depot task ID"):
        ev.walk(ev.origin, route)
    with pytest.raises(PlanError, match="unknown or depot task ID"):
        ev.table(route)


@pytest.mark.parametrize("route,where", [
    ((2,), "from vertex 0 to task 2"),
    ((1, 2), "from vertex 1 to task 2"),
    ((3,), "from vertex 3 back to the depot"),
])
def test_walk_rejects_unreachable_legs(route, where):
    inst, sp, ev = _broken_instance()
    with pytest.raises(PlanError, match=where):
        ev.walk(ev.origin, route)
    with pytest.raises(PlanError, match=where):
        ev.table(route)
    assert ev.walk(ev.origin, (1,)) == (2.0, 0.0)


def _solution_costs(inst, sp, ev, sol):
    """Every entry point that costs or checks a whole solution."""
    return [
        lambda: evaluate_solution(sol, inst, sp),
        lambda: format_solution(sol, inst, sp),
        lambda: check_feasibility(sol, inst, sp),
    ]


@pytest.mark.parametrize("route,message", [
    ((1, 99), "unknown or depot task ID 99"),
    ((2,), "from vertex 0 to task 2"),
    ((1, 2), "from vertex 1 to task 2"),
    ((3,), "from vertex 3 back to the depot"),
])
def test_solution_costs_reject_what_walk_rejects(route, message):
    inst, sp, ev = _broken_instance()
    sol = Solution(join_routes([(1,), route]), (0.0, 0.0))
    for cost in _solution_costs(inst, sp, ev, sol):
        with pytest.raises(PlanError, match=message):
            cost()


@pytest.mark.parametrize("tid", [45, 99])
def test_solution_costs_reject_unknown_gdb1_ids(tid):
    inst, sp, ev = CASES["gdb1"]
    sol = Solution((0, 1, 3, 0, 5, tid, 0), (0.0, 0.0))
    for cost in _solution_costs(inst, sp, ev, sol):
        with pytest.raises(PlanError, match=f"unknown or depot task ID {tid} in route"):
            cost()


@st.composite
def _case_solution(draw):
    """((instance, shortest paths, evaluator), solution): 1-6 routes of 1-8
    tasks with repeats and inverse twins, departing before 0, inside [0, H],
    at H, past H or at infinity."""
    case = CASES[draw(st.sampled_from(sorted(CASES)))]
    inst = case[0]
    horizon = inst.horizon if inst.horizon < math.inf else 1e3
    routes = draw(st.lists(st.lists(st.sampled_from(inst.real_task_ids), min_size=1,
                                    max_size=8), min_size=1, max_size=6))
    for route in routes:
        if draw(st.booleans()):  # the twin of a task already served
            tid = draw(st.sampled_from(route))
            route.append(inst.tasks[tid].inverse_id or tid)
    departures = st.one_of(st.sampled_from([0.0, -1.0, horizon, 1.5 * horizon, math.inf]),
                           st.floats(0.0, horizon), st.floats(-5.0, 2.0 * horizon))
    return case, Solution(join_routes(routes), tuple(draw(departures) for _ in routes))


@settings(max_examples=500, deadline=None)
@given(_case_solution())
def test_check_feasibility_matches_the_reference_checks(case_solution):
    (inst, sp, _), sol = case_solution
    assert repr(check_feasibility(sol, inst, sp)) == repr(
        reference_check_feasibility(sol, inst, sp))


def test_solution_checks_walk_each_route_once(monkeypatch):
    inst, sp, _ = CASES["gdb1-3lp-k2.0"]
    routes = [(1, 3), (5, 7, 9), (2,)]
    sol = Solution(join_routes(routes), (0.0, 10.0, 1e4))
    walk, walked = RouteEvaluator.walk, []

    def counted(self, state, tasks, trail=None):
        walked.append(tuple(tasks))
        return walk(self, state, tasks, trail)

    monkeypatch.setattr(RouteEvaluator, "walk", counted)
    for check in (evaluate_solution, format_solution, check_feasibility):
        walked.clear()
        check(sol, inst, sp)
        assert walked == [(), *routes], check  # the evaluator's empty route, then each route


# Plans of the search before it used walk() (gdb1, generator seed 3 for
# 3LP; 6 generations, pls 0.3): seed, cost, sha1 of repr(trace), plan.
GOLDEN = {
    "gdb1": [
        (0, 320.0, "d67253206614146b",
         (0, 9, 29, 6, 0, 15, 41, 38, 31, 0, 36, 33, 39, 44, 8, 0, 3, 20, 17, 21,
          25, 0, 1, 11, 27, 24, 14, 0)),
        (1, 320.0, "6f36e529fcfc5db0",
         (0, 9, 32, 29, 6, 0, 26, 20, 17, 12, 0, 36, 33, 37, 42, 16, 0, 3, 21,
          27, 44, 8, 0, 1, 13, 23, 40, 0)),
        (2, 320.0, "6f36e529fcfc5db0",
         (0, 3, 21, 27, 44, 8, 0, 13, 17, 23, 40, 35, 0, 9, 32, 29, 6, 0, 1, 11,
          19, 25, 0, 15, 41, 38, 34, 0)),
    ],
    "gdb1-3lp-k2.0": [
        (0, 2602.507134698427, "01731b1748481615",
         (0, 7, 9, 12, 31, 0, 13, 29, 35, 38, 17, 0, 16, 41, 19, 33, 4, 0, 1, 21,
          27, 25, 44, 0, 39, 24, 6, 0)),
        (1, 2562.3726289908786, "ab9f9c0651b061a8",
         (0, 7, 10, 12, 21, 17, 0, 16, 41, 20, 27, 4, 0, 1, 31, 34, 26, 44, 0, 14,
          23, 37, 0, 39, 5, 30, 35, 0)),
        (2, 2592.4960231910727, "202f05760a3414d9",
         (0, 15, 17, 19, 26, 44, 0, 40, 6, 29, 0, 7, 9, 22, 42, 34, 0, 2, 32, 11,
          28, 4, 0, 13, 23, 35, 37, 0)),
    ],
}


@pytest.mark.parametrize("name,seed,cost,trace_sha,plan", [
    (name, *row) for name, rows in GOLDEN.items() for row in rows
])
def test_pinned_plans(name, seed, cost, trace_sha, plan):
    inst, sp, _ = CASES[name]
    res = evolve(inst, sp, MaensParams(generations=6, pls=0.3, seed=seed))
    assert res.plan == plan
    assert res.total_cost == cost
    assert hashlib.sha1(repr(res.trace).encode()).hexdigest()[:16] == trace_sha


def _long_route_instance():
    """Generated CARP DAT instance: 22 tasks, two routes of 10-12 tasks."""
    f = random_static_file(rng_for(7), n_vertices=12, n_extra_edges=12,
                           n_required=22, capacity=27.0, name="long")
    inst = instance_io.carp_to_instance(f)
    return inst, shortest_paths(inst)


# Local search on every offspring (pls 1.0, 4 generations) exercises the
# move scans and merge-split; pinned from the code that still had two
# path-scanning builders and two insertion scans: seed, cost, sha1 of
# repr(trace), plan.
LS_GOLDEN = {
    "long": [
        (0, 139.0, "4a376c664dbd8a35",
         (0, 22, 7, 20, 40, 31, 25, 44, 30, 41, 24, 35, 3, 0, 9, 6, 34, 18, 2, 16,
          12, 27, 14, 37, 0)),
        (1, 139.0, "4a376c664dbd8a35",
         (0, 16, 19, 8, 1, 24, 35, 29, 43, 26, 13, 28, 3, 0, 9, 6, 34, 12, 41, 32,
          39, 18, 37, 21, 0)),
    ],
    "gdb1-3lp-k2.0": [
        (0, 2538.1997802479937, "651819b1fa4aa2a8",
         (0, 39, 24, 6, 0, 7, 10, 12, 21, 17, 0, 15, 41, 19, 28, 4, 0, 1, 31, 34,
          26, 44, 0, 14, 29, 35, 37, 0)),
        (1, 2604.4548145338113, "95164ae2ca1f4816",
         (0, 7, 9, 36, 0, 39, 24, 29, 6, 0, 14, 37, 18, 33, 44, 0, 2, 31, 21, 27,
          25, 0, 16, 11, 42, 20, 4, 0)),
    ],
}


@pytest.mark.parametrize("name,seed,cost,trace_sha,plan", [
    (name, *row) for name, rows in LS_GOLDEN.items() for row in rows
])
def test_pinned_local_search_plans(name, seed, cost, trace_sha, plan):
    inst, sp = _long_route_instance() if name == "long" else CASES[name][:2]
    res = evolve(inst, sp, MaensParams(generations=4, pls=1.0, seed=seed))
    assert res.plan == plan
    assert res.total_cost == cost
    assert hashlib.sha1(repr(res.trace).encode()).hexdigest()[:16] == trace_sha


# Plans on a long-route CARP file written by the benchmark's long-routes
# generator (instance seed 0: 60 tasks, 12-18 per route, integer costs,
# so many insertion candidates tie), pinned from the code that walked
# every insertion candidate: generations, pls, seed, cost, sha1 of
# repr(trace), plan.
LONG_ROUTE_GOLDEN = [
    (10, 0.0, 0, 744.0, "29a309083ec5e759",
     (0, 35, 105, 104, 39, 21, 18, 15, 44, 2, 117, 20, 47, 38, 51, 0, 33, 63, 77,
      102, 5, 86, 12, 66, 57, 25, 7, 76, 73, 56, 115, 120, 42, 32, 0, 71, 107, 24,
      94, 59, 100, 70, 29, 112, 27, 54, 109, 0, 49, 92, 3, 113, 84, 89, 88, 68, 45,
      96, 97, 9, 14, 79, 82, 61, 0)),
    (10, 0.0, 1, 735.0, "702919a1d2ce0363",
     (0, 71, 61, 101, 55, 68, 45, 86, 44, 2, 75, 81, 114, 4, 91, 50, 0, 35, 105,
      104, 11, 9, 14, 73, 24, 8, 26, 117, 119, 60, 93, 80, 108, 5, 0, 33, 31, 70,
      29, 40, 28, 111, 21, 18, 41, 20, 89, 88, 63, 77, 0, 66, 57, 54, 109, 52, 37,
      48, 83, 95, 98, 16, 99, 116, 0)),
    (10, 0.0, 2, 705.0, "a20e8d6407a48164",
     (0, 49, 92, 77, 102, 5, 96, 26, 1, 43, 85, 109, 52, 37, 29, 21, 0, 35, 105, 66,
      57, 117, 119, 116, 55, 24, 76, 73, 68, 45, 53, 0, 71, 107, 79, 84, 19, 42, 17,
      32, 87, 90, 47, 69, 112, 27, 0, 33, 63, 3, 113, 82, 94, 59, 100, 15, 12, 103,
      39, 9, 14, 8, 97, 62, 0)),
]


@pytest.mark.parametrize("generations,pls,seed,cost,trace_sha,plan", LONG_ROUTE_GOLDEN)
def test_pinned_long_route_plans(generations, pls, seed, cost, trace_sha, plan):
    _, inst = instance_io.parse_carp((DATA / "long-routes-0.dat").read_text())
    params = MaensParams(generations=generations, pls=pls, seed=seed)
    res = evolve(inst, shortest_paths(inst), params)
    assert res.plan == plan
    assert res.total_cost == cost
    assert hashlib.sha1(repr(res.trace).encode()).hexdigest()[:16] == trace_sha
