"""The stage-2 kernels: ``ncs``, ``RouteEvaluator.departure_cost``, ``profile``
and the seed mixer.

``ncs`` keeps one step size for all processes, draws the normal variates
of each adaptation period in one call and takes each distance from the
nearest other mean; it must return what the per-process search with
pairwise Bhattacharyya distances in ``oracles.reference_ncs`` returns,
with the same number of evaluations, bit for bit.  ``departure_cost`` and
``total`` must equal the pass that looks every leg up as it is reached,
``profile`` must equal the scalar forward pass at every departure time,
and the departures of pinned construction plans must not move.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carptdsc import (
    NcsParams,
    RouteEvaluator,
    ScalarObjective,
    instance_io,
    ncs,
    optimize_departures,
    shortest_paths,
    split_routes,
)
from carptdsc.maens import _stream, mix_seed

from conftest import DATA
from oracles import reference_ncs, reference_total


def _cases():
    _, static = instance_io.parse_carp((DATA / "gdb1.dat").read_text())
    out = {}
    for k in (1.0, 1.5, 2.0, 3.0):
        inst, _ = instance_io.generate_td(static, "3lp", (k,), 3)
        sp = shortest_paths(inst)
        out[k] = (inst, sp, RouteEvaluator(inst, sp))
    return out


CASES = _cases()


@st.composite
def _route(draw, inst, max_size=10):
    roots = sorted({inst.pair_root(t) for t in inst.real_task_ids})
    picked = draw(st.lists(st.sampled_from(roots), min_size=1, max_size=max_size, unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(picked), max_size=len(picked)))
    return tuple(
        inst.tasks[r].inverse_id if flip and inst.tasks[r].inverse_id is not None else r
        for r, flip in zip(picked, flips)
    )


@st.composite
def _ncs_case(draw):
    k = draw(st.sampled_from([1.5, 2.0, 3.0]))
    inst, _, ev = CASES[k]
    route = draw(_route(inst))
    nproc = draw(st.integers(2, 12))
    # below the process count, a multiple of it, or anything up to 40 epochs
    budget = draw(st.one_of(
        st.integers(1, nproc),
        st.integers(2, 40).map(lambda e: e * nproc),
        st.integers(nproc + 1, 40 * nproc),
    ))
    params = NcsParams(process_count=nproc, budget=budget, seed=draw(st.integers(0, 2**48)))
    return inst, ev, route, params


def _objective(ev, route):
    return ScalarObjective(lambda t: ev.total(route, t))


@settings(max_examples=150, deadline=None)
@given(_ncs_case())
def test_ncs_matches_reference_bit_for_bit(case):
    inst, ev, route, params = case
    got_obj, want_obj = _objective(ev, route), _objective(ev, route)
    got = ncs(got_obj, 0.0, inst.horizon, params)
    want = reference_ncs(want_obj, 0.0, inst.horizon, params)
    assert repr(got) == repr(want)
    assert got_obj.evaluations == want_obj.evaluations == params.budget


# one adaptation period of 10 processes draws 2 * 10 * 10 normals: budgets
# that end just before, at and just after the first epochs and periods
@pytest.mark.parametrize("nproc,budget", [
    *((10, b) for b in (10, 11, 109, 110, 111, 210, 2000, 2001)), (3, 31)])
def test_ncs_across_its_draw_blocks_matches_reference(nproc, budget):
    inst, _, ev = CASES[2.0]
    plan, _ = GOLDEN_DEPARTURES[(2.0, 0)]
    route = split_routes(plan)[0]
    params = NcsParams(process_count=nproc, budget=budget, seed=budget)
    got_obj, want_obj = _objective(ev, route), _objective(ev, route)
    got = ncs(got_obj, 0.0, inst.horizon, params)
    want = reference_ncs(want_obj, 0.0, inst.horizon, params)
    assert repr(got) == repr(want)
    assert got_obj.evaluations == want_obj.evaluations == budget


class _CountingObjective(ScalarObjective):
    """Objective that also counts evaluations exactly at one point."""

    def __init__(self, fn, at):
        self.hits = 0

        def counted(t):
            self.hits += t == at
            return fn(t)

        super().__init__(counted)


@pytest.mark.parametrize("edge", ["lo", "hi"])
@pytest.mark.parametrize("nproc,budget,seed", [(2, 200, 0), (5, 301, 1), (10, 2000, 2), (12, 600, 3)])
def test_ncs_with_duplicate_means_matches_reference(edge, nproc, budget, seed):
    # the minimum sits at an end of the interval, so proposals clamped to
    # it are accepted and several processes share that mean exactly: the
    # nearest-mean scan must skip the proposal's own parent and no other
    lo, hi = 0.0, 728.0
    end = lo if edge == "lo" else hi
    params = NcsParams(process_count=nproc, budget=budget, seed=seed)
    got_obj = _CountingObjective(lambda t: abs(t - end), end)
    want_obj = _CountingObjective(lambda t: abs(t - end), end)
    got = ncs(got_obj, lo, hi, params)
    want = reference_ncs(want_obj, lo, hi, params)
    assert repr(got) == repr(want) == repr((end, 0.0))
    assert got_obj.evaluations == want_obj.evaluations == budget
    # the reference prices every proposal clamped to the end, ncs only the first
    assert want_obj.hits >= 2 * nproc
    assert got_obj.hits == 1


def test_ncs_prices_each_end_of_a_route_once():
    # proposals clamped to 0 or H reuse the cost there: fewer calls of fn
    # than counted evaluations, and the same result as the reference, which
    # prices every proposal
    inst, _, ev = CASES[2.0]
    plan, _ = GOLDEN_DEPARTURES[(2.0, 0)]
    for seed, route in enumerate(split_routes(plan)):
        calls = []
        got_obj = ScalarObjective(lambda t: calls.append(t) or ev.total(route, t))
        want_obj = _objective(ev, route)
        params = NcsParams(seed=seed)
        got = ncs(got_obj, 0.0, inst.horizon, params)
        want = reference_ncs(want_obj, 0.0, inst.horizon, params)
        assert repr(got) == repr(want)
        assert got_obj.evaluations == want_obj.evaluations == params.budget
        assert calls.count(0.0) <= 1 and calls.count(inst.horizon) <= 1
        assert len(calls) < got_obj.evaluations


def _sweep_points(inst, ev, route):
    """0, H, every window end, and each shifted by its task's arrival offset at departure 0."""
    horizon = inst.horizon
    arrivals = ev.evaluate(route, 0.0).arrival_times[1:-1]
    points = [0.0, horizon]
    for tid, arrival in zip(route, arrivals):
        for edge in ev.rows[tid][3:5]:
            points += [edge, edge - arrival]
    return np.array([min(horizon, max(0.0, t)) for t in points])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CASES)).flatmap(
    lambda k: st.tuples(st.just(k), _route(CASES[k][0], max_size=22))),
    st.lists(st.floats(0.0, 1.0), max_size=20))
def test_profile_matches_total_bit_for_bit(k_route, fractions):
    k, route = k_route
    inst, _, ev = CASES[k]
    ts = np.concatenate([_sweep_points(inst, ev, route), inst.horizon * np.array(fractions)])
    got = ev.profile(route, ts)
    assert [x.hex() for x in got.tolist()] == [ev.total(route, t).hex() for t in ts.tolist()]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CASES)).flatmap(
    lambda k: st.tuples(st.just(k), _route(CASES[k][0], max_size=22))),
    st.floats(0.0, 1.0))
def test_departure_cost_matches_the_reference_pass_bit_for_bit(k_route, fraction):
    k, route = k_route
    inst, _, ev = CASES[k]
    horizon = inst.horizon
    cost = ev.departure_cost(route)
    for t in (0.0, horizon, fraction * horizon, 1.5 * horizon, float("inf")):
        want = reference_total(ev, route, t).hex()
        assert cost(t).hex() == ev.total(route, t).hex() == want


def test_profile_leaves_its_input_alone():
    inst, _, ev = CASES[2.0]
    ts = np.linspace(0.0, inst.horizon, 7)
    before = ts.copy()
    ev.profile((1, 2, 3), ts)
    assert np.array_equal(ts, before)


# Departures of the search before it shared one step size (gdb1 3LP,
# generator seed 3, seed=s) for the plans init_individual
# built from rng_for(s).
GOLDEN_DEPARTURES = {
    (1.0, 0): (
        (0, 7, 38, 34, 6, 9, 0, 3, 21, 27, 44, 42, 0, 1, 11, 19, 25, 31, 0, 36, 30, 39, 24, 18, 0, 13, 15, 0),
        ["0x1.24185f0787346p+8", "0x1.1909fdd86add6p+9", "0x1.74b8ca0906366p+8",
         "0x1.73dff69903ab4p+8", "0x1.86330c2898876p+7"],
    ),
    (1.0, 1): (
        (0, 7, 43, 28, 25, 29, 0, 3, 21, 20, 17, 14, 0, 9, 36, 6, 1, 11, 0, 32, 33, 37, 42, 16, 0, 23, 40, 0),
        ["0x1.541b90929c628p+8", "0x1.1909fdd86add6p+9", "0x1.49aaeab0f2416p+8",
         "0x1.fe07d87d00a80p+8", "0x1.1227eca2d438ep+8"],
    ),
    (2.0, 0): (
        (0, 7, 38, 34, 6, 9, 0, 3, 21, 27, 40, 43, 0, 1, 11, 19, 25, 31, 0, 36, 30, 24, 14, 15, 0, 41, 17, 0),
        ["0x1.421057b4bcb28p+7", "0x1.1934eacb79ef9p+9", "0x1.450e91cc16950p+8",
         "0x1.740bfc040c186p+8", "0x1.d513b26389683p+8"],
    ),
    (2.0, 1): (
        (0, 7, 43, 24, 21, 20, 0, 3, 18, 12, 13, 25, 0, 9, 32, 29, 35, 1, 0, 5, 33, 37, 42, 16, 0, 27, 40, 0),
        ["0x1.07fec6563eec0p+8", "0x1.191b3fcb28103p+9", "0x1.5aa8905b8167dp+8",
         "0x1.a8de649151b15p+8", "0x1.0c0c1126f2d8ap+9"],
    ),
    (3.0, 0): (
        (0, 7, 38, 34, 6, 9, 0, 3, 21, 27, 40, 43, 0, 1, 11, 19, 25, 31, 0, 36, 30, 24, 14, 15, 0, 41, 17, 0),
        ["0x1.82be02652f748p+7", "0x1.19205b638d776p+9", "0x1.349cd23890393p+8",
         "0x1.7429d03da7ef8p+8", "0x1.d4e3377fe843cp+8"],
    ),
    (3.0, 1): (
        (0, 7, 43, 24, 21, 20, 0, 3, 18, 12, 13, 25, 0, 9, 32, 29, 35, 1, 0, 5, 33, 37, 42, 16, 0, 27, 40, 0),
        ["0x1.c3dbf83566c91p+7", "0x1.19946ee1339eap+9", "0x1.4bc9a75d5e20ap+8",
         "0x1.998ed2b806af8p+8", "0x1.0c10c0dcf5ed4p+9"],
    ),
}


@pytest.mark.parametrize("k,seed", sorted(GOLDEN_DEPARTURES))
def test_pinned_departures(k, seed):
    inst, sp, _ = CASES[k]
    plan, want = GOLDEN_DEPARTURES[(k, seed)]
    deps = optimize_departures(plan, inst, sp, seed=seed)
    assert [t.hex() for t in deps] == want


def test_mix_seed_pinned_values():
    # values of the two mixers this one replaced
    assert mix_seed(0, (1,)) == 2
    assert mix_seed(7, (3, 1, 4, 1, 5)) == 176038482333848
    assert mix_seed(2**40 + 5, range(1, 23)) == 63485180208272
    draws = [_stream(s, *ix).random().hex() for s, ix in [(0, (0, 0)), (100, (3, 7)), (2**33 + 1, (49, 29))]]
    assert draws == ["0x1.c198a6f5710a8p-4", "0x1.3f2e9b6eb22c8p-3", "0x1.dca47419faaf0p-4"]
