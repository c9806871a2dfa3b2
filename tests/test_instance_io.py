import hashlib
import math

import pytest

from carptdsc import (
    Family,
    apply_annotation,
    classify,
    generate_td,
    parse_carp,
    parse_solomon,
    read_annotation,
    serialize_annotation,
    shortest_paths,
)
from carptdsc.instance_io import ParseError


def test_gdb1_parse_counts(gdb1_text):
    f, inst = parse_carp(gdb1_text)
    assert f.vertices == 12
    assert len(f.required_edges) == 22
    assert inst.num_required == 22
    assert len(inst.tasks) == 44
    assert inst.capacity == 5.0
    assert math.isinf(inst.horizon)


def test_gdb1_inverse_pairing(gdb1_text):
    _, inst = parse_carp(gdb1_text)
    for r in range(22):
        fwd, rev = inst.tasks[2 * r + 1], inst.tasks[2 * r + 2]
        assert fwd.inverse_id == rev.id and rev.inverse_id == fwd.id
        assert fwd.arc.tail == rev.arc.head and fwd.arc.head == rev.arc.tail
        assert fwd.arc.travel_cost == rev.arc.travel_cost
        assert fwd.cost_fn == rev.cost_fn
        assert fwd.demand == rev.demand


def test_carp_header_count_mismatch(gdb1_text):
    bad = gdb1_text.replace("REQUIRED_EDGES : 22", "REQUIRED_EDGES : 5")
    with pytest.raises(ParseError, match="5 required edges"):
        parse_carp(bad)


def test_carp_non_numeric_field(gdb1_text):
    bad = gdb1_text.replace("cost 13", "cost thirteen")
    with pytest.raises(ParseError):
        parse_carp(bad)


def test_carp_missing_depot(gdb1_text):
    bad = gdb1_text.replace("DEPOT : 1\n", "")
    with pytest.raises(ParseError, match="DEPOT"):
        parse_carp(bad)


def test_carp_cost_equals_time(gdb1_text):
    _, inst = parse_carp(gdb1_text)
    for arc in inst.arcs:
        assert arc.travel_time == arc.travel_cost


def test_solomon_parse_counts(r101_text):
    inst = parse_solomon(r101_text)
    assert len(inst.tasks) == 25
    assert inst.capacity == 200.0
    assert inst.horizon == 230.0


def test_solomon_truncation(r101_text):
    inst = parse_solomon(r101_text, max_customers=10)
    assert len(inst.tasks) == 10


@pytest.mark.parametrize("count", [-1, -5])
def test_solomon_rejects_a_negative_truncation(r101_text, count):
    # rows[:count + 1] would slice from the end: -1 keeps no customer, -5 keeps 21
    with pytest.raises(ParseError, match=f"max_customers must be non-negative, got {count}$"):
        parse_solomon(r101_text, max_customers=count)


def test_solomon_window_mapping(r101_text):
    inst = parse_solomon(r101_text)
    # customer 1: window [161, 171], service 10, slope 1
    fn = inst.tasks[1].cost_fn
    assert (fn.c_min, fn.bt, fn.et, fn.k) == (10.0, 161.0, 171.0, 1.0)
    task = inst.tasks[1]
    assert task.arc.tail == task.arc.head  # degenerate node-task
    assert task.inverse_id is None
    assert task.demand == 10.0


def test_solomon_euclidean_deadheads(r101_text):
    inst = parse_solomon(r101_text)
    sp = shortest_paths(inst)
    # depot (35,35) to customer 2 (35,17): distance 18, full precision
    assert (sp.time[0, 2], sp.cost[0, 2]) == (18.0, 18.0)
    d01 = math.dist((35.0, 35.0), (41.0, 49.0))
    assert (sp.time[0, 1], sp.cost[0, 1]) == (d01, d01)


def test_solomon_classification(r101_text):
    inst = parse_solomon(r101_text)
    kind = classify(inst)
    assert kind.family is Family.THREE_SEGMENT
    assert kind.k == 1.0


def test_solomon_malformed_row(r101_text):
    bad = r101_text.replace(
        "    5      15         30         26         34         44         10",
        "    5      15         30         26         34",
    )
    with pytest.raises(ParseError):
        parse_solomon(bad)


def test_generate_2lp(gdb1_text):
    _, inst = parse_carp(gdb1_text)
    inst2, ann = generate_td(inst, "2lp", (), seed=5)
    assert ann.family == "2lp" and ann.k == 1.0
    assert len(ann.records) == 44
    for tid in inst2.real_task_ids:
        fn = inst2.tasks[tid].cost_fn
        assert fn.bt == 0.0 and fn.et == 0.0 and fn.k == 1.0
        assert fn.c_min == inst.tasks[tid].cost_fn.c_min
    assert math.isfinite(inst2.horizon) and inst2.horizon > 0


def test_generate_rejects_a_negative_seed(gdb1_text):
    _, inst = parse_carp(gdb1_text)
    for family in ("2lp", "3lp"):
        with pytest.raises(ValueError, match="generator seed must be non-negative, got -1$"):
            generate_td(inst, family, (2.0,), seed=-1)


def test_generate_deterministic(gdb1_text):
    _, inst = parse_carp(gdb1_text)
    a = generate_td(inst, "3lp", (0.5, 2.0), seed=9)[1]
    b = generate_td(inst, "3lp", (0.5, 2.0), seed=9)[1]
    assert serialize_annotation(a) == serialize_annotation(b)
    c = generate_td(inst, "3lp", (0.5, 2.0), seed=10)[1]
    assert serialize_annotation(a) != serialize_annotation(c)


def test_generate_3lp_placement_rule(gdb1_text):
    """Windows recomputed independently from the seed must match."""
    import numpy as np
    from carptdsc import init_individual
    from carptdsc.solution import RouteEvaluator, split_routes

    _, inst = parse_carp(gdb1_text)
    seed = 13
    inst3, ann = generate_td(inst, "3lp", (2.0,), seed=seed)
    assert ann.k == 2.0

    # independent replay of the documented generator procedure
    rng = np.random.Generator(np.random.PCG64(seed))
    sp = shortest_paths(inst)
    plan = init_individual(inst, sp, rng)
    ev = RouteEvaluator(inst, sp)
    horizon = 2.0 * sum(ev.total(r, 0.0) for r in split_routes(plan))
    assert ann.horizon == horizon
    k = float(rng.choice(sorted((2.0,))))
    roots = sorted({inst.pair_root(t) for t in inst.real_task_ids})
    expected = {}
    for root in roots:
        st = inst.tasks[root].cost_fn.c_min
        mid = rng.uniform(0.1 * horizon, 0.9 * horizon)
        width = rng.uniform(st, 3.0 * st)
        bt = max(0.0, mid - width / 2.0)
        expected[root] = (bt, bt + width)
    for tid, c_min, bt, et in ann.records:
        want_bt, want_et = expected[inst.pair_root(tid)]
        assert (bt, et) == (want_bt, want_et)
        assert c_min == inst.tasks[tid].cost_fn.c_min
    mids = [(bt + et) / 2.0 for _, _, bt, et in ann.records]
    assert min(mids) >= 0.0 and max(mids) <= 0.95 * horizon


def test_generate_3lp_covers_tasks_once(gdb1_text):
    _, inst = parse_carp(gdb1_text)
    _, ann = generate_td(inst, "3lp", (0.3, 3.0), seed=2)
    ids = [r[0] for r in ann.records]
    assert sorted(ids) == list(inst.real_task_ids)


def test_generate_empty_slope_set(gdb1_text):
    _, inst = parse_carp(gdb1_text)
    with pytest.raises(ValueError, match="slope set"):
        generate_td(inst, "3lp", (), seed=1)


def test_annotation_roundtrip(gdb1_text):
    _, inst = parse_carp(gdb1_text)
    _, ann = generate_td(inst, "3lp", (0.3, 0.5, 1.0, 2.0, 3.0), seed=77)
    assert read_annotation(serialize_annotation(ann)) == ann


def test_annotation_version_tag(gdb1_text):
    with pytest.raises(ParseError, match="format tag"):
        read_annotation("family : 3lp\n")



def _pinned_view(inst):
    """Plain header fields, then a digest of repr(arcs) and repr of the tasks by ID."""
    body = repr((inst.arcs, [inst.tasks[tid] for tid in inst.real_task_ids]))
    return (inst.name, inst.num_vertices, inst.depot, inst.capacity, inst.horizon,
            len(inst.arcs), inst.real_task_ids,
            hashlib.sha256(body.encode()).hexdigest()[:16])


def _annotated_gdb1(gdb1_text, r101_text):
    _, static = parse_carp(gdb1_text)
    _, ann = generate_td(static, "3lp", (0.3, 0.5, 1.0, 2.0, 3.0), seed=4)
    return apply_annotation(static, read_annotation(serialize_annotation(ann)))


# The parsed instances of the two-step Solomon parser, whose task map also
# held a depot entry 0: name (none for Solomon files, which bench names by
# file stem), vertices, depot, capacity, horizon, arc count,
# task IDs, digest
PINNED_INSTANCES = [
    (lambda g, r: parse_carp(g)[1],
     ("gdb1", 12, 0, 5.0, math.inf, 44, tuple(range(1, 45)), "826add7110b559b4")),
    (lambda g, r: parse_solomon(r),
     ("", 26, 0, 200.0, 230.0, 650, tuple(range(1, 26)), "e679be44d8babf8b")),
    (lambda g, r: parse_solomon(r, max_customers=10),
     ("", 11, 0, 200.0, 230.0, 110, tuple(range(1, 11)), "3e2da12032c9db7a")),
    (_annotated_gdb1,
     ("gdb1", 12, 0, 5.0, 796.0, 44, tuple(range(1, 45)), "a00481f65f9f341b")),
]


@pytest.mark.parametrize("build,want", PINNED_INSTANCES,
                         ids=["gdb1", "r101_25", "r101_25-10", "gdb1-3lp-annotated"])
def test_pinned_parsed_instances(gdb1_text, r101_text, build, want):
    assert _pinned_view(build(gdb1_text, r101_text)) == want
