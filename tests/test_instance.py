import hashlib
import math

import numpy as np
import pytest

from carptdsc import (
    Arc,
    InstanceError,
    ServiceCostFunction,
    Task,
    build_instance,
    parse_carp,
    shortest_paths,
)
from carptdsc.bench import load_instance_text

from conftest import DATA, random_static_instance, rng_for
from oracles import floyd_warshall


def two_vertex_instance(demand=3.0, capacity=5.0):
    arc = Arc(1, 0, 1, 2.0, 2.0)
    back = Arc(2, 1, 0, 2.0, 2.0)
    task = Task(1, arc, demand, ServiceCostFunction(2.0))
    return build_instance(2, [arc, back], [task], 0, capacity, 100.0)


def test_minimal_instance():
    inst = two_vertex_instance()
    assert set(inst.tasks) == {1}


def test_gdb1_task_count(gdb1_text):
    _, inst = parse_carp(gdb1_text)
    assert inst.num_required == 22
    assert len(inst.tasks) == 44


def test_duplicate_task_id_rejected():
    arc = Arc(1, 0, 1, 1, 1)
    fn = ServiceCostFunction(1.0)
    tasks = [Task(7, arc, 1.0, fn), Task(7, arc, 1.0, fn)]
    with pytest.raises(InstanceError, match="duplicate"):
        build_instance(2, [arc], tasks, 0, 5.0, 10.0)


def test_unservable_demand_rejected():
    with pytest.raises(InstanceError, match="exceeds capacity"):
        two_vertex_instance(demand=6.0, capacity=5.0)


def test_dangling_vertex_rejected():
    arc = Arc(1, 0, 5, 1, 1)
    with pytest.raises(InstanceError):
        build_instance(2, [arc], [], 0, 5.0, 10.0)


def test_asymmetric_inverse_rejected():
    a = Arc(1, 0, 1, 1, 1)
    b = Arc(2, 1, 0, 1, 1)
    fn = ServiceCostFunction(1.0)
    tasks = [Task(1, a, 1.0, fn, inverse_id=2), Task(2, b, 1.0, fn, inverse_id=None)]
    with pytest.raises(InstanceError, match="not symmetric"):
        build_instance(2, [a, b], tasks, 0, 5.0, 10.0)


def test_sp_self_distance_zero():
    rng = rng_for(11)
    inst, sp = random_static_instance(rng)
    for v in range(inst.num_vertices):
        assert sp.time[v, v] == 0.0
        assert sp.cost[v, v] == 0.0


def test_sp_single_arc():
    inst = two_vertex_instance()
    sp = shortest_paths(inst)
    assert (sp.time[0, 1], sp.cost[0, 1]) == (2.0, 2.0)


def test_sp_matches_floyd_warshall_oracle():
    for seed in range(5):
        rng = rng_for(100 + seed)
        inst, sp = random_static_instance(rng, n_vertices=8, n_extra_edges=8)
        t_oracle, c_oracle = floyd_warshall(inst)
        # same steps, same additions: equal bit for bit without infinite-time arcs
        assert np.array_equal(sp.time, np.array(t_oracle))
        assert np.array_equal(sp.cost, np.array(c_oracle))


def test_sp_equal_time_tie_goes_to_the_lower_cost():
    # 0 -> 2 directly, or through 1 in the same time at a lower cost
    direct = Arc(1, 0, 2, 4.0, 9.0)
    arcs = [direct, Arc(2, 0, 1, 1.0, 1.0), Arc(3, 1, 2, 3.0, 2.0), Arc(4, 2, 0, 4.0, 9.0)]
    task = Task(1, direct, 1.0, ServiceCostFunction(1.0))
    sp = shortest_paths(build_instance(3, arcs, [task], 0, 5.0, 10.0))
    assert (sp.time[0, 2], sp.cost[0, 2]) == (4.0, 3.0)


# SHA-256 of the time and cost matrices' bytes; every shipped file has time = cost
PINNED_SP_DIGESTS = {
    "gdb1.dat": "3236f4e5b57053006b3c8a46cb156b691536626450e232c076bd5686ddfcd400",
    "r101_25.txt": "b46c7265c438635e861093ca267efb445e6c48915e44c0ab1dd8696bde51c86f",
    "long-routes-0.dat": "941875d25070f8bfbc9096e2813d6bc49c3162b234975e4f3d5909e0bcad241f",
}


@pytest.mark.parametrize("filename", sorted(PINNED_SP_DIGESTS))
def test_sp_pinned_digests(filename):
    sp = shortest_paths(load_instance_text((DATA / filename).read_text()))
    digests = [hashlib.sha256(m.tobytes()).hexdigest() for m in (sp.time, sp.cost)]
    assert digests == [PINNED_SP_DIGESTS[filename]] * 2


def test_sp_triangle_inequality():
    rng = rng_for(21)
    inst, sp = random_static_instance(rng, n_vertices=9, n_extra_edges=10)
    n = inst.num_vertices
    samples = rng.integers(0, n, size=(300, 3))
    for a, b, c in samples:
        if math.isfinite(sp.time[a, b]) and math.isfinite(sp.time[b, c]):
            assert sp.time[a, c] <= sp.time[a, b] + sp.time[b, c] + 1e-9


def test_sp_unreachable_flagged():
    # one-way arc only: 1 cannot reach 0
    arc = Arc(1, 0, 1, 1, 1)
    task = Task(1, arc, 1.0, ServiceCostFunction(1.0))
    inst = build_instance(2, [arc], [task], 0, 5.0, 10.0)
    sp = shortest_paths(inst)
    assert math.isinf(sp.time[1, 0])


def test_sp_deterministic_rebuild():
    rng = rng_for(33)
    inst, _ = random_static_instance(rng)
    sp1 = shortest_paths(inst)
    sp2 = shortest_paths(inst)
    assert np.array_equal(sp1.time, sp2.time)
    assert np.array_equal(sp1.cost, sp2.cost)


def test_inverse_involution(gdb1_text):
    _, inst = parse_carp(gdb1_text)
    for tid in inst.real_task_ids:
        inv = inst.tasks[tid].inverse_id
        assert inv is not None
        assert inst.tasks[inv].inverse_id == tid


def test_inverse_one_way_none():
    inst = two_vertex_instance()
    assert inst.tasks[1].inverse_id is None
