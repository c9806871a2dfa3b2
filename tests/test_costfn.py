import math

import pytest
from hypothesis import given, strategies as st

from carptdsc import Family, ServiceCostFunction, classify
from carptdsc.costfn import HeterogeneousSlopeError

from conftest import make_fig4_instance, make_tie_instance, random_static_instance, rng_for
from carptdsc.instance_io import generate_td


F1 = ServiceCostFunction(1.0, 1.0, 3.0, 2.0)
F2 = ServiceCostFunction(1.0, 10.0, 12.0, 2.0)
F3 = ServiceCostFunction(1.0, 14.0, 16.0, 2.0)


def test_worked_values():
    assert F1.value(0.0) == 3.0          # (1-0)*2 + 1
    assert F2.value(3.0) == 15.0
    assert F3.value(18.0) == 5.0


def test_flat_segment_exact_at_breakpoints():
    f = ServiceCostFunction(2.5, 4.0, 7.0, 0.5)
    assert f.value(4.0) == 2.5
    assert f.value(7.0) == 2.5
    assert f.value(5.5) == 2.5


@pytest.mark.parametrize(
    "fn,t,want",
    [
        (ServiceCostFunction(1.0, 10.0, 12.0, 2.0), 3.0, 15.0),
        (ServiceCostFunction(1.0, 14.0, 16.0, 2.0), 18.0, 5.0),
        (ServiceCostFunction(1.0, 10.0, 12.0, 2.0), 12.0, 1.0),
        (ServiceCostFunction(1.0, 14.0, 16.0, 2.0), 12.0, 5.0),
        (ServiceCostFunction(1.0, 14.0, 16.0, 2.0), 13.0, 3.0),
        (ServiceCostFunction(1.0, 10.0, 12.0, 2.0), 17.0, 11.0),
    ],
)
def test_example_points(fn, t, want):
    assert fn.value(t) == want


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        F1.value(-0.1)


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        ServiceCostFunction(1.0, 5.0, 3.0, 1.0)   # bt > et
    with pytest.raises(ValueError):
        ServiceCostFunction(1.0, -1.0, 3.0, 1.0)  # bt < 0
    with pytest.raises(ValueError):
        ServiceCostFunction(-1.0)                  # negative minimum
    with pytest.raises(ValueError):
        ServiceCostFunction(1.0, 0.0, 0.0, -2.0)   # negative slope magnitude


@given(
    c=st.floats(0.0, 100.0),
    bt=st.floats(0.0, 50.0),
    width=st.floats(0.0, 50.0),
    k=st.floats(0.0, 5.0),
    t=st.floats(0.0, 200.0),
    delta=st.floats(1e-6, 10.0),
)
def test_lipschitz_and_floor(c, bt, width, k, t, delta):
    fn = ServiceCostFunction(c, bt, bt + width, k)
    v = fn.value(t)
    assert v >= c - 1e-12
    if bt <= t <= bt + width:
        assert v == c
    assert abs(fn.value(t + delta) - v) <= k * delta + 1e-9 * max(1.0, k * delta)


@given(
    c=st.floats(0.1, 100.0),
    k=st.floats(0.0, 5.0),
    t1=st.floats(0.0, 200.0),
    t2=st.floats(0.0, 200.0),
)
def test_two_segment_non_decreasing(c, k, t1, t2):
    fn = ServiceCostFunction(c, 0.0, 0.0, k)
    lo, hi = sorted((t1, t2))
    assert fn.value(lo) <= fn.value(hi) + 1e-12


def test_classify_two_segment():
    rng = rng_for(3)
    inst, _ = random_static_instance(rng)
    inst2, _ = generate_td(inst, "2lp", (), seed=1)
    kind = classify(inst2)
    assert kind.family is Family.TWO_SEGMENT
    assert kind.k == 1.0


def test_classify_three_segment_fig4(fig4):
    inst, _ = fig4
    kind = classify(inst)
    assert kind.family is Family.THREE_SEGMENT
    assert kind.k == 2.0


def test_classify_mixed_slopes_rejected():
    from carptdsc import Arc, Task, build_instance

    arcs = [Arc(1, 0, 1, 1, 1), Arc(2, 1, 0, 1, 1)]
    tasks = [
        Task(1, arcs[0], 1.0, ServiceCostFunction(1.0, 0.0, 0.0, 1.0)),
        Task(2, arcs[1], 1.0, ServiceCostFunction(1.0, 0.0, 0.0, 2.0)),
    ]
    inst = build_instance(2, arcs, tasks, 0, 5.0, 10.0)
    with pytest.raises(HeterogeneousSlopeError):
        classify(inst)


def test_classify_static_parse_is_two_segment_k0(gdb1_text):
    from carptdsc import parse_carp

    _, inst = parse_carp(gdb1_text)
    kind = classify(inst)
    assert kind.family is Family.TWO_SEGMENT
    assert kind.k == 0.0
