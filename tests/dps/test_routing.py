"""Routing functions: range correctness and distribution."""

import pytest
from hypothesis import given, strategies as st

from repro.dps.data_objects import DataObject
from repro.dps.routing import (
    Broadcast,
    Constant,
    Modulo,
    RoundRobin,
)
from repro.errors import RoutingError


def obj(**meta):
    return DataObject("t", meta=meta)


def test_constant_clamps_into_group():
    assert Constant(5)(obj(), 3) == 2


def test_round_robin_cycles():
    rr = RoundRobin()
    assert [rr(obj(), 3) for _ in range(6)] == [0, 1, 2, 0, 1, 2]


def test_round_robin_instances_independent():
    a, b = RoundRobin(), RoundRobin()
    assert a(obj(), 4) == 0
    assert a(obj(), 4) == 1
    assert b(obj(), 4) == 0


def test_modulo_routes_by_meta():
    m = Modulo("col")
    assert m(obj(col=7), 4) == 3
    assert m(obj(col=7), 8) == 7


def test_modulo_offset():
    assert Modulo("col", offset=1)(obj(col=3), 4) == 0


def test_modulo_missing_key_raises():
    with pytest.raises(RoutingError):
        Modulo("col")(obj(), 4)


def test_empty_group_rejected():
    with pytest.raises(RoutingError):
        Constant(0)(obj(), 0)


def test_broadcast_route_not_directly_callable():
    with pytest.raises(RoutingError):
        Broadcast()(obj(), 4)


def test_out_of_range_detected():
    class Bad(Modulo):
        def route(self, obj, group_size):
            return group_size  # off by one

    with pytest.raises(RoutingError):
        Bad("col")(obj(col=1), 4)


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=1, max_value=64),
)
def test_modulo_always_in_range(value, group):
    assert 0 <= Modulo("col")(obj(col=value), group) < group


@given(st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=200))
def test_round_robin_is_balanced(group, count):
    rr = RoundRobin()
    hits = [0] * group
    for _ in range(count * group):
        hits[rr(obj(), group)] += 1
    assert max(hits) - min(hits) == 0
