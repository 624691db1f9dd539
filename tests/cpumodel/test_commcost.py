"""Communication CPU-cost model."""

import pytest
from hypothesis import given, strategies as st

from repro.cpumodel.commcost import (
    CommCostModel,
    CommCostParams,
    FREE_COMMUNICATION,
)


def test_no_transfers_no_cost():
    m = CommCostModel()
    assert m.consumed_power(0, 0) == 0.0
    assert m.available_power(0, 0) == 1.0


def test_receive_costs_more_than_send():
    """Paper: receiving induces more interrupts and memory copies."""
    m = CommCostModel()
    assert m.consumed_power(1, 0) > m.consumed_power(0, 1)


def test_marginal_cost_decays():
    m = CommCostModel(CommCostParams(recv_fraction=0.1, marginal_decay=0.5, max_fraction=1.0))
    first = m.consumed_power(1, 0)
    second = m.consumed_power(2, 0) - m.consumed_power(1, 0)
    assert second < first
    assert second == pytest.approx(first * 0.5)


def test_saturation_cap():
    m = CommCostModel(CommCostParams(recv_fraction=0.3, marginal_decay=1.0, max_fraction=0.5))
    assert m.consumed_power(10, 10) == 0.5
    assert m.available_power(10, 10) == 0.5


def test_free_communication_preset():
    m = CommCostModel(FREE_COMMUNICATION)
    assert m.consumed_power(5, 5) == 0.0


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
def test_power_bounds(inc, out):
    m = CommCostModel()
    consumed = m.consumed_power(inc, out)
    assert 0.0 <= consumed <= m.params.max_fraction
    assert m.available_power(inc, out) == pytest.approx(1.0 - consumed)


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
def test_monotone_in_counts(inc, out):
    m = CommCostModel()
    assert m.consumed_power(inc + 1, out) >= m.consumed_power(inc, out)
    assert m.consumed_power(inc, out + 1) >= m.consumed_power(inc, out)


def test_params_validation():
    with pytest.raises(Exception):
        CommCostParams(recv_fraction=1.5)
    with pytest.raises(Exception):
        CommCostParams(marginal_decay=-0.1)


# ------------------------------------------------------------------ the memo


def _geometric(count: int, fraction: float, decay: float) -> float:
    if count == 0 or fraction == 0.0:
        return 0.0
    if decay == 1.0:
        return fraction * count
    return fraction * (1.0 - decay**count) / (1.0 - decay)


def _default_law(p: CommCostParams, i: int, o: int) -> float:
    cost = _geometric(i, p.recv_fraction, p.marginal_decay) + _geometric(
        o, p.send_fraction, p.marginal_decay
    )
    return 1.0 - min(p.max_fraction, cost)


def _convex_law(ts, i: int, o: int) -> float:
    cost = ts.recv_fraction * (i**ts.comm_superlinear) + ts.send_fraction * (
        o**ts.comm_superlinear
    )
    return 1.0 - min(0.58, cost)


@pytest.mark.parametrize("law", ["default", "convex"])
def test_memoized_power_is_bit_equal_to_the_closed_form(law):
    """``available_power`` computes each pair once; every pair in
    [0, 40]^2, read cold and warm, is the law's own float expression."""
    from repro.cpumodel.timeslice import TimesliceParams, _ConvexCommCost

    if law == "default":
        params = CommCostParams()
        model = CommCostModel(params)
        expected = lambda i, o: _default_law(params, i, o)  # noqa: E731
    else:
        ts = TimesliceParams()
        model = _ConvexCommCost(ts)
        expected = lambda i, o: _convex_law(ts, i, o)  # noqa: E731
    pairs = [(i, o) for i in range(41) for o in range(41)]
    for _ in range(2):
        for i, o in pairs:
            assert model.available_power(i, o) == expected(i, o), (i, o)
        pairs.reverse()


def test_params_are_read_only():
    """A params swap would leave the memo answering for the old law."""
    model = CommCostModel()
    with pytest.raises(AttributeError):
        model.params = FREE_COMMUNICATION
