"""Finite-backplane star network: relaxing "never a bottleneck"."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.kernel import Kernel
from repro.errors import ConfigurationError
from repro.netmodel.backplane import BackplaneStarNetwork
from repro.netmodel.params import NetworkParams
from repro.netmodel.star import EqualShareStarNetwork

B = 1e6


def make(kernel, capacity=math.inf, latency=0.0, bandwidth=B):
    return BackplaneStarNetwork(
        kernel,
        NetworkParams(latency=latency, bandwidth=bandwidth),
        capacity=capacity,
    )


def test_infinite_capacity_matches_paper_model():
    """With capacity = inf the model must equal the paper's star exactly."""
    for model_cls in (None,):
        times = {}
        for name, build in (
            ("star", lambda k: EqualShareStarNetwork(
                k, NetworkParams(latency=1e-4, bandwidth=B))),
            ("backplane", lambda k: BackplaneStarNetwork(
                k, NetworkParams(latency=1e-4, bandwidth=B))),
        ):
            kernel = Kernel()
            net = build(kernel)
            done = []
            for (s, d, size) in [(0, 1, 1e6), (0, 2, 5e5), (3, 1, 2e5)]:
                net.submit(s, d, size, lambda tr: done.append(kernel.now))
            kernel.run()
            times[name] = sorted(done)
        assert times["star"] == pytest.approx(times["backplane"])


def test_single_transfer_unaffected_by_ample_capacity(kernel):
    net = make(kernel, capacity=10 * B, latency=1e-3)
    done = []
    net.submit(0, 1, 5e5, lambda tr: done.append(kernel.now))
    kernel.run()
    assert done == [pytest.approx(1e-3 + 0.5)]


def test_saturated_fabric_scales_all_transfers(kernel):
    """Two disjoint pairs want 2B total; a fabric of B halves both rates."""
    net = make(kernel, capacity=B)
    done = {}
    net.submit(0, 1, 1e6, lambda tr: done.setdefault("a", kernel.now))
    net.submit(2, 3, 1e6, lambda tr: done.setdefault("b", kernel.now))
    kernel.run()
    # Unconstrained each would take 1 s; the shared fabric doubles it.
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(2.0)


def test_fabric_never_exceeded(kernel):
    net = make(kernel, capacity=1.5 * B)
    for i in range(4):
        net.submit(i, (i + 1) % 4 + 4, 1e6, lambda tr: None)
    # Inspect rates right after admission.
    loads = []

    def probe():
        loads.append(net.fabric_load())

    kernel.schedule_at(0.1, probe)
    kernel.run()
    assert loads and loads[0] <= 1.0 + 1e-9


def test_capacity_one_link_serializes_disjoint_pairs(kernel):
    """An extreme fabric (one link's worth) makes 4 pairs take 4x."""
    net = make(kernel, capacity=B)
    done = []
    for i in range(4):
        net.submit(2 * i, 2 * i + 1, 1e6, lambda tr: done.append(kernel.now))
    kernel.run()
    assert done[-1] == pytest.approx(4.0)


def test_invalid_capacity_rejected(kernel):
    with pytest.raises(ConfigurationError):
        make(kernel, capacity=0.0)
    with pytest.raises(ConfigurationError):
        make(kernel, capacity=-1.0)


def test_nonblocking_fabric_is_no_bottleneck():
    """Oversubscription 1:1 (8 links at line rate on 8 nodes) carries all
    one-directional traffic."""
    kernel = Kernel()
    net = make(kernel, capacity=8 * B)
    done = []
    for i in range(4):
        net.submit(i, i + 4, 1e6, lambda tr: done.append(kernel.now))
    kernel.run()
    assert all(t == pytest.approx(1.0) for t in done)


@given(
    st.floats(min_value=0.25, max_value=8.0),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_more_capacity_never_slower(ratio, pairs):
    """Monotonicity: adding fabric capacity cannot delay any transfer."""

    def finish_time(capacity):
        kernel = Kernel()
        net = make(kernel, capacity=capacity)
        done = []
        for i in range(pairs):
            net.submit(2 * i, 2 * i + 1, 1e6, lambda tr: done.append(kernel.now))
        kernel.run()
        return max(done)

    tight = finish_time(ratio * B)
    loose = finish_time(2 * ratio * B)
    assert loose <= tight + 1e-9
