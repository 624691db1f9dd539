"""Equal-share star network: the paper's contention model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.des.kernel import Kernel
from repro.errors import SimulationError
from repro.netmodel.base import Transfer
from repro.netmodel.params import NetworkParams
from repro.netmodel.star import (
    EqualShareStarNetwork,
    IncrementalEqualShareAllocator,
)


def make(kernel, latency=0.0, bandwidth=1e6):
    return EqualShareStarNetwork(
        kernel, NetworkParams(latency=latency, bandwidth=bandwidth)
    )


def test_single_transfer_is_l_plus_s_over_b(kernel):
    net = make(kernel, latency=1e-3, bandwidth=1e6)
    done = []
    net.submit(0, 1, 5e5, lambda tr: done.append(kernel.now))
    kernel.run()
    assert done == [pytest.approx(1e-3 + 0.5)]


def test_two_outgoing_transfers_share_egress(kernel):
    net = make(kernel, bandwidth=1e6)
    done = {}
    net.submit(0, 1, 1e6, lambda tr: done.setdefault("a", kernel.now))
    net.submit(0, 2, 1e6, lambda tr: done.setdefault("b", kernel.now))
    kernel.run()
    # Each gets half the egress: 2 s each, concurrent.
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(2.0)


def test_two_incoming_transfers_share_ingress(kernel):
    net = make(kernel, bandwidth=1e6)
    done = {}
    net.submit(1, 0, 1e6, lambda tr: done.setdefault("a", kernel.now))
    net.submit(2, 0, 1e6, lambda tr: done.setdefault("b", kernel.now))
    kernel.run()
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(2.0)


def test_disjoint_pairs_do_not_interact(kernel):
    net = make(kernel, bandwidth=1e6)
    done = {}
    net.submit(0, 1, 1e6, lambda tr: done.setdefault("a", kernel.now))
    net.submit(2, 3, 1e6, lambda tr: done.setdefault("b", kernel.now))
    kernel.run()
    assert done["a"] == pytest.approx(1.0)
    assert done["b"] == pytest.approx(1.0)


def test_equal_share_does_not_redistribute(kernel):
    """The paper's law: min(out share, in share), unused share wasted.

    Node 0 sends to nodes 1 and 2; node 1 also receives from node 3.
    Transfer 0->1 is limited by node 1's ingress share (B/2), and 0->2
    gets node 0's egress share (B/2) — NOT the leftover redistribution a
    max-min allocation would grant.
    """
    net = make(kernel, bandwidth=1e6)
    done = {}
    net.submit(0, 1, 1e6, lambda tr: done.setdefault("x01", kernel.now))
    net.submit(0, 2, 1e6, lambda tr: done.setdefault("x02", kernel.now))
    net.submit(3, 1, 1e6, lambda tr: done.setdefault("x31", kernel.now))
    kernel.run()
    # All three run at B/2 = 0.5 MB/s while coexisting -> 2 s each.
    assert done["x01"] == pytest.approx(2.0)
    assert done["x02"] == pytest.approx(2.0)
    assert done["x31"] == pytest.approx(2.0)


def test_latency_phase_holds_no_bandwidth(kernel):
    net = make(kernel, latency=1.0, bandwidth=1e6)
    done = {}
    net.submit(0, 1, 1e6, lambda tr: done.setdefault("a", kernel.now))
    # Second transfer submitted while the first is still in latency phase
    # finishes its latency later; both then share bandwidth.
    kernel.schedule_at(0.5, lambda: net.submit(0, 2, 1e6, lambda tr: done.setdefault("b", kernel.now)))
    kernel.run()
    # a drains alone during [1.0, 1.5] (0.5 MB), then shares. a has 0.5MB
    # left at 0.5 MB/s -> t=2.5. b: 1 MB at 0.5 until a done (0.5 done at
    # 2.5), then alone -> 3.0.
    assert done["a"] == pytest.approx(2.5)
    assert done["b"] == pytest.approx(3.0)


def test_self_transfer_rejected(kernel):
    net = make(kernel)
    with pytest.raises(SimulationError):
        net.submit(1, 1, 100.0, lambda tr: None)


def test_concurrency_counters_and_listener(kernel):
    net = make(kernel, bandwidth=1e6)
    changes = []
    net.add_listener(
        lambda nodes: changes.append((net.active_transfers(), nodes))
    )
    net.submit(0, 1, 1e6, lambda tr: None)
    assert net.concurrent_outgoing(0) == 1
    assert net.concurrent_incoming(1) == 1
    kernel.run()
    assert net.concurrent_outgoing(0) == 0
    assert net.completed_transfers == 1
    assert changes[0] == (1, (0, 1)) and changes[-1] == (0, (0, 1))


def test_draining_counts_updated_before_completion_callback(kernel):
    """Inside a transfer's completion callback the finished transfer must
    no longer be counted as draining (pre-incremental-engine semantics)."""
    net = make(kernel, bandwidth=1e6)
    seen = []
    net.submit(
        0, 1, 1e6,
        lambda tr: seen.append((net.draining_outgoing(0), net.draining_incoming(1))),
    )
    assert net.draining_outgoing(0) == 1
    kernel.run()
    assert seen == [(0, 0)]


def test_transfer_records_times(kernel):
    net = make(kernel, latency=0.5, bandwidth=1e6)
    transfers = []
    tr = net.submit(0, 1, 1e6, lambda t: transfers.append(t))
    kernel.run()
    assert tr.submitted_at == 0.0
    assert tr.completed_at == pytest.approx(1.5)
    assert tr.elapsed == pytest.approx(1.5)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=1.0, max_value=1e6),
        ).filter(lambda t: t[0] != t[1]),
        min_size=1,
        max_size=12,
    )
)
def test_all_transfers_complete_and_delivered_bytes_conserved(flows):
    kernel = Kernel()
    net = make(kernel, bandwidth=1e6)
    for src, dst, size in flows:
        net.submit(src, dst, size, lambda tr: None)
    kernel.run()
    assert net.completed_transfers == len(flows)
    assert net.delivered_bytes == pytest.approx(sum(s for _, _, s in flows))
    # No transfer can beat the uncontended bound or the serialized bound.
    total = sum(s for _, _, s in flows)
    assert kernel.now >= max(s for _, _, s in flows) / 1e6 - 1e-9
    assert kernel.now <= total / 1e6 * 2 + 1e-6 + total  # loose upper bound


class SetterEqualShareAllocator(IncrementalEqualShareAllocator):
    """The same law, each rate assigned through the ``FluidTask.rate``
    setter instead of the allocator's inlined copy of it."""

    def _update_rates(self, dirty, tasks):
        for task in dirty:
            task.rate = self._equal_share_rate(task)
        return len(dirty)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=1.0, max_value=1e6),
            st.floats(min_value=0.0, max_value=2.0),
        ).filter(lambda t: t[0] != t[1]),
        min_size=1,
        max_size=16,
    )
)
def test_inlined_rate_assignment_is_the_setter_bit_for_bit(flows):
    """Staggered arrivals re-rate draining flows mid-transfer: every
    completion time and every horizon counter must be the setter's."""

    def run(allocator_class):
        kernel = Kernel()
        net = make(kernel, bandwidth=1e6)
        net.allocator = net._pool.allocator = allocator_class(1e6)
        done = []
        for src, dst, size, at in flows:
            kernel.schedule_at(
                at, net.submit, src, dst, size,
                lambda tr: done.append((tr.transfer_id, tr.completed_at)),
            )
        kernel.run()
        order = sorted(done)
        first = order[0][0]
        horizon = net.horizon_stats
        return (
            [(i - first, t) for i, t in order],
            horizon.heap_ops,
            horizon.stale_discards,
            net.allocator.stats.rates_computed,
        )

    assert run(IncrementalEqualShareAllocator) == run(SetterEqualShareAllocator)
