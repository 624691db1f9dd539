"""The numpy structure-of-arrays network backend vs the scalar reference.

The equivalence contract (docs/allocator_protocol.md): for any submission
sequence, an SoA model and its scalar twin produce completion times equal
within 1e-9 relative — the SoA engine solves the *same* max-min program
over parallel arrays, and ``verify_incremental=True`` shadows every solve
with the scalar reference solver in-process.

Also here: the PR 3 remainder regression — adding a flow to an
already-solved dense component warm-starts (``warm_starts`` rises,
``warm_inserts`` counts bounded insertions) instead of falling back to a
full solve (``full_fallbacks`` stays flat).
"""

import random

import pytest
from hypothesis import given, settings

np = pytest.importorskip("numpy")

from churn_driver import PARAMS, arrival_strategy, drive_network

from repro.des.kernel import Kernel
from repro.netmodel.maxmin import MaxMinStarNetwork
from repro.netmodel.packet import PacketNetwork
from repro.netmodel.params import NetworkParams
from repro.netmodel.soa import MaxMinStarNetworkSoA, PacketNetworkSoA


@settings(deadline=None, max_examples=40)
@given(arrival_strategy)
def test_maxmin_soa_shadow_verifies_every_solve(arrivals):
    """Random churn under the scalar-reference shadow: any rate diverging
    beyond 1e-9 relative raises inside the engine."""
    times, net = drive_network(
        lambda kernel: MaxMinStarNetworkSoA(kernel, PARAMS, verify_incremental=True),
        arrivals,
    )
    stats = net.allocator.stats
    assert stats.incremental_updates > 0
    assert stats.verify_recomputes > 0


@settings(deadline=None, max_examples=40)
@given(arrival_strategy)
def test_maxmin_soa_matches_scalar(arrivals):
    soa_times, _ = drive_network(
        lambda kernel: MaxMinStarNetworkSoA(kernel, PARAMS), arrivals
    )
    scalar_times, _ = drive_network(
        lambda kernel: MaxMinStarNetwork(kernel, PARAMS), arrivals
    )
    for a, b in zip(soa_times, scalar_times):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(arrival_strategy)
def test_packet_soa_matches_scalar_draw_for_draw(arrivals):
    """Same seed, same submission order — the SoA packet model replays the
    scalar model's jitter stream, so measurements are identical."""
    soa_times, _ = drive_network(
        lambda kernel: PacketNetworkSoA(kernel, PARAMS, seed=3), arrivals
    )
    scalar_times, _ = drive_network(
        lambda kernel: PacketNetwork(kernel, PARAMS, seed=3), arrivals
    )
    for a, b in zip(soa_times, scalar_times):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def _dense_churn(net, rng, nodes, flows):
    """Load ``flows`` random all-to-all transfers onto ``net``."""
    for _ in range(flows):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        net.submit(src, dst, rng.uniform(0.5e6, 1.5e6), lambda tr: None)


class TestWarmInsertRegression:
    """PR 3 remainder: a flow added to an already-solved dense component
    inserts into the cached saturation order instead of recomputing."""

    NODES = 8
    FLOWS = 40

    def test_scalar_added_flow_warm_starts(self):
        kernel = Kernel()
        net = MaxMinStarNetwork(kernel, NetworkParams(latency=0.0, bandwidth=1e6))
        rng = random.Random(5)
        _dense_churn(net, rng, self.NODES, self.FLOWS)
        stats = net.allocator.stats
        warm_before = stats.warm_starts
        fallbacks_before = stats.full_fallbacks
        # One more flow into the solved dense component: the warm path
        # must take it (possibly via bounded insertion of its link into
        # the cached saturation order), not a cold full solve.
        net.submit(0, 1, 1e6, lambda tr: None)
        assert stats.warm_starts == warm_before + 1
        assert stats.full_fallbacks == fallbacks_before
        kernel.run()
        assert stats.warm_inserts > 0

    def test_soa_added_flow_warm_starts(self):
        kernel = Kernel()
        net = MaxMinStarNetworkSoA(kernel, NetworkParams(latency=0.0, bandwidth=1e6))
        rng = random.Random(5)
        _dense_churn(net, rng, self.NODES, self.FLOWS)
        stats = net.allocator.stats
        warm_before = stats.warm_starts
        fallbacks_before = stats.full_fallbacks
        net.submit(0, 1, 1e6, lambda tr: None)
        assert stats.warm_starts == warm_before + 1
        assert stats.full_fallbacks == fallbacks_before
        kernel.run()
