"""Incremental allocation for the testbed/backplane network models.

Mirrors ``test_incremental.py`` for the two models that joined the
dirty-set protocol later: :class:`~repro.netmodel.packet.PacketNetwork`
(per-link contention components plus seeded throughput jitter) and
:class:`~repro.netmodel.backplane.BackplaneStarNetwork` (single-hop base
rates plus the shared-backplane scale factor).

* **shadow mode** — ``verify_incremental=True`` re-runs the full allocator
  after every incremental update and raises on any divergence beyond 1e-9
  relative;
* **end-to-end** — the same workload through a plain and a shadowed model
  must produce matching completion times (``churn_driver``).
"""

import math

import pytest
from churn_driver import (
    PARAMS,
    TIGHT_BACKPLANE,
    arrival_strategy,
    assert_matches_verify_run,
    drive_network,
)
from hypothesis import given, settings

from repro.des.kernel import Kernel
from repro.netmodel.backplane import BackplaneStarNetwork
from repro.netmodel.packet import PacketNetwork
from repro.netmodel.params import NetworkParams

try:
    import numpy  # noqa: F401
    HAS_NUMPY = True
except ImportError:
    HAS_NUMPY = False

requires_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="seeded noise streams need numpy"
)


@requires_numpy
@settings(deadline=None, max_examples=40)
@given(arrival_strategy)
def test_packet_incremental_matches_full_shadow(arrivals):
    times, net = drive_network(
        lambda kernel: PacketNetwork(kernel, PARAMS, seed=3, verify_incremental=True),
        arrivals,
    )
    assert net.allocator.stats.incremental_updates > 0
    assert net.allocator.stats.verify_recomputes > 0


@settings(deadline=None, max_examples=40)
@given(arrival_strategy)
def test_backplane_incremental_matches_full_shadow(arrivals):
    times, net = drive_network(
        lambda kernel: BackplaneStarNetwork(
            kernel, PARAMS, capacity=TIGHT_BACKPLANE, verify_incremental=True
        ),
        arrivals,
    )
    assert net.allocator.stats.incremental_updates > 0


@requires_numpy
@settings(deadline=None, max_examples=25)
@given(arrival_strategy)
def test_packet_incremental_end_to_end_equivalence(arrivals):
    """Completion times agree between incremental and full allocation (the
    seeded jitter draws are identical because submission order is)."""
    assert_matches_verify_run("packet", arrivals)


@settings(deadline=None, max_examples=25)
@given(arrival_strategy)
def test_backplane_incremental_end_to_end_equivalence(arrivals):
    assert_matches_verify_run("backplane", arrivals)


def test_backplane_uncongested_updates_touch_one_hop_only(kernel):
    """With an infinite fabric, disjoint flow pairs are singleton dirty
    sets: each arrival re-rates exactly one flow."""
    net = BackplaneStarNetwork(kernel, NetworkParams(latency=0.0, bandwidth=1e6))
    for i in range(8):
        net.submit(2 * i, 2 * i + 1, 1e6 * (i + 1), lambda tr: None)
    stats = net.allocator.stats
    assert stats.incremental_updates == 8
    assert stats.rates_computed == 8
    kernel.run()


def test_backplane_congestion_rerates_every_flow(kernel):
    """Once aggregate demand exceeds the fabric, the scale factor moves and
    the shared-backplane component — every flow — is re-rated."""
    net = BackplaneStarNetwork(
        kernel, NetworkParams(latency=0.0, bandwidth=1e6), capacity=1.5e6
    )
    net.submit(0, 1, 1e6, lambda tr: None)
    stats = net.allocator.stats
    assert stats.rates_computed == 1
    # The second disjoint pair pushes demand to 2 MB/s > 1.5 MB/s.
    net.submit(2, 3, 1e6, lambda tr: None)
    assert stats.rates_computed == 1 + 2
    kernel.run()


@requires_numpy
def test_packet_incremental_beats_full_on_disjoint_flows(kernel):
    """Disjoint flow pairs are singleton water-fill components: every
    arrival re-rates exactly one flow, and departures re-rate none (the
    drain phase starts after the latency event, so stats are checked after
    the run)."""
    net = PacketNetwork(
        kernel, NetworkParams(latency=0.0, bandwidth=1e6), seed=0
    )
    for i in range(8):
        net.submit(2 * i, 2 * i + 1, 1e6, lambda tr: None)
    kernel.run()
    stats = net.allocator.stats
    assert stats.incremental_updates >= 8
    assert stats.rates_computed == 8
    # The very first arrival's component is the whole (one-flow) pool, so
    # it counts as a cascade fallback; no later update may.
    assert stats.full_fallbacks <= 1


def test_backplane_infinite_capacity_still_matches_star(kernel):
    """The incremental refactor must preserve the capacity=inf degradation
    to the paper's model (scale factor pinned at 1)."""
    from repro.netmodel.star import EqualShareStarNetwork

    times = {}
    for name, build in (
        ("star", lambda k: EqualShareStarNetwork(k, PARAMS)),
        ("backplane", lambda k: BackplaneStarNetwork(k, PARAMS, capacity=math.inf)),
    ):
        k = Kernel()
        net = build(k)
        done = []
        for (s, d, size) in [(0, 1, 1e6), (0, 2, 5e5), (3, 1, 2e5), (1, 4, 8e5)]:
            net.submit(s, d, size, lambda tr: done.append(k.now))
        k.run()
        times[name] = sorted(done)
    assert times["star"] == pytest.approx(times["backplane"])
