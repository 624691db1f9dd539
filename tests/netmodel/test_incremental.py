"""Incremental rate allocation: exact equivalence with full recomputation.

Two complementary checks:

* **shadow mode** — networks built with ``verify_incremental=True`` re-run
  the full allocator after every incremental update and raise on any
  divergence beyond 1e-9 relative, so simply driving a randomized workload
  through them exercises the equivalence at every membership change;
* **end-to-end** — the same workload through a plain and a shadowed model
  must produce identical completion times; the shadow assigns the full
  rates, so its run is the full-recompute trajectory (``churn_driver``).
"""

import random

import pytest
from churn_driver import (
    arrival_strategy,
    assert_matches_verify_run,
    drive_network,
)
from hypothesis import given, settings

from repro.netmodel.maxmin import (
    IncrementalMaxMinAllocator,
    MaxMinStarNetwork,
    maxmin_rates,
)
from repro.netmodel.params import NetworkParams
from repro.netmodel.star import EqualShareStarNetwork

try:
    import numpy  # noqa: F401
    HAS_NUMPY = True
except ImportError:
    HAS_NUMPY = False


@settings(deadline=None, max_examples=40)
@given(arrival_strategy)
def test_maxmin_incremental_matches_full_shadow(arrivals):
    """verify_incremental=True raises if any incremental update diverges
    from the full water-filling result by more than 1e-9 relative."""
    params = NetworkParams(latency=0.0, bandwidth=1e6)
    times, net = drive_network(
        lambda kernel: MaxMinStarNetwork(kernel, params, verify_incremental=True),
        arrivals,
    )
    assert net.allocator.stats.incremental_updates > 0


@settings(deadline=None, max_examples=40)
@given(arrival_strategy)
def test_equal_share_incremental_matches_full_shadow(arrivals):
    params = NetworkParams(latency=0.0, bandwidth=1e6)
    times, net = drive_network(
        lambda kernel: EqualShareStarNetwork(kernel, params, verify_incremental=True),
        arrivals,
    )
    assert net.allocator.stats.incremental_updates > 0


@settings(deadline=None, max_examples=25)
@given(arrival_strategy)
def test_maxmin_incremental_end_to_end_equivalence(arrivals):
    """Completion times agree between incremental and full allocation."""
    assert_matches_verify_run("maxmin", arrivals)


@settings(deadline=None, max_examples=25)
@given(arrival_strategy)
def test_equal_share_incremental_end_to_end_equivalence(arrivals):
    assert_matches_verify_run("star", arrivals)


def test_incremental_touches_fewer_flows_than_full(kernel):
    """Disjoint flow pairs form singleton components: a membership change
    must not recompute rates for unrelated flows."""
    params = NetworkParams(latency=0.0, bandwidth=1e6)
    net = MaxMinStarNetwork(kernel, params)
    # 8 pairwise-disjoint flows: (0->1), (2->3), ... share no links.
    for i in range(8):
        net.submit(2 * i, 2 * i + 1, 1e6 * (i + 1), lambda tr: None)
    stats = net.allocator.stats
    # Each arrival's component is just itself: one rate per update.
    assert stats.incremental_updates == 8
    assert stats.rates_computed == 8
    kernel.run()


def test_cascade_threshold_falls_back_to_full(kernel):
    """A hub pattern makes every flow one component; past the threshold the
    allocator must do a single full recompute instead of a 'restricted'
    solve covering everything anyway."""
    params = NetworkParams(latency=0.0, bandwidth=1e6)
    net = MaxMinStarNetwork(kernel, params, cascade_threshold=0.0)
    done = []
    for i in range(4):
        net.submit(0, i + 1, 1e6, lambda tr: done.append(kernel.now))
    # threshold 0: every update with a non-empty dirty set is a cascade.
    stats = net.allocator.stats
    assert stats.incremental_updates == 4
    assert stats.rates_computed == 1 + 2 + 3 + 4
    kernel.run()
    assert len(done) == 4
    # Hub egress split four ways at 0.25 MB/s each: all finish at t=4.
    assert done == [pytest.approx(4.0)] * 4


_HASH_SEED_SCRIPT = """\
import hashlib
import random
import sys
from repro.des.kernel import Kernel
from repro.netmodel.maxmin import MaxMinStarNetwork
from repro.netmodel.packet import PacketNetwork
from repro.netmodel.params import NetworkParams

def build(kernel):
    params = NetworkParams(latency=0.0, bandwidth=1e6)
    if model == "packet":
        return PacketNetwork(kernel, params, seed=2)
    return MaxMinStarNetwork(kernel, params)

def digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()

def submit():
    global spawned
    spawned += 1
    src = rng.randrange(4)
    dst = rng.randrange(4)
    while dst == src:
        dst = rng.randrange(4)
    net.submit(src, dst, rng.uniform(0.5e6, 1.5e6), on_done)

def on_done(transfer):
    done.append(kernel.now)
    if spawned < 64 + 200:
        submit()

for model in sys.argv[1:]:
    # 40 staggered flows over 6 nodes.
    kernel = Kernel()
    net = build(kernel)
    rng = random.Random(3)
    times = {}
    for i in range(40):
        src = rng.randrange(6)
        dst = (src + 1 + rng.randrange(5)) % 6
        kernel.schedule_at(
            rng.uniform(0.0, 3.0), net.submit, src, dst,
            rng.uniform(1e4, 2e6),
            lambda tr, i=i: times.__setitem__(i, kernel.now),
        )
    kernel.run()
    print(digest(sorted(times.items())))
    print(repr(net.allocator.stats))

    # Pair-heavy churn: 64 concurrent flows over 4 nodes (12 pairs), each
    # completion replaced until 200 more have been submitted.
    kernel = Kernel()
    net = build(kernel)
    rng = random.Random(2)
    done = []
    spawned = 0
    for _ in range(64):
        submit()
    kernel.run()
    print(repr(kernel.now), kernel.events_executed)
    print(digest(done))
    print(repr(net.allocator.stats))
"""

#: What the script prints per model named on its command line: the
#: SHA-256 of the ``repr`` of the 40-flow completion times, that run's
#: allocator counters, the churn's makespan and event count, the SHA-256
#: of the ``repr`` of its completion times, and its allocator counters.
_HASH_SEED_PINS = {
    "maxmin": [
        "c3ae6a00f2d70882c7b009e3f2a3e8918d653cbc531bdcbc0ebdad5fc97441d3",
        "AllocatorStats(incremental_updates=80, full_fallbacks=14, "
        "warm_starts=59, warm_inserts=39, warm_merges=6, verify_recomputes=0, "
        "refreshes=0, rates_computed=580)",
        "77.93183543854882 264",
        "902baa0ee4b1ce202dd9ccad2618580c69ee77c1ed959e3d866491822edbe92c",
        "AllocatorStats(incremental_updates=328, full_fallbacks=84, "
        "warm_starts=240, warm_inserts=173, warm_merges=3, "
        "verify_recomputes=0, refreshes=0, rates_computed=10417)",
    ],
    "packet": [
        "f25e72ebbe48914ed0690d159a2b2fe8021aa3f8869bf2fa46e57c25a8f07849",
        "AllocatorStats(incremental_updates=80, full_fallbacks=13, "
        "warm_starts=60, warm_inserts=39, warm_merges=6, verify_recomputes=0, "
        "refreshes=0, rates_computed=587)",
        "80.85546003022726 528",
        "6eec6237c26f8fda46150436beb140cf7eefe79959c9a82689ed168a75f8b9e8",
        "AllocatorStats(incremental_updates=528, full_fallbacks=84, "
        "warm_starts=440, warm_inserts=310, warm_merges=3, "
        "verify_recomputes=0, refreshes=0, rates_computed=12922)",
    ],
}


def test_maxmin_incremental_is_hash_seed_deterministic():
    """Regression: no id- or str-hashed iteration order may reach the
    allocator's float work, or rates pick up run-to-run noise.  The same
    workloads under different PYTHONHASHSEEDs must produce bit-identical
    completion times and allocator counters — and the very bits pinned
    here, a staggered mixed-pair run and a churn where pairs repeat."""
    import os
    import subprocess
    import sys

    # The packet model's seeded noise streams need numpy.
    models = ["maxmin", "packet"] if HAS_NUMPY else ["maxmin"]
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    outputs = set()
    for hash_seed in ("1", "2", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, *models],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    expected = [line for model in models for line in _HASH_SEED_PINS[model]]
    assert outputs.pop().splitlines() == expected


def test_incremental_allocator_component_restriction_is_exact():
    """Randomized add/remove sequences at the allocator level: after every
    operation the maintained rates equal a from-scratch water-fill."""
    from repro.des.fluid import FluidTask

    class FakeTransfer:
        def __init__(self, src, dst):
            self.src = src
            self.dst = dst

    rng = random.Random(42)
    allocator = IncrementalMaxMinAllocator(capacity=1.0)
    active = []
    for step in range(300):
        if active and rng.random() < 0.4:
            task = active.pop(rng.randrange(len(active)))
            allocator.update(active, [], [task])
        else:
            src = rng.randrange(8)
            dst = (src + 1 + rng.randrange(7)) % 8
            task = FluidTask(1.0, lambda t: None, tag=FakeTransfer(src, dst))
            active.append(task)
            allocator.update(active, [task], [])
        expected = maxmin_rates([(t.tag.src, t.tag.dst) for t in active], 1.0)
        for task, rate in zip(active, expected):
            assert task.rate == pytest.approx(rate, rel=1e-9, abs=1e-12)
