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


def test_maxmin_incremental_is_hash_seed_deterministic():
    """Regression: the component BFS must not iterate id- or str-hashed
    sets, or rates pick up run-to-run float noise.  The same workload under
    different PYTHONHASHSEEDs must produce bit-identical completion times."""
    import os
    import subprocess
    import sys

    script = (
        "import random\n"
        "from repro.des.kernel import Kernel\n"
        "from repro.netmodel.maxmin import MaxMinStarNetwork\n"
        "from repro.netmodel.params import NetworkParams\n"
        "kernel = Kernel()\n"
        "net = MaxMinStarNetwork(kernel, NetworkParams(latency=0.0, bandwidth=1e6))\n"
        "rng = random.Random(3)\n"
        "times = {}\n"
        "for i in range(40):\n"
        "    src = rng.randrange(6)\n"
        "    dst = (src + 1 + rng.randrange(5)) % 6\n"
        "    kernel.schedule_at(\n"
        "        rng.uniform(0.0, 3.0), net.submit, src, dst,\n"
        "        rng.uniform(1e4, 2e6),\n"
        "        lambda tr, i=i: times.__setitem__(i, kernel.now),\n"
        "    )\n"
        "kernel.run()\n"
        "print(repr(sorted(times.items())))\n"
    )
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    outputs = set()
    for hash_seed in ("1", "2", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1


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
