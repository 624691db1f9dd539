"""Warm-started max-min re-solve: equivalence, accounting, invalidation.

The cascade path of :class:`repro.netmodel.base.LinkComponentAllocator`
replays the previous whole-pool solve's saturation prefix and re-solves
only the suffix the delta touched (see ``docs/performance.md``).  These
tests pin:

* **exactness** — randomized dense and sparse flow churn (add/remove
  bursts, capacity edits) produces, after every update, exactly the rates
  a from-scratch :func:`~repro.netmodel.maxmin.maxmin_rates` assigns;
* **accounting** — warm starts and full fallbacks partition the cascades,
  and on seeded dense traffic most cascades warm-start;
* **invalidation** — capacity edits and pool-emptying updates drop the
  cached saturation order instead of replaying stale state.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.des.fluid import FluidTask
from repro.des.kernel import Kernel
from repro.netmodel.maxmin import (
    IncrementalMaxMinAllocator,
    MaxMinStarNetwork,
    maxmin_rates,
)
from repro.netmodel.params import NetworkParams


class FakeTransfer:
    def __init__(self, src, dst):
        self.src = src
        self.dst = dst


def _flow_task(src, dst):
    return FluidTask(1.0, lambda t: None, tag=FakeTransfer(src, dst))


def _assert_matches_scratch(allocator, active):
    expected = maxmin_rates(
        [(t.tag.src, t.tag.dst) for t in active], allocator.capacity
    )
    for task, rate in zip(active, expected):
        assert task.rate == pytest.approx(rate, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------------ property


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=3, max_value=10),     # node count (3 = very dense)
    st.integers(min_value=0, max_value=2**32),  # churn seed
)
def test_warm_started_churn_matches_scratch_solver(num_nodes, seed):
    """Randomized add/remove bursts and capacity edits: the maintained
    rates equal a from-scratch water-fill after every single update."""
    rng = random.Random(seed)
    allocator = IncrementalMaxMinAllocator(capacity=1.0)
    active: list[FluidTask] = []
    for _ in range(120):
        op = rng.random()
        added, removed = [], []
        if op < 0.08:
            # Capacity edit: an external invalidation, delivered through
            # refresh() per the allocator protocol.  The rebuilt warm cache
            # must carry the new capacity (the pin is unit-tested in
            # test_capacity_edit_invalidates_warm_cache).
            allocator.capacity = rng.choice([0.5, 1.0, 2.0, 3.3])
            allocator.refresh(active)
            _assert_matches_scratch(allocator, active)
            continue
        elif active and op < 0.45:
            for _ in range(min(len(active), rng.randint(1, 3))):
                removed.append(active.pop(rng.randrange(len(active))))
        else:
            for _ in range(rng.randint(1, 3)):
                src = rng.randrange(num_nodes)
                dst = (src + 1 + rng.randrange(num_nodes - 1)) % num_nodes
                task = _flow_task(src, dst)
                active.append(task)
                added.append(task)
        allocator.update(active, added, removed)
        _assert_matches_scratch(allocator, active)


# ---------------------------------------------------------------- accounting


def _dense_churn(flows=64, num_nodes=9, seed=7, verify=False):
    """All-to-all-ish churn on few nodes: every change cascades."""
    kernel = Kernel()
    rng = random.Random(seed)
    net = MaxMinStarNetwork(
        kernel,
        NetworkParams(latency=0.0, bandwidth=1e6),
        verify_incremental=verify,
    )
    total = 3 * flows
    spawned = 0

    def submit():
        nonlocal spawned
        spawned += 1
        src = rng.randrange(num_nodes)
        dst = (src + 1 + rng.randrange(num_nodes - 1)) % num_nodes
        net.submit(src, dst, rng.uniform(0.5e6, 1.5e6), on_done)

    def on_done(_tr):
        if spawned < total:
            submit()

    for _ in range(flows):
        submit()
    kernel.run()
    return net.allocator.stats


def test_dense_traffic_fallback_rate_below_pr2_level():
    """Regression: on dense traffic the bulk of the cascades must
    warm-start, not just a token few.  A solver that falls back on every
    cascade pays about one whole-pool solve per update (245 fallbacks and
    12,237 rates for this run's 256 updates, when there was a switch to
    measure it); the counters of a seeded run repeat exactly, so the
    bounds are absolute."""
    flows = 64
    stats = _dense_churn(flows=flows)
    updates = stats.incremental_updates
    assert stats.warm_starts > stats.full_fallbacks
    assert stats.full_fallbacks < updates / 2
    assert stats.rates_computed < flows * updates / 2
    assert stats.warm_inserts > 0
    # Warm starts and fallbacks partition the cascade events.
    assert stats.warm_starts + stats.full_fallbacks <= updates


def test_dense_warm_started_solves_survive_verify_shadow():
    """verify_incremental=True shadows every warm-started solve with a
    from-scratch solve and raises beyond 1e-9 relative; surviving the run
    is the bit-for-bit-within-tolerance equivalence check."""
    stats = _dense_churn(flows=48, verify=True)
    assert stats.warm_starts > 0
    assert stats.verify_recomputes > 0


# -------------------------------------------------------------- invalidation


def test_capacity_edit_invalidates_warm_cache():
    """A capacity change between updates must force a full re-solve (the
    cached saturation order was computed under the old capacity)."""
    allocator = IncrementalMaxMinAllocator(capacity=1.0, cascade_threshold=0.0)
    active = []
    for i in range(4):
        task = _flow_task(0, i + 1)
        active.append(task)
        allocator.update(active, [task], [])
    allocator.capacity = 2.0
    task = _flow_task(1, 2)
    active.append(task)
    before = allocator.stats.warm_starts
    allocator.update(active, [task], [])
    # The delta's links are disjoint from the hub's saturation rounds, so
    # only the capacity pin can have blocked the replay.
    assert allocator.stats.warm_starts == before
    _assert_matches_scratch(allocator, active)


def test_emptied_pool_drops_warm_cache():
    """Removing every task invalidates the cache; the next cascade after a
    refill must fall back (no stale tasks can be re-frozen)."""
    allocator = IncrementalMaxMinAllocator(capacity=1.0, cascade_threshold=0.0)
    first = [_flow_task(0, 1), _flow_task(2, 3)]
    allocator.update(first, first, [])
    allocator.update([], [], list(first))
    assert allocator._warm is None
    second = [_flow_task(4, 5)]
    allocator.update(second, second, [])
    _assert_matches_scratch(allocator, second)


def test_removal_after_earlier_rounds_replays_saturation_prefix():
    """A removal whose links only appear in a *late* saturation round keeps
    the earlier rounds as a valid prefix: the cascade warm-starts, the
    prefix flows keep their rates without reassignment, and only the
    suffix is re-solved."""
    allocator = IncrementalMaxMinAllocator(capacity=1.0, cascade_threshold=0.0)
    # Hub A (0 -> {1,2,3}) saturates (out, 0) first at share 1/3; hub B
    # (4 -> {5,6}) saturates (out, 4) second at share 1/2.
    active = [_flow_task(0, i + 1) for i in range(3)]
    active += [_flow_task(4, 5), _flow_task(4, 6)]
    allocator.update(active, list(active), [])
    assert allocator.stats.warm_starts == 0
    victim = active.pop()  # 4 -> 6: hub B's round breaks, hub A's replays
    rates_before = allocator.stats.rates_computed
    allocator.update(active, [], [victim])
    assert allocator.stats.warm_starts == 1
    # Only the one surviving hub-B flow is re-solved; hub A's three flows
    # re-freeze from the replayed prefix without any rate assignment.
    assert allocator.stats.rates_computed == rates_before + 1
    assert active[-1].rate == pytest.approx(1.0)
    _assert_matches_scratch(allocator, active)


# ------------------------------------------------------- cache repair (merge)
def test_component_restricted_update_repairs_cache_for_later_warm_start():
    """A component-restricted re-solve must not invalidate the warm cache:
    the dirty component's rounds are replaced and share-merged, so a later
    dense cascade still warm-starts off the repaired order."""
    allocator = IncrementalMaxMinAllocator(capacity=1.0, verify=True)
    active: list[FluidTask] = []

    def add(src, dst):
        t = _flow_task(src, dst)
        active.append(t)
        allocator.update(active, [t], [])
        return t

    # Dense component A: all-to-all on nodes {0, 1, 2} (fair share 0.5).
    a_flows = [add(s, d) for s in range(3) for d in range(3) if s != d]
    merges_after_a = allocator.stats.warm_merges
    # Component B: four parallel 10 -> 11 flows (fair share 0.25), each a
    # *small* component relative to the pool -> the restricted path runs
    # and repairs the cached whole-pool saturation order in place.
    for _ in range(4):
        add(10, 11)
    assert allocator.stats.warm_merges > merges_after_a
    merges = allocator.stats.warm_merges
    fallbacks = allocator.stats.full_fallbacks
    warm_before = allocator.stats.warm_starts
    # A removal inside dense A cascades past the threshold.  B's round
    # (share 0.25) precedes every A round (share 0.5) in the merged order
    # and is untouched by the delta, so the warm start must succeed.
    removed = a_flows.pop()
    active.remove(removed)
    allocator.update(active, [], [removed])
    assert allocator.stats.warm_starts == warm_before + 1
    assert allocator.stats.full_fallbacks == fallbacks
    assert allocator.stats.warm_merges == merges
    _assert_matches_scratch(allocator, active)

