"""The completion-horizon heap: stale entries, Zeno guards, scan equivalence.

The pool no longer scans tasks for the next completion; it maintains a lazy
min-heap of completion times, invalidating entries per dirty task when an
allocator changes a rate.  These tests pin the properties the refactor must
preserve:

* stale entries (rate changes, removals) never surface as completions;
* both Zeno guards survive: the min-step pad keeps the clock advancing, and
  sub-resolution residuals complete instead of freezing;
* the heap-derived horizon equals the linear-scan horizon after every
  operation of randomized add/remove/rate-change traces.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.des.fluid import FluidPool, FluidTask, RateAllocator
from repro.des.kernel import MIN_STEP, Kernel
from repro.errors import SimulationError


class Law(RateAllocator):
    """A rate law as the pool's allocator: ``fn(tasks)`` sets every rate.

    The pool delivers a removal that empties it too, so every law here
    accepts an empty task list.
    """

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def _full(self, tasks):
        self.fn(tasks)


def equal_share(capacity: float):
    @Law
    def allocate(tasks):
        for t in tasks:
            t.rate = capacity / len(tasks)

    return allocate


def linear_scan_horizon(pool: FluidPool) -> float:
    """The pre-heap O(n) computation: now + min(remaining / rate)."""
    now = pool.kernel.now
    horizon = math.inf
    for task in pool.tasks:
        if task.rate > 0.0:
            horizon = min(horizon, now + task.remaining / task.rate)
    return horizon


# ---------------------------------------------------------------- staleness


def test_removed_task_entry_is_stale(kernel):
    """Removing the earliest-finishing task must advance the horizon to the
    next task, not fire a completion for the removed one."""
    pool = FluidPool(kernel, equal_share(2.0))
    done = []
    quick = FluidTask(1.0, lambda t: done.append("quick"))
    slow = FluidTask(9.0, lambda t: done.append("slow"))
    pool.add(quick)
    pool.add(slow)
    assert pool.peek_horizon() == pytest.approx(1.0)
    pool.remove(quick)
    # quick's entry is invalidated; slow alone at rate 2 → 4.5s.
    assert pool.peek_horizon() == pytest.approx(4.5)
    kernel.run()
    assert done == ["slow"]
    assert pool.horizon.stale_discards >= 1


def test_rate_change_invalidates_entry(kernel):
    """A membership change that re-rates a task must retire the entry
    computed under the old rate."""
    pool = FluidPool(kernel, equal_share(2.0))
    done = []
    first = FluidTask(2.0, lambda t: done.append("first"))
    pool.add(first)  # alone at rate 2 → finish at t=1
    assert pool.peek_horizon() == pytest.approx(1.0)
    pool.add(FluidTask(2.0, lambda t: done.append("second")))
    # Both at rate 1 → both finish at t=2; the t=1 entry is stale.
    assert pool.peek_horizon() == pytest.approx(2.0)
    kernel.run()
    assert done == ["first", "second"]
    assert kernel.now == pytest.approx(2.0)


def test_zero_rate_task_has_no_entry(kernel):
    @Law
    def starve_b(tasks):
        for t in tasks:
            t.rate = 1.0 if t.tag == "a" else 0.0

    pool = FluidPool(kernel, starve_b)
    pool.add(FluidTask(1.0, lambda t: None, tag="a"))
    pool.add(FluidTask(1.0, lambda t: None, tag="b"))
    kernel.run()
    # b starves forever: after a completes the heap holds no live entry.
    assert len(pool) == 1
    assert pool.peek_horizon() == math.inf


def test_readmission_with_same_rate_completes(kernel):
    """Regression: a task removed and later re-admitted still carries its
    old rate; when the allocator assigns that same value, the pool must
    index a fresh heap entry — the equal-value short-circuit must not leave
    the re-admitted task unindexed (stuck forever)."""
    pool = FluidPool(kernel, equal_share(1.0))
    done = []
    task = FluidTask(2.0, lambda t: done.append(kernel.now))
    pool.add(task)  # alone → rate 1.0
    kernel.schedule_at(0.5, lambda: pool.remove(task))
    kernel.run()
    assert done == [] and task.rate == 1.0
    pool.add(task)  # equal_share assigns 1.0 again — same as the stale rate
    kernel.run()
    assert len(done) == 1
    assert len(pool) == 0


def test_direct_remaining_assignment_invalidates_entry(kernel):
    """Writing ``task.remaining`` directly must retire the old completion
    time once rates are next assigned."""
    pool = FluidPool(kernel, equal_share(1.0))
    done = []
    task = FluidTask(1.0, lambda t: done.append(kernel.now))
    pool.add(task)

    def enlarge():
        task.remaining = 5.0
        pool.reallocate()

    kernel.schedule_at(0.5, enlarge)
    kernel.run()
    assert done == [pytest.approx(5.5)]


# -------------------------------------------------------------- Zeno guards


def test_zeno_min_step_pad_survives_heap():
    """Regression shape of the original Zeno freeze: a sliver task at a
    large timestamp must complete rather than respawn zero-dt events."""
    kernel = Kernel()
    pool = FluidPool(kernel, equal_share(1e8))
    kernel.schedule_at(1e6, lambda: None)
    kernel.run()
    done = []
    pool.add(FluidTask(1e9, lambda t: done.append("big")))
    pool.add(FluidTask(1e-7, lambda t: done.append("sliver")))
    kernel.run(until=kernel.now + 100.0)
    assert "sliver" in done and "big" in done


def test_zeno_sub_resolution_residual_completes(kernel):
    """A task whose horizon is below the resolution of simulated time must
    complete via the second guard, not loop."""
    kernel.schedule_at(1e8, lambda: None)
    kernel.run()
    pool = FluidPool(kernel, equal_share(1.0))
    done = []
    # Horizon = 1e-12 s at now = 1e8: far below one ulp of now.
    pool.add(FluidTask(1e-12, lambda t: done.append(kernel.now)))
    events_before = kernel.events_executed
    kernel.run(until=kernel.now + 1.0)
    assert len(done) == 1
    # One horizon event, not an unbounded cascade.
    assert kernel.events_executed - events_before <= 3


def test_heap_events_bounded_under_churn():
    """The event count must stay linear in completions (no Zeno respawns
    hiding in the re-push path)."""
    kernel = Kernel()
    pool = FluidPool(kernel, equal_share(3.0))
    for i in range(50):
        kernel.schedule_at(i * 0.1, pool.add, FluidTask(1.0 + i % 7, lambda t: None))
    kernel.run()
    assert pool.completed_tasks == 50
    # Each event completes at least one task or reschedules once after a
    # drift re-push; 4x completions is a generous linear bound.
    assert pool.horizon.events <= 200


# ----------------------------------------------------- heap == linear scan


trace_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "rerate"]),
        st.floats(min_value=0.01, max_value=50.0),   # work (add)
        st.floats(min_value=0.05, max_value=3.0),    # time step
        st.integers(min_value=0, max_value=10**6),   # selector
    ),
    min_size=1,
    max_size=40,
)


@settings(deadline=None, max_examples=60)
@given(trace_strategy)
def test_heap_horizon_equals_linear_scan(trace):
    """Property: after every add/remove/rate-change of a randomized trace,
    the heap-derived horizon equals the pre-heap linear scan."""
    kernel = Kernel()
    # Deterministic but irregular rates: capacity split by position weights.
    @Law
    def weighted(tasks):
        total = sum(1.0 + (i % 5) for i in range(len(tasks)))
        for i, t in enumerate(tasks):
            t.rate = 4.0 * (1.0 + (i % 5)) / total

    pool = FluidPool(kernel, weighted)
    live: list[FluidTask] = []

    def check():
        expected = linear_scan_horizon(pool)
        got = pool.peek_horizon()
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    for op, work, dt, selector in trace:
        kernel.run(until=kernel.now + dt)
        live[:] = [t for t in live if t.pool is pool]
        if op == "add" or not live:
            task = FluidTask(work, lambda t: None)
            pool.add(task)
            live.append(task)
        elif op == "remove":
            pool.remove(live.pop(selector % len(live)))
        else:  # rerate: force a full reallocation at the current instant
            pool.reallocate()
        check()
    kernel.run()
    live[:] = [t for t in live if t.pool is pool]
    assert len(pool) == len(live)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0),
            st.floats(min_value=0.01, max_value=20.0),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_heap_pool_conserves_work(arrivals):
    """Conservation under equal share is unchanged by the horizon heap."""
    kernel = Kernel()
    pool = FluidPool(kernel, equal_share(1.0))
    for arrival, work in arrivals:
        kernel.schedule_at(arrival, pool.add, FluidTask(work, lambda t: None))
    kernel.run()
    assert pool.completed_tasks == len(arrivals)
    assert pool.completed_work == pytest.approx(sum(w for _, w in arrivals))


def test_heap_does_less_work_than_scan_at_scale():
    """With an incremental allocator the real heap work must sit far below
    what a linear scan of the pool at every membership change would cost."""
    from repro.netmodel.params import NetworkParams
    from repro.netmodel.star import EqualShareStarNetwork

    kernel = Kernel()
    net = EqualShareStarNetwork(kernel, NetworkParams(latency=0.0, bandwidth=1e6))
    rng = random.Random(2)
    n = 128
    spawned = 0

    def submit():
        nonlocal spawned
        spawned += 1
        src = rng.randrange(n)
        dst = (src + 1 + rng.randrange(n - 1)) % n
        net.submit(src, dst, rng.uniform(0.5e6, 1.5e6), done)

    def done(_tr):
        if spawned < 3 * n:
            submit()

    for _ in range(n):
        submit()
    kernel.run()
    horizon = net.horizon_stats
    updates = net.allocator.stats.incremental_updates
    assert 4 * horizon.heap_ops < updates * n


def rerate_first(count: list):
    """Allocator giving the first ``count[0]`` tasks a fresh rate per call.

    Every other task keeps rate 1.0, so a call re-rates exactly
    ``count[0]`` tasks (plus any newly admitted one).
    """
    calls = [0]

    @Law
    def allocate(tasks):
        calls[0] += 1
        for i, t in enumerate(tasks):
            t.rate = 1.0 + 0.001 * calls[0] if i < count[0] else 1.0

    return allocate


def test_heap_compacts_when_stale_fraction_exceeds_three_quarters(kernel):
    """Narrow re-rates within one burst pile up stale entries without ever
    popping them; once they exceed 3/4 of the heap the pool must rebuild it
    (counted in ``HorizonStats.compactions``) instead of holding its
    high-water mark until the next completion."""
    count = [0]
    pool = FluidPool(kernel, rerate_first(count))
    for _ in range(40):
        pool.add(FluidTask(1e6, lambda t: None))
    # Each admission re-rated only the newcomer: one push each.
    assert len(pool._heap) == 40 and pool.horizon.compactions == 0
    count[0] = 19  # under half the pool: one push per re-rated task
    for round_ in range(1, 8):
        pool.reallocate()
        assert pool.peek_horizon() == linear_scan_horizon(pool)
        if round_ < 7:
            assert len(pool._heap) == 40 + 19 * round_
            assert pool.horizon.compactions == 0
    # 40 + 7 * 19 = 173 entries > 4 * 40: rebuilt to one entry per task.
    assert pool.horizon.compactions == 1
    assert len(pool._heap) == 40
    # And completions still fire correctly afterwards.
    done = []
    quick = FluidTask(1e-6, lambda t: done.append(kernel.now))
    pool.add(quick)
    kernel.run(until=kernel.now + 1.0)
    assert len(done) == 1


def test_heap_rebuilds_when_a_flush_retimes_half_the_pool(kernel):
    """A flush that re-rates at least half of a pool of 16 or more tasks
    re-indexes every rated task in one ``heapify``: one push per live
    entry, and no stale entry left to pop later.  One task fewer pushes
    instead."""
    count = [0]
    pool = FluidPool(kernel, rerate_first(count))
    for _ in range(20):
        pool.add(FluidTask(1e6, lambda t: None))
    count[0] = 9  # under half
    pool.reallocate()
    assert pool.horizon.compactions == 0
    assert len(pool._heap) == 29
    assert pool.peek_horizon() == linear_scan_horizon(pool)
    count[0] = 10  # exactly half
    pushes = pool.horizon.heap_pushes
    pool.reallocate()
    assert pool.horizon.compactions == 1
    assert len(pool._heap) == 20
    assert pool.horizon.heap_pushes - pushes == 20
    assert pool.peek_horizon() == linear_scan_horizon(pool)
    # No stale entry ever surfaced: the rebuild dropped them unpopped.
    assert pool.horizon.stale_discards == 0


def test_small_pools_never_rebuild_on_wide_retimes(kernel):
    """Below 16 tasks a whole-pool re-rate pushes one entry per task."""
    count = [0]
    pool = FluidPool(kernel, rerate_first(count))
    for _ in range(15):
        pool.add(FluidTask(1e6, lambda t: None))
    count[0] = 15
    pool.horizon.reset()
    pool.reallocate()
    assert pool.horizon.compactions == 0
    assert pool.horizon.heap_pushes == 15
    assert pool.peek_horizon() == linear_scan_horizon(pool)


# ------------------------------------------------------ one armed horizon event


def rate_table(rates: dict):
    """Allocator reading each task's rate from ``rates[task.tag]``."""

    @Law
    def allocate(tasks):
        for t in tasks:
            t.rate = rates[t.tag]

    return allocate


def test_armed_event_survives_a_refresh_that_keeps_the_head(kernel):
    rates = {"head": 1.0, "tail": 1.0}
    pool = FluidPool(kernel, rate_table(rates))
    pool.add(FluidTask(1.0, lambda t: None, tag="head"))
    pool.add(FluidTask(5.0, lambda t: None, tag="tail"))
    armed = pool._event
    assert armed.time == 1.0
    pending = kernel.pending_events
    pool.reallocate()  # nothing re-rated
    assert pool._event is armed
    rates["tail"] = 2.0  # re-rates a task behind the head
    pool.reallocate()
    assert pool._event is armed and not armed.cancelled
    assert kernel.pending_events == pending


def test_armed_event_is_rekeyed_when_the_head_moves(kernel):
    """The pool's one event moves with the head in place: the same handle,
    re-keyed under the ``seq`` a fresh push would have drawn."""
    rates = {"head": 1.0, "tail": 1.0}
    pool = FluidPool(kernel, rate_table(rates))
    pool.add(FluidTask(2.0, lambda t: None, tag="head"))
    pool.add(FluidTask(5.0, lambda t: None, tag="tail"))
    armed = pool._event
    seq = armed.seq
    rates["head"] = 4.0  # head moves earlier: 0.5
    pool.reallocate()
    assert pool._event is armed and not armed.cancelled
    assert armed.time == 0.5 and armed.seq > seq
    rates["head"] = 0.25  # head moves later: the tail at 5.0 leads
    pool.reallocate()
    assert pool._event is armed and armed.time == 5.0
    assert kernel.pending_events == 1
    rates["head"] = rates["tail"] = 0.0  # all starved: disarmed
    pool.reallocate()
    assert pool._event is None and armed.cancelled
    assert kernel.pending_events == 0


def test_head_within_min_step_is_rearmed_through_the_floor(kernel):
    """A head at or before ``now + MIN_STEP`` is armed at the floor, not at
    its own time, so it never counts as unchanged: every refresh re-keys
    it at the floor of ``Kernel.schedule_after``."""
    pool = FluidPool(kernel, rate_table({"sliver": 2e12}))
    pool.add(FluidTask(1.0, lambda t: None, tag="sliver"))  # finish 5e-13
    armed = pool._event
    seq = armed.seq
    floor = max(MIN_STEP, math.nextafter(0.0, math.inf))
    assert pool.peek_horizon() < armed.time == floor
    pool.reallocate()
    assert pool._event is armed and armed.seq > seq
    assert armed.time == floor
    kernel.run()
    assert len(pool) == 0


def test_small_heaps_are_never_compacted(kernel):
    """Below the entry floor, churn must not trigger rebuilds — stale
    entries there are cheaper to discard lazily."""
    pool = FluidPool(kernel, equal_share(1.0))
    task = FluidTask(1e6, lambda t: None)
    pool.add(task)
    for _ in range(50):
        pool.reallocate()
    assert pool.horizon.compactions == 0


def test_externally_zeroed_rate_starves_instead_of_crashing(kernel):
    """Regression: a live heap entry surfacing for a task whose rate was
    zeroed via the public setter (without a reallocate) must be discarded
    as stale — the pre-heap scan skipped zero rates; it must not divide by
    zero or complete the task."""
    pool = FluidPool(kernel, equal_share(1.0))
    done = []
    task = FluidTask(2.0, lambda t: done.append(kernel.now))
    pool.add(task)  # entry at finish=2.0
    kernel.schedule_at(0.5, lambda: setattr(task, "rate", 0.0))
    kernel.run()
    assert done == []
    assert len(pool) == 1
    assert task.remaining == pytest.approx(1.5)
