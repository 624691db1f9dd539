"""Fluid pools: progress integration, reallocation, conservation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.des.fluid import (
    FluidPool,
    FluidTask,
    RateAllocator,
    assign_rate,
    assign_scaled,
)
from repro.des.kernel import Kernel
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
    """Allocator: split ``capacity`` evenly among active tasks."""

    @Law
    def allocate(tasks):
        for t in tasks:
            t.rate = capacity / len(tasks)

    return allocate


def test_single_task_duration(kernel):
    pool = FluidPool(kernel, equal_share(2.0))
    done = []
    pool.add(FluidTask(10.0, lambda t: done.append(kernel.now)))
    kernel.run()
    assert done == [pytest.approx(5.0)]


def test_two_tasks_share_capacity(kernel):
    pool = FluidPool(kernel, equal_share(1.0))
    done = {}
    pool.add(FluidTask(1.0, lambda t: done.setdefault("a", kernel.now)))
    pool.add(FluidTask(3.0, lambda t: done.setdefault("b", kernel.now)))
    kernel.run()
    # Both run at 0.5 until a finishes at t=2; then b alone: 2 remaining at 1.0.
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(4.0)


def test_late_arrival_slows_existing_task(kernel):
    pool = FluidPool(kernel, equal_share(1.0))
    done = {}
    pool.add(FluidTask(2.0, lambda t: done.setdefault("first", kernel.now)))
    kernel.schedule_at(1.0, lambda: pool.add(FluidTask(0.5, lambda t: done.setdefault("second", kernel.now))))
    kernel.run()
    # first: 1 unit alone by t=1; shares 0.5/s until second ends at t=2
    # (0.5 more done), then finishes its last 0.5 alone at t=2.5.
    assert done["second"] == pytest.approx(2.0)
    assert done["first"] == pytest.approx(2.5)


def test_zero_work_completes_immediately(kernel):
    pool = FluidPool(kernel, equal_share(1.0))
    done = []
    pool.add(FluidTask(0.0, lambda t: done.append(kernel.now)))
    assert done == [0.0]
    assert len(pool) == 0


def test_starved_tasks_wait_for_membership_change(kernel):
    @Law
    def starve_b(tasks):
        for t in tasks:
            t.rate = 1.0 if t.tag == "a" else 0.0

    pool = FluidPool(kernel, starve_b)
    done = {}
    pool.add(FluidTask(1.0, lambda t: done.setdefault("a", kernel.now), tag="a"))
    pool.add(FluidTask(1.0, lambda t: done.setdefault("b", kernel.now), tag="b"))
    kernel.run()
    # b starves until a completes; then b is alone but still tag "b"...
    # allocator gives rate 0 forever -> b never completes, pool retains it.
    assert done == {"a": pytest.approx(1.0)}
    assert len(pool) == 1


def test_remove_withdraws_task(kernel):
    pool = FluidPool(kernel, equal_share(1.0))
    done = []
    task = FluidTask(10.0, lambda t: done.append("late"))
    pool.add(task)
    pool.add(FluidTask(1.0, lambda t: done.append("quick")))
    kernel.schedule_at(0.5, lambda: pool.remove(task))
    kernel.run()
    assert done == ["quick"]
    assert not task.active


def test_remove_unknown_task_raises(kernel):
    pool = FluidPool(kernel, equal_share(1.0))
    with pytest.raises(SimulationError):
        pool.remove(FluidTask(1.0, lambda t: None))


def test_negative_rate_rejected(kernel):
    @Law
    def bad(tasks):
        for t in tasks:
            t.rate = -1.0

    pool = FluidPool(kernel, bad)
    with pytest.raises(SimulationError):
        pool.add(FluidTask(1.0, lambda t: None))


def test_double_admission_rejected(kernel):
    pool = FluidPool(kernel, equal_share(1.0))
    task = FluidTask(5.0, lambda t: None)
    pool.add(task)
    with pytest.raises(SimulationError):
        pool.add(task)


def test_immediate_completion_credits_completed_work(kernel):
    """Regression: tasks drained on admission (tiny-but-positive work below
    the completion tolerance) never credited ``completed_work``, breaking
    the conservation invariant the class docstring promises."""
    pool = FluidPool(kernel, equal_share(1.0))
    tiny = 1e-13  # below the absolute completion tolerance
    done = []
    pool.add(FluidTask(tiny, lambda t: done.append(t)))
    assert done and done[0].remaining == 0.0
    assert pool.completed_tasks == 1
    assert pool.completed_work == pytest.approx(tiny)
    # Zero-work tasks stay consistent too (credit zero, count one).
    pool.add(FluidTask(0.0, lambda t: None))
    assert pool.completed_tasks == 2
    assert pool.completed_work == pytest.approx(tiny)


def test_conservation_with_immediate_completions(kernel):
    """completed_work must equal the sum of all admitted work, whether
    tasks drained through the pool or completed on admission."""
    pool = FluidPool(kernel, equal_share(1.0))
    works = [1.0, 1e-13, 2.5, 0.0, 3e-13]
    for w in works:
        pool.add(FluidTask(w, lambda t: None))
    kernel.run()
    assert pool.completed_tasks == len(works)
    assert pool.completed_work == pytest.approx(sum(works))


def test_completion_accounting(kernel):
    pool = FluidPool(kernel, equal_share(1.0))
    for w in (1.0, 2.0, 3.0):
        pool.add(FluidTask(w, lambda t: None))
    kernel.run()
    assert pool.completed_tasks == 3
    assert pool.completed_work == pytest.approx(6.0)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_work_conservation_under_equal_share(works, capacity):
    """Total completion time x capacity == total work (conservation)."""
    kernel = Kernel()
    pool = FluidPool(kernel, equal_share(capacity))
    for w in works:
        pool.add(FluidTask(w, lambda t: None))
    end = kernel.run()
    # With all tasks admitted at t=0 and full capacity always in use,
    # the pool drains exactly sum(works)/capacity seconds later.
    assert end == pytest.approx(sum(works) / capacity, rel=1e-6)
    assert pool.completed_tasks == len(works)


@settings(deadline=None, max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0),  # arrival
            st.floats(min_value=0.01, max_value=20.0),  # work
        ),
        min_size=1,
        max_size=15,
    )
)
def test_completion_order_and_times_monotonic(arrivals):
    """Later-arriving work never completes before the clock reaches it."""
    kernel = Kernel()
    pool = FluidPool(kernel, equal_share(1.0))
    finished = []

    def admit(work):
        pool.add(FluidTask(work, lambda t: finished.append(kernel.now)))

    for arrival, work in arrivals:
        kernel.schedule_at(arrival, admit, work)
    kernel.run()
    assert len(finished) == len(arrivals)
    assert finished == sorted(finished)
    total_work = sum(w for _, w in arrivals)
    assert kernel.now <= max(a for a, _ in arrivals) + total_work + 1e-6


def test_zeno_freeze_guard():
    """Tiny residuals at large timestamps must not freeze the clock.

    Regression: a task completing within less than one ulp of ``now``
    produced a horizon event that fired without advancing time and
    rescheduled itself forever (observed on zero-latency networks after
    ~20 simulated seconds).
    """
    kernel = Kernel()

    @Law
    def equal_share(tasks):
        for t in tasks:
            t.rate = 1e8 / len(tasks)

    pool = FluidPool(kernel, equal_share)
    # Jump the clock far ahead so float resolution is coarse.
    kernel.schedule_at(1e6, lambda: None)
    kernel.run()
    done = []
    # A large task plus a sliver: the sliver's completion horizon is far
    # below the float64 resolution of now=1e6.
    pool.add(FluidTask(1e9, lambda t: done.append("big")))
    pool.add(FluidTask(1e-7, lambda t: done.append("sliver")))
    kernel.run(until=kernel.now + 100.0)
    assert "sliver" in done
    assert "big" in done


def test_zeno_guard_preserves_macroscopic_timing():
    """The ulp padding must not perturb normal completion times."""
    kernel = Kernel()

    @Law
    def fixed_rate(tasks):
        for t in tasks:
            t.rate = 1e6

    pool = FluidPool(kernel, fixed_rate)
    finish = []
    pool.add(FluidTask(5e6, lambda t: finish.append(kernel.now)))
    kernel.run()
    assert finish[0] == pytest.approx(5.0, rel=1e-9)


def _rate_schedule(assign):
    """Law: at its k-th call, every task gets the k-th rate of a cycle that
    repeats values (the setter's no-op case) and starves (rate 0)."""
    rates = [1.0, 0.0, 0.5, 0.5, 2.0, 2.0, 0.25, 1.5]
    calls = [0]

    @Law
    def allocate(tasks):
        rate = rates[calls[0] % len(rates)]
        calls[0] += 1
        assign(tasks, rate)

    return allocate


def _by_setter(tasks, rate):
    for task in tasks:
        task.rate = rate


def _run_schedule(assign):
    """Five staggered tasks under ``_rate_schedule(assign)``: completion
    times, the survivors' state and the horizon heap's work."""
    kernel = Kernel()
    pool = FluidPool(kernel, _rate_schedule(assign))
    done = []
    for i, work in enumerate([1.0, 2.0, 0.5, 3.0, 0.75]):
        task = FluidTask(work, lambda t: done.append((t.tag, kernel.now)), i)
        kernel.schedule_at(0.3 * i, pool.add, task)
    for i in range(12):
        kernel.schedule_at(0.1 + 0.7 * i, pool.reallocate)
    kernel.run()
    left = [(t.tag, t._remaining, t._rate, t._synced_at) for t in pool.tasks]
    horizon = pool.horizon
    return done, left, horizon.heap_ops, horizon.stale_discards


def test_assign_rate_is_the_setter_over_a_group():
    """``assign_rate`` leaves bit-identical task state to the setter: the
    same skips, progress syncs, heap work and completion times."""
    assert _run_schedule(_by_setter) == _run_schedule(assign_rate)


def test_assign_scaled_is_the_setter_over_factored_groups():
    """``assign_scaled`` gives each task ``rate * factor`` exactly as the
    setter would, over several groups per call: the same skips, syncs,
    heap work and completion times."""
    factors = [1.0, 0.75, 0.5, 1.0, 0.625]

    def by_setter(tasks, rate):
        for task in tasks:
            task.rate = rate * factors[task.tag]

    def by_groups(tasks, rate):
        assign_scaled([
            ({t: factors[t.tag] for t in tasks if t.tag % 2}, rate),
            ({t: factors[t.tag] for t in tasks if not t.tag % 2}, rate),
        ])

    assert _run_schedule(by_setter) == _run_schedule(by_groups)


def test_assign_rate_indexes_a_readmitted_task_at_its_old_rate(kernel):
    """A task re-admitted with its old rate still set has no heap entry:
    assigning that same rate must still index it, as the setter does."""
    pool = FluidPool(kernel, Law(lambda tasks: assign_rate(tasks, 1.0)))
    done = []
    task = FluidTask(2.0, lambda t: done.append(kernel.now))
    pool.add(task)
    kernel.schedule_at(0.5, pool.remove, task)
    kernel.schedule_at(1.0, pool.add, task)
    kernel.run()
    assert done == [2.5]
