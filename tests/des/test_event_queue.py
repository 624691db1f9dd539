"""Event queue: ordering, stability, cancellation."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.des.event_queue import EventQueue
from repro.errors import SimulationError


def test_pop_orders_by_time():
    q = EventQueue()
    order = []
    for t in (3.0, 1.0, 2.0):
        q.push(t, order.append, t)
    while q:
        h = q.pop()
        h.callback(*h.args)
    assert order == [1.0, 2.0, 3.0]


def test_fifo_tie_breaking_at_equal_times():
    q = EventQueue()
    for i in range(10):
        q.push(1.0, lambda: None)
    seqs = [q.pop().seq for _ in range(10)]
    assert seqs == sorted(seqs)


def test_fifo_at_equal_times_survives_cancellations():
    """The heap orders ``(time, seq)`` tuples: cancelling some of a run of
    same-time events, then pushing more at that time, pops the survivors
    in scheduling order, before any later time."""
    q = EventQueue()
    handles = [q.push(1.0, lambda: None) for _ in range(6)]
    q.push(0.5, lambda: None)
    for i in (0, 3, 4):
        q.cancel(handles[i])
    late = [q.push(1.0, lambda: None) for _ in range(3)]
    q.push(2.0, lambda: None)
    q.cancel(late[1])
    popped = [q.pop() for _ in range(len(q))]
    assert [h.time for h in popped] == [0.5] + [1.0] * 5 + [2.0]
    assert popped[1:6] == [handles[1], handles[2], handles[5], late[0], late[2]]


def test_handles_are_not_orderable():
    """Ordering lives in the heap's tuples, not on the handle."""
    q = EventQueue()
    a, b = q.push(1.0, lambda: None), q.push(2.0, lambda: None)
    with pytest.raises(TypeError):
        a < b  # noqa: B015


def test_cancel_skips_event():
    q = EventQueue()
    h1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.cancel(h1)
    assert len(q) == 1
    assert q.pop().time == 2.0


def test_cancel_is_idempotent():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    q.cancel(h)
    q.cancel(h)
    assert len(q) == 0


def test_direct_handle_cancel_updates_live_count():
    """Regression: ``EventHandle.cancel()`` called directly (not via
    ``EventQueue.cancel``) used to leave the queue's live count stale, so
    ``len(queue)``/``bool(queue)`` drifted and ``Kernel.pending_events``
    over-reported."""
    q = EventQueue()
    h1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    h1.cancel()
    assert len(q) == 1
    assert bool(q)
    assert q.pop().time == 2.0
    assert len(q) == 0
    assert not q


def test_direct_handle_cancel_is_idempotent():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    h.cancel()
    h.cancel()
    q.cancel(h)
    assert len(q) == 0


def test_mixed_cancel_paths_agree():
    """Cancelling via the handle then the queue (or vice versa) must only
    decrement the live count once."""
    q = EventQueue()
    h1 = q.push(1.0, lambda: None)
    h2 = q.push(2.0, lambda: None)
    q.push(3.0, lambda: None)
    h1.cancel()
    q.cancel(h1)
    q.cancel(h2)
    h2.cancel()
    assert len(q) == 1


def test_cancel_after_pop_does_not_corrupt_count():
    """A handle that already executed is detached; a late cancel must not
    decrement the live count of unrelated events."""
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert q.pop() is h
    h.cancel()
    q.cancel(h)
    assert len(q) == 1


def test_cancel_after_clear_is_noop():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    q.clear()
    h.cancel()
    assert len(q) == 0


def test_peek_time_skips_cancelled():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    q.push(5.0, lambda: None)
    q.cancel(h)
    assert q.peek_time() == 5.0


def test_pop_empty_raises():
    with pytest.raises(SimulationError):
        EventQueue().pop()


def test_non_finite_time_rejected():
    q = EventQueue()
    with pytest.raises(SimulationError):
        q.push(math.inf, lambda: None)
    with pytest.raises(SimulationError):
        q.push(math.nan, lambda: None)


def test_clear_empties_queue():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.clear()
    assert not q
    assert q.peek_time() is None


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_pop_sequence_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = [q.pop().time for _ in range(len(times))]
    assert popped == sorted(popped)


@given(
    st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=100),
    st.data(),
)
def test_cancellation_preserves_order_of_rest(times, data):
    q = EventQueue()
    handles = [q.push(t, lambda: None) for t in times]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=len(times) - 1)
    )
    for i in to_cancel:
        q.cancel(handles[i])
    popped = [q.pop().time for _ in range(len(q))]
    assert popped == sorted(popped)
    assert len(popped) == len(times) - len(to_cancel)
