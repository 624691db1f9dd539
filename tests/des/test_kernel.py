"""Kernel: clock semantics, run loop, tracing."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.des.kernel import MIN_STEP, Kernel
from repro.errors import SimulationError


def test_clock_starts_at_zero(kernel):
    assert kernel.now == 0.0
    assert kernel.pending_events == 0


def test_schedule_and_run(kernel):
    seen = []
    kernel.schedule_at(1.0, seen.append, "a")
    kernel.schedule_at(0.5, seen.append, "b")
    end = kernel.run()
    assert seen == ["b", "a"]
    assert end == 1.0
    assert kernel.events_executed == 2


def test_schedule_negative_delay_rejected(kernel):
    # At time zero a negative absolute time is a negative delay.
    with pytest.raises(SimulationError):
        kernel.schedule_at(-0.1, lambda: None)


def test_schedule_at_past_rejected(kernel):
    kernel.schedule_at(1.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.schedule_at(0.5, lambda: None)


# One ulp is 2.3e-13 at 2**10, 3.6e-12 at 2**14, 1.2e-4 at 2**40.
@given(
    now=st.floats(min_value=0.0, max_value=2.0**40),
    offset=st.floats(min_value=-1.0, max_value=1.0),
)
@example(now=0.0, offset=0.0)
@example(now=1000.0, offset=1e-12)
@example(now=1000.0, offset=9e-13)
@example(now=2.0**15, offset=1e-12)
@example(now=2.0**15, offset=math.ulp(2.0**15))
@example(now=2.0**40, offset=-1.0)
def test_schedule_after_arms_strictly_after_now(now, offset):
    kernel = Kernel()
    kernel.run(until=now)
    finish = now + offset
    armed = kernel.schedule_after(finish, lambda: None).time
    floor = max(now + 1e-12, math.nextafter(now, math.inf))
    assert armed > now
    assert armed >= finish
    # The eager cluster server's formula, bit for bit: its run pins
    # depend on it.
    assert armed == max(finish, floor)
    if finish >= floor:
        assert armed == finish


@pytest.mark.parametrize("finish", [math.nan, math.inf])
def test_schedule_after_rejects_non_finite_times(kernel, finish):
    with pytest.raises(SimulationError):
        kernel.schedule_after(finish, lambda: None)


def test_rearm_after_keeps_a_pending_handle_at_the_same_time(kernel):
    kernel.schedule_at(1.0, lambda: None)
    kernel.run()
    handle = kernel.schedule_after(3.0, lambda: None)
    assert kernel.rearm_after(handle, 3.0, lambda: None) is handle
    assert kernel.pending_events == 1
    seq = handle.seq
    moved = kernel.rearm_after(handle, 2.0, lambda: None)
    assert moved is handle and not handle.cancelled
    assert handle.time == 2.0 and handle.seq > seq
    assert kernel.pending_events == 1
    # A fired, cancelled or absent handle is never kept.
    kernel.run()
    assert kernel.rearm_after(handle, 4.0, lambda: None) is not handle
    cancelled = kernel.schedule_after(5.0, lambda: None)
    cancelled.cancel()
    assert kernel.rearm_after(cancelled, 5.0, lambda: None) is not cancelled
    assert kernel.rearm_after(None, 6.0, lambda: None).time == 6.0


def test_rearm_after_moves_in_the_order_a_fresh_push_gets(kernel):
    """A re-keyed handle takes the next ``seq``: at a same-time tie it
    runs after an event pushed before the move, as a fresh push would."""
    seen = []
    moving = kernel.schedule_at(5.0, seen.append, "moved")
    kernel.schedule_at(2.0, seen.append, "pushed first")
    kernel.rearm_after(moving, 2.0, seen.append, "moved")
    kernel.schedule_at(2.0, seen.append, "pushed after")
    kernel.run()
    assert seen == ["pushed first", "moved", "pushed after"]
    assert kernel.now == 2.0 and kernel.events_executed == 3


def test_rearm_after_at_the_floor_moves_to_the_floor(kernel):
    """``schedule_after`` moves a finish within ``MIN_STEP`` of now to the
    floor, so the handle's time never equals it: re-keyed every time."""
    kernel.schedule_at(1.0, lambda: None)
    kernel.run()
    finish = 1.0 + MIN_STEP / 2
    first = kernel.schedule_after(finish, lambda: None)
    seq = first.seq
    again = kernel.rearm_after(first, finish, lambda: None)
    assert again is first and first.seq > seq
    assert first.time == max(1.0 + MIN_STEP, math.nextafter(1.0, math.inf))


def test_run_until_advances_clock_exactly(kernel):
    kernel.schedule_at(10.0, lambda: None)
    end = kernel.run(until=3.0)
    assert end == 3.0
    assert kernel.pending_events == 1
    # resuming processes the remaining event
    assert kernel.run() == 10.0


def test_run_until_beyond_queue_advances_to_until(kernel):
    kernel.schedule_at(1.0, lambda: None)
    assert kernel.run(until=5.0) == 5.0


def test_events_scheduled_during_run_execute(kernel):
    seen = []

    def first():
        kernel.schedule_at(kernel.now + 1.0, seen.append, "second")

    kernel.schedule_at(1.0, first)
    kernel.run()
    assert seen == ["second"]
    assert kernel.now == 2.0


def test_cancel_prevents_execution(kernel):
    seen = []
    handle = kernel.schedule_at(1.0, seen.append, "x")
    kernel.cancel(handle)
    kernel.run()
    assert seen == []


def test_max_events_budget(kernel):
    for i in range(5):
        kernel.schedule_at(float(i + 1), lambda: None)
    kernel.run(max_events=2)
    assert kernel.events_executed == 2
    assert kernel.pending_events == 3


def test_trace_hook_sees_each_event(kernel):
    trace = []
    kernel.trace_hook = lambda t, cb, args: trace.append(t)
    kernel.schedule_at(1.0, lambda: None)
    kernel.schedule_at(2.0, lambda: None)
    kernel.run()
    assert trace == [1.0, 2.0]


def test_reset_rewinds(kernel):
    kernel.schedule_at(1.0, lambda: None)
    kernel.run()
    kernel.reset()
    assert kernel.now == 0.0
    assert kernel.pending_events == 0


def test_run_not_reentrant(kernel):
    def reenter():
        with pytest.raises(SimulationError):
            kernel.run()

    kernel.schedule_at(1.0, reenter)
    kernel.run()


# ------------------------------------------------- single-pop run loop path
def test_run_counts_elided_peeks(kernel):
    """Each event dispatched by run() saves the peek the pre-restructure
    loop paid before its pop."""
    for i in range(4):
        kernel.schedule_at(float(i + 1), lambda: None)
    kernel.run()
    assert kernel.events_executed == 4
    assert kernel.peeks_elided == 4


def test_run_until_stops_without_popping_future_events(kernel):
    seen = []
    kernel.schedule_at(1.0, seen.append, "due")
    kernel.schedule_at(5.0, seen.append, "late")
    assert kernel.run(until=2.0) == 2.0
    assert seen == ["due"]
    assert kernel.pending_events == 1
    # The future event survived the fused pop-with-limit untouched.
    assert kernel.run() == 5.0
    assert seen == ["due", "late"]


def test_run_until_executes_events_at_the_exact_bound(kernel):
    seen = []
    kernel.schedule_at(2.0, seen.append, "at-bound")
    assert kernel.run(until=2.0) == 2.0
    assert seen == ["at-bound"]


def test_max_events_budget_with_until_advances_clock(kernel):
    kernel.schedule_at(1.0, lambda: None)
    kernel.schedule_at(10.0, lambda: None)
    # Budget drains after the first event; until lies before the next
    # event, so the clock must still advance exactly to it.
    assert kernel.run(until=5.0, max_events=1) == 5.0
    assert kernel.events_executed == 1
    assert kernel.pending_events == 1


def test_cancelled_events_do_not_block_the_run_loop(kernel):
    seen = []
    handle = kernel.schedule_at(1.0, seen.append, "cancelled")
    live = kernel.schedule_at(2.0, seen.append, "live")
    kernel.schedule_at(4.0, seen.append, "late")
    kernel.cancel(handle)
    assert kernel.run(until=3.0) == 3.0
    assert seen == ["live"]
    # A late cancel of an executed event must not corrupt the live count.
    kernel.cancel(live)
    assert kernel.pending_events == 1


def test_next_event_time(kernel):
    assert kernel.next_event_time() is None
    kernel.schedule_at(2.0, lambda: None)
    kernel.schedule_at(1.0, lambda: None)
    assert kernel.next_event_time() == 1.0
    kernel.run()
    assert kernel.next_event_time() is None
