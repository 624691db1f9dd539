"""The discrete-event kernel: simulation clock plus run loop.

The kernel is deliberately minimal — callbacks and a clock.  Higher-level
conveniences (fluid pools) are layered on top so that
performance-critical models can talk to the kernel directly, as the
optimization guide recommends: keep the hot loop simple and measurable.
"""

from __future__ import annotations

import math
from heapq import heappop
from typing import Any, Callable, Optional

from repro.des.event_queue import EventHandle, EventQueue
from repro.errors import SimulationError

#: Least clock advance :meth:`Kernel.schedule_after` grants, in seconds.
MIN_STEP = 1e-12


class Kernel:
    """Simulation clock, scheduler and run loop.

    The kernel advances time by executing events in timestamp order.  Time
    never moves backwards; scheduling an event in the past raises
    :class:`SimulationError`.

    A ``trace_hook`` — ``hook(time, callback, args)`` — may be installed to
    observe every dispatched event (used by tests and by the simulator's
    event trace).
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._executed = 0
        self._peeks_elided = 0
        self.trace_hook: Optional[Callable[[float, Callable[..., None], tuple], None]] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events dispatched so far (cost metric for Table 1)."""
        return self._executed

    @property
    def peeks_elided(self) -> int:
        """Heap peeks the single-pop run loop avoided.

        The pre-restructure loop paid a ``peek_time()`` *and* a ``pop()``
        per dispatched event — two traversals of the heap top.  Each event
        dispatched through :meth:`run`'s fused pop-with-limit path counts
        one elided peek here; together with :attr:`events_executed` this
        quantifies the saved heap work.
        """
        return self._peeks_elided

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event, or ``None`` when idle.

        A peek: nothing is popped and the clock does not move.
        """
        return self._queue.peek_time()

    # ------------------------------------------------------------ scheduling
    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (t={time!r} < now={self._now!r})"
            )
        return self._queue.push(time, callback, *args)

    def schedule_after(
        self, finish: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute ``finish``, strictly after now.

        The one strict-progress floor of every self-rearming horizon event:
        armed at or before ``now`` it would fire with ``dt == 0``, advance
        nothing and re-arm itself forever.  A ``finish`` less than
        :data:`MIN_STEP` ahead moves to ``now + MIN_STEP``, or to the next
        representable time where that sum rounds back to ``now`` (past
        2**14 s); any later ``finish`` is armed bit-exactly.
        """
        now = self._now
        floor = now + MIN_STEP
        if finish <= floor:
            finish = max(floor, math.nextafter(now, math.inf))
        return self._queue.push(finish, callback, *args)

    def rearm_after(
        self,
        handle: Optional[EventHandle],
        finish: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> EventHandle:
        """Move ``handle`` to where :meth:`schedule_after` would arm ``finish``.

        A fluid pool owns one horizon event and re-arms it after every rate
        assignment.  A ``handle`` still pending at exactly that time is
        returned as is.  Any other pending ``handle`` is re-keyed in place
        (:meth:`EventQueue.rekey`): it takes the time and the ``seq`` a
        cancel-then-:meth:`schedule_after` would have given a fresh handle,
        so the event order is the same and no handle is allocated.  A
        fired, cancelled or absent ``handle`` is replaced by a fresh one.
        A kept handle is the same callback at the same time; only its
        older ``seq`` differs, which matters for a same-time tie alone.
        """
        queue = self._queue
        pending = handle is not None and handle._queue is queue
        # The floor of :meth:`schedule_after`.
        now = self._now
        floor = now + MIN_STEP
        if finish <= floor:
            finish = max(floor, math.nextafter(now, math.inf))
        elif pending and handle.time == finish:
            return handle
        if not pending:
            return queue.push(finish, callback, *args)
        queue.rekey(handle, finish, callback, args)
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (idempotent)."""
        self._queue.cancel(handle)

    # -------------------------------------------------------------- run loop
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulation time at which the loop stopped.  When
        ``until`` is given and the queue still holds later events, the clock
        is advanced exactly to ``until``.

        The loop pops each due event in a single traversal of the heap top:
        the ``until`` check is folded into the pop.  The per-event peek
        this replaces is counted in :attr:`peeks_elided`.
        """
        if self._running:
            raise SimulationError("kernel.run() is not reentrant")
        self._running = True
        budget = max_events if max_events is not None else -1
        limit = until if until is not None else math.inf
        queue = self._queue
        heap = queue._heap
        executed = self._executed
        try:
            while queue._live:
                if budget == 0:
                    # Budget exhaustion is a once-per-run exit, so a peek
                    # here (to honour the until-advance contract) is cheap.
                    next_time = queue.peek_time()
                    if until is not None and (
                        next_time is None or next_time > until
                    ):
                        self._now = max(self._now, until)
                    break
                # A live event exists, so the heap holds a live tuple:
                # discard stale heads (cancelled or re-keyed) until it.
                time, seq, handle = heap[0]
                while seq != handle.seq:
                    heappop(heap)
                    time, seq, handle = heap[0]
                if time > limit:
                    # The earliest live event lies beyond ``until``.
                    self._now = max(self._now, until)
                    break
                heappop(heap)
                queue._live -= 1
                # Detach so a late cancel() of an executed event cannot
                # corrupt the live count.
                handle._queue = None
                self._now = time
                self._executed += 1
                if self.trace_hook is not None:
                    self.trace_hook(time, handle.callback, handle.args)
                handle.callback(*handle.args)
                if budget > 0:
                    budget -= 1
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
            self._peeks_elided += self._executed - executed
        return self._now

    def reset(self) -> None:
        """Clear the queue and rewind the clock to zero."""
        if self._running:
            raise SimulationError("cannot reset a running kernel")
        self._queue.clear()
        self._now = 0.0
        self._executed = 0
        self._peeks_elided = 0
