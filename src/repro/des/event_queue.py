"""A cancellable, stable binary-heap event queue.

Events scheduled for the same timestamp pop in FIFO scheduling order, which
makes simulations deterministic regardless of heap internals.  The heap
holds ``(time, seq, handle)`` tuples: ``seq`` is unique, so every sift
compares two floats and at most two ints in C and never reaches the
handle.  A tuple is live iff its ``seq`` is the handle's current ``seq``.
Cancellation is O(1): the handle's ``seq`` is voided and the tuple is
lazily discarded on pop, the standard technique for heaps that do not
support random removal.  :meth:`EventQueue.rekey` moves a pending handle
the same way: a fresh tuple under a fresh ``seq``, the old one left stale.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError

_INF = float("inf")


class EventHandle:
    """Handle to a scheduled event; lets the owner cancel or inspect it."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        queue: "Optional[EventQueue]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: the owning queue while the event is pending; None once it was
        #: popped, cancelled or cleared
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so it will be skipped when it reaches the heap top.

        Idempotent, and keeps the owning queue's live-event count in sync
        whether cancellation goes through this method or
        :meth:`EventQueue.cancel` — both are the same code path.  Cancelling
        a handle that already executed (or whose queue was cleared) is a
        no-op for the accounting.
        """
        if self.cancelled:
            return
        self.cancelled = True
        # No heap tuple carries a negative ``seq``: the entry is now stale.
        self.seq = -1
        # Drop references early: a cancelled transfer-completion event may
        # otherwise pin a large payload in memory until it pops.
        self.callback = _cancelled_callback
        self.args = ()
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time!r}, seq={self.seq}, {state})"


def _cancelled_callback(*_args: Any) -> None:  # pragma: no cover - never called
    raise SimulationError("cancelled event executed")


class EventQueue:
    """Priority queue of timestamped callbacks with stable ordering."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventHandle]] = []
        #: last ``seq`` drawn; pushes and re-keys share it
        self._seq = -1
        self._live = 0

    def push(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute ``time``; returns a handle."""
        if not -_INF < time < _INF:
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time.__class__ is not float:
            time = float(time)
        self._seq = seq = self._seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        heappush(self._heap, (time, seq, handle))
        self._live += 1
        return handle

    def rekey(
        self,
        handle: EventHandle,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...],
    ) -> None:
        """Move the pending ``handle`` to ``time``, as a cancel-then-push would.

        The handle takes the ``seq`` the push would have drawn, so the pop
        order is the one the cancel-then-push gave; its old heap tuple goes
        stale.  The live count does not change.
        """
        if not -_INF < time < _INF:
            raise SimulationError(f"event time must be finite, got {time!r}")
        self._seq = seq = self._seq + 1
        handle.time = time
        handle.seq = seq
        handle.callback = callback
        handle.args = args
        heappush(self._heap, (time, seq, handle))

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously pushed event (idempotent)."""
        handle.cancel()

    def pop(self) -> EventHandle:
        """Remove and return the earliest live event.

        Raises :class:`SimulationError` when empty.
        """
        heap = self._heap
        while heap:
            _, seq, handle = heappop(heap)
            if seq == handle.seq:
                self._live -= 1
                # Detach so a late cancel() of an executed event cannot
                # corrupt the live count.
                handle._queue = None
                return handle
        raise SimulationError("pop from an empty event queue")

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest live event, or ``None`` when empty."""
        heap = self._heap
        while heap and heap[0][1] != heap[0][2].seq:
            heappop(heap)
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def clear(self) -> None:
        """Drop every event (used when tearing a simulation down)."""
        for _, _, handle in self._heap:
            handle._queue = None
        self._heap.clear()
        self._live = 0
