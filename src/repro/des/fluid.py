"""Fluid (rate-based) task pools.

The paper's network and CPU models are *fluid* models: a data transfer is a
quantity of bytes drained at a rate that changes whenever the set of
concurrent transfers changes, and an atomic compute step is a quantity of
work drained at a rate set by the processing power left over after
communication handling.  :class:`FluidPool` implements this pattern exactly
once so both models share it:

* tasks carry ``remaining`` work in arbitrary units,
* an *allocator* (a :class:`RateAllocator`) assigns a rate to every
  active task,
* rates are piecewise-constant: they are recomputed only when pool
  membership changes (or when an external coupling invalidates them),
* the pool schedules a single kernel event at the earliest completion time.

This is event-driven exact integration of piecewise-linear progress — no
time-stepping, which keeps large simulations cheap (the optimization guide's
"compute less" rule).

The allocator protocol (dirty-set contract)
-------------------------------------------

The pool tracks the *dirty set* of tasks added and removed since the last
rate assignment and hands it to :meth:`RateAllocator.apply`, so the
allocator may recompute rates only for the tasks whose rates can actually
have changed (e.g. flows sharing a link — directly or transitively — with
the changed flow).  A subclass that implements only the full recompute
:meth:`RateAllocator._full` gets it run on every change.

The contract an incremental allocator must implement:

* after ``update(tasks, added, removed)`` returns, every task in ``tasks``
  carries the same rate a full recompute (:meth:`RateAllocator._full`)
  would assign (within float reassociation noise, bounded by ~1e-9
  relative);
* ``removed`` tasks are no longer rate-bearing; the allocator must drop any
  internal bookkeeping it holds for them, even when ``tasks`` is empty;
* :meth:`RateAllocator.refresh` handles *external* invalidations (e.g. the
  CPU model's coupling to network activity) and may use the ``hint``
  argument to bound the recomputation;
* the full path (:meth:`RateAllocator._full`) must rebuild any internal
  index from scratch — it must never depend on the incremental bookkeeping
  being in sync, because verify mode and fallbacks run it mid-stream;
* construction with ``verify=True`` enables the exact-equivalence mode:
  every incremental update is shadowed by a full recomputation and any
  disagreement beyond ``VERIFY_RTOL`` raises — the mode the equivalence
  test-suite runs under.

Shared implementations of the two dirty-set geometries live next to the
models: :class:`repro.netmodel.base.StarFlowAllocator` (per-node indices,
single-hop dirty sets) and :class:`repro.netmodel.base.LinkComponentAllocator`
(link→flow index, BFS over connected components, cascade fallback) for
networks, and :class:`repro.cpumodel.base.NodeSlicedAllocator` (per-host
slice groups with cached available power) for CPU models.  New models
should subclass one of those rather than re-implementing the bookkeeping.

Sub-linear completion horizon
-----------------------------

The pool does **not** scan tasks to find the next completion.  Progress is
integrated lazily — each task records the remaining work and the timestamp
at which it was last synced, and the true remaining work is derived on
demand from the current rate — and completion times are indexed in a lazy
min-heap:

* assigning a task a new rate (the ``task.rate`` setter, or
  :func:`assign_rate` / :func:`assign_scaled` for a group) syncs its
  progress under the old rate and marks it *retimed*;
* after the allocator runs, one pass of :meth:`FluidPool._reallocate`
  pushes one fresh entry per retimed task (``O(dirty · log n)``), or
  rebuilds the heap when the re-rate is wide, and keeps its one kernel
  event armed at the heap top; a reallocation that changed no membership
  and retimed no task leaves the armed event alone;
* stale entries are discarded lazily when they surface at the top.

Together with an incremental allocator this makes the per-event cost of the
whole hot loop ``O(dirty · log n)`` instead of ``O(n)``.
:class:`HorizonStats` counts the heap work; the perf ledger reports it as
``des.horizon_heap_ops``.

:class:`AllocatorStats` counts incremental updates, full-recompute
*fallbacks* (e.g. max-min cascades whose warm-start prefix check
failed), warm starts, verify-mode shadow recomputes, and per-task rate
assignments.

Documentation: ``docs/allocator_protocol.md`` is the contract (dirty
sets, the shared geometry bases, the warm-start invariants);
``docs/performance.md`` is the design and measurement story (solver
complexity, counters, the ledger workloads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Collection, Iterable, Optional, Sequence

from repro.des.event_queue import EventHandle
from repro.des.kernel import MIN_STEP, Kernel
from repro.errors import SimulationError

_INF = float("inf")

#: Relative tolerance under which remaining work counts as drained.
_COMPLETION_RTOL = 1e-9
#: Absolute tolerance for tasks whose total work is tiny or zero.
_COMPLETION_ATOL = 1e-12

#: Tolerance of the exact-equivalence (``verify=True``) shadow check.
VERIFY_RTOL = 1e-9

#: Below this heap size, stale entries are too cheap to be worth compacting.
_COMPACT_MIN_ENTRIES = 64
#: Least pool size at which a flush that re-rates half the pool rebuilds
#: the horizon heap instead of pushing one entry per re-rated task.
_REBUILD_MIN_TASKS = 16


def drain_threshold(work: float) -> float:
    """Remaining work at or below which a task of ``work`` is drained."""
    return max(_COMPLETION_ATOL, work * _COMPLETION_RTOL)


def is_settled(
    now: float, remaining: float, work: float, rate: float
) -> bool:
    """Whether a task synced at ``now`` has completed.

    True when its ``remaining`` work is drained, or when its residual
    horizon ``remaining / rate`` can no longer advance the clock — the
    second Zeno guard (the first is :meth:`Kernel.schedule_after`'s
    floor): the residual is below the resolution of simulated time.
    """
    # ``drain_threshold``, inlined (``not >`` keeps max()'s NaN answer).
    threshold = work * _COMPLETION_RTOL
    if not threshold > _COMPLETION_ATOL:
        threshold = _COMPLETION_ATOL
    return remaining <= threshold or now + remaining / rate == now


class FluidTask:
    """A quantity of work drained at a pool-assigned rate.

    Parameters
    ----------
    work:
        Total work in pool units (bytes for networks, seconds-at-full-power
        for CPU models).  Zero-work tasks complete immediately on admission.
    on_complete:
        Callback invoked (with the task) when the work is fully drained.
    tag:
        Arbitrary payload for the allocator (e.g. source/destination node).

    Progress is integrated lazily: ``_remaining`` holds the remaining work
    as of ``_synced_at``; the :attr:`remaining` property derives the current
    value from the rate, so the pool never has to touch untouched tasks.
    """

    __slots__ = (
        "work",
        "_remaining",
        "_synced_at",
        "_rate",
        "_entry",
        "_seq",
        "on_complete",
        "tag",
        "pool",
        "started_at",
        "finished_at",
    )

    def __init__(
        self,
        work: float,
        on_complete: Callable[["FluidTask"], None],
        tag: Any = None,
    ) -> None:
        if not 0.0 <= work < _INF:
            raise SimulationError(f"task work must be finite and >= 0, got {work!r}")
        self.work = self._remaining = float(work)
        self._synced_at = math.nan
        self._rate = 0.0
        #: id of this task's live horizon-heap entry (None = no entry)
        self._entry: Optional[int] = None
        #: pool admission order — the heap tie-breaker, so simultaneous
        #: completions fire in the same deterministic order the pre-heap
        #: linear scan produced
        self._seq = 0
        self.on_complete = on_complete
        self.tag = tag
        self.pool: Optional["FluidPool"] = None
        self.started_at: float = math.nan
        self.finished_at: float = math.nan

    # ------------------------------------------------------------- progress
    @property
    def remaining(self) -> float:
        """Remaining work, lazily integrated to the pool's current time."""
        if self.pool is not None and self._rate > 0.0:
            dt = self.pool.kernel._now - self._synced_at
            if dt > 0.0:
                return max(0.0, self._remaining - self._rate * dt)
        return self._remaining

    @remaining.setter
    def remaining(self, value: float) -> None:
        self._remaining = value
        pool = self.pool
        if pool is not None:
            self._synced_at = pool.kernel._now
            # The completion time encoded in the heap entry is now wrong.
            pool._retimed[self] = None

    @property
    def rate(self) -> float:
        """Current drain rate (pool units per second)."""
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        # The same rate with a live entry (or starved) leaves the heap state
        # exact, and was validated when first set.  A same-rate task
        # *without* an entry (e.g. re-admitted after removal with its old
        # rate still set) must still be indexed.  :func:`assign_rate` and
        # :func:`assign_scaled` are this setter over a group, and must stay
        # in step with it.
        old = self._rate
        if value == old and (value == 0.0 or self._entry is not None):
            return
        pool = self.pool
        if pool is None:
            self._rate = value
            return
        if not 0.0 <= value < _INF:
            raise SimulationError(
                f"pool {pool.name!r}: allocator set invalid rate {value!r}"
            )
        # Materialize the lazy progress integral under the old rate, then
        # mark the task retimed: its heap entry is re-indexed after the
        # allocator returns.
        now = pool.kernel._now
        if old > 0.0:
            dt = now - self._synced_at
            if dt > 0.0:
                left = self._remaining - old * dt
                self._remaining = left if left > 0.0 else 0.0
        self._synced_at = now
        self._rate = value
        pool._retimed[self] = None

    @property
    def active(self) -> bool:
        """Whether the task is currently admitted to a pool."""
        return self.pool is not None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FluidTask(work={self.work!r}, remaining={self.remaining!r}, "
            f"rate={self.rate!r}, tag={self.tag!r})"
        )


def assign_rate(tasks: Iterable[FluidTask], rate: float) -> None:
    """Give every task in ``tasks`` the same ``rate``.

    Exactly ``task.rate = rate`` for each task in order — same skips, same
    progress sync, same validation — in one call: the group assignment of
    an allocator whose law rates a whole group alike (a CPU slice group).
    """
    for task in tasks:
        old = task._rate
        if rate == old and (rate == 0.0 or task._entry is not None):
            continue
        pool = task.pool
        if pool is None:
            task._rate = rate
            continue
        if not 0.0 <= rate < _INF:
            raise SimulationError(
                f"pool {pool.name!r}: allocator set invalid rate {rate!r}"
            )
        now = pool.kernel._now
        if old > 0.0:
            dt = now - task._synced_at
            if dt > 0.0:
                left = task._remaining - old * dt
                task._remaining = left if left > 0.0 else 0.0
        task._synced_at = now
        task._rate = rate
        pool._retimed[task] = None


def assign_scaled(groups: Iterable[tuple[dict[FluidTask, float], float]]) -> None:
    """Give every task of each ``(tasks, rate)`` group ``rate`` times its
    own factor.

    Exactly ``task.rate = rate * factor`` for each ``task, factor`` item of
    each group in order — same skips, same progress sync, same validation
    — in one call: the assignment of a water-filling solve, whose flow
    classes each share one fair share under per-flow factors (``1.0`` for
    max-min, the seeded throughput factor for the packet model).
    """
    for tasks, rate in groups:
        for task, factor in tasks.items():
            value = rate * factor
            old = task._rate
            if value == old and (value == 0.0 or task._entry is not None):
                continue
            pool = task.pool
            if pool is None:
                task._rate = value
                continue
            if not 0.0 <= value < _INF:
                raise SimulationError(
                    f"pool {pool.name!r}: allocator set invalid rate {value!r}"
                )
            now = pool.kernel._now
            if old > 0.0:
                dt = now - task._synced_at
                if dt > 0.0:
                    left = task._remaining - old * dt
                    task._remaining = left if left > 0.0 else 0.0
            task._synced_at = now
            task._rate = value
            pool._retimed[task] = None


@dataclass
class AllocatorStats:
    """Work counters for allocator benchmarking and regression tests.

    ``full_fallbacks`` and ``warm_starts`` partition the cascade events of
    a component allocator: a cascade either warm-starts (the previous
    solve's saturation prefix replays, only the suffix is re-solved and
    counted in ``rates_computed``) or falls back to a full solve (every
    rate is recomputed).  See ``docs/allocator_protocol.md``.
    """

    #: incremental (dirty-set-bounded) updates
    incremental_updates: int = 0
    #: incremental updates that *fell back* to a real full recompute
    #: (e.g. a max-min cascade whose warm-start prefix check failed)
    full_fallbacks: int = 0
    #: cascades resolved by replaying the previous solve's saturation
    #: prefix and re-solving only the suffix (never also counted as a
    #: fallback)
    warm_starts: int = 0
    #: rounds *inserted* into the cached saturation order during a warm
    #: replay (an affected link undercut a cached round and was frozen in
    #: place instead of ending the prefix)
    warm_inserts: int = 0
    #: component-restricted re-solves that *repaired* the cached
    #: saturation order in place (dirty component's rounds replaced and
    #: share-merged) instead of invalidating it
    warm_merges: int = 0
    #: verify-mode shadow recomputes (diagnostics only — not real work the
    #: production configuration would perform)
    verify_recomputes: int = 0
    #: external-coupling refreshes
    refreshes: int = 0
    #: per-task rate assignments actually performed
    rates_computed: int = 0

    def reset(self) -> None:
        self.incremental_updates = 0
        self.full_fallbacks = 0
        self.warm_starts = 0
        self.warm_inserts = 0
        self.warm_merges = 0
        self.verify_recomputes = 0
        self.refreshes = 0
        self.rates_computed = 0


@dataclass
class HorizonStats:
    """Cost counters of the completion-horizon index."""

    #: horizon-heap entries placed: one per push, one per entry a rebuild
    #: indexes
    heap_pushes: int = 0
    #: horizon-heap entries popped (valid and stale)
    heap_pops: int = 0
    #: popped entries that were stale (invalidated by a rate change/removal)
    stale_discards: int = 0
    #: horizon events fired
    events: int = 0
    #: heap rebuilds, on a wide re-rate (half of a pool of 16 or more) or
    #: a stale-entry fraction over 3/4; each costs O(live entries) and
    #: drops the stale entries unpopped
    compactions: int = 0

    @property
    def heap_ops(self) -> int:
        """Total real horizon work (pushes + pops)."""
        return self.heap_pushes + self.heap_pops

    def reset(self) -> None:
        self.heap_pushes = 0
        self.heap_pops = 0
        self.stale_discards = 0
        self.events = 0
        self.compactions = 0


class RateAllocator:
    """Base class for allocators that can update rates incrementally.

    Subclasses must implement :meth:`_full` (full recompute) and may
    override :meth:`_update` / :meth:`_refresh` with dirty-set-bounded
    versions.  The public entry points wrap those with stats accounting and
    the ``verify=True`` exact-equivalence shadow check.
    """

    def __init__(self, verify: bool = False) -> None:
        self.verify = verify
        self.stats = AllocatorStats()

    # ---------------------------------------------------------- subclass api
    def _full(self, tasks: Collection[FluidTask]) -> None:
        """Assign a rate to every task (full recompute)."""
        raise NotImplementedError

    def _update(
        self,
        tasks: Collection[FluidTask],
        added: Sequence[FluidTask],
        removed: Sequence[FluidTask],
    ) -> None:
        """Incremental membership update; default falls back to full."""
        self._full(tasks)
        self.stats.rates_computed += len(tasks)

    def _refresh(self, tasks: Collection[FluidTask], hint: Any = None) -> None:
        """External invalidation (cross-pool coupling); default full."""
        self._full(tasks)
        self.stats.rates_computed += len(tasks)

    # ------------------------------------------------------------ pool entry
    def update(
        self,
        tasks: Collection[FluidTask],
        added: Sequence[FluidTask],
        removed: Sequence[FluidTask],
    ) -> None:
        """Deliver a membership delta (thin wrapper over :meth:`apply`).

        Dirty-set contract: on return every task in ``tasks`` carries the
        rate a full recompute would assign (within ~1e-9 relative), and
        all bookkeeping for ``removed`` tasks is dropped.  Cost is
        implementation-defined but bounded by the dirty set for the
        shared geometry bases (see ``docs/allocator_protocol.md``), not
        by ``len(tasks)``.
        """
        self.apply(tasks, added, removed)

    def refresh(self, tasks: Collection[FluidTask], hint: Any = None) -> None:
        """Deliver an external refresh (thin wrapper over :meth:`apply`).

        ``hint`` bounds the recomputation (e.g. the node ids whose
        transfer counts changed); ``None`` means unknown — refresh
        everything the law depends on.
        """
        self.apply(tasks, (), (), refresh=True, hint=hint)

    def apply(
        self,
        tasks: Collection[FluidTask],
        added: Sequence[FluidTask],
        removed: Sequence[FluidTask],
        refresh: bool = False,
        hint: Any = None,
    ) -> None:
        """Deliver pending membership deltas and/or an external refresh.

        The pool's entry point: when a membership change and an external
        invalidation land in the same rate assignment (e.g. a completed
        compute step's callback submits a transfer, whose activity
        notification forces a power refresh), the verify-mode shadow must
        run once, *after* both are applied — mid-stream the incremental
        state legitimately differs from a full recompute that reads the
        already-changed external state.
        """
        if added or removed:
            self.stats.incremental_updates += 1
            self._update(tasks, added, removed)
        if refresh and tasks:
            self.stats.refreshes += 1
            self._refresh(tasks, hint)
        if self.verify and tasks and (added or removed or refresh):
            # Nothing delivered → rates unchanged → shadowing would be a
            # pure-waste O(n) recompute (and would over-count the counter).
            self._verify_equivalence(tasks)

    # -------------------------------------------------------------- internals
    def _verify_equivalence(self, tasks: Collection[FluidTask]) -> None:
        """Shadow every incremental result with a full recompute."""
        self.stats.verify_recomputes += 1
        incremental = [t.rate for t in tasks]
        self._full(tasks)
        for task, inc_rate in zip(tasks, incremental):
            scale = max(abs(task.rate), abs(inc_rate), 1.0)
            if abs(task.rate - inc_rate) > VERIFY_RTOL * scale:
                raise SimulationError(
                    f"incremental allocation diverged from full recompute: "
                    f"task {task!r} incremental {inc_rate!r} != full {task.rate!r}"
                )


class FluidPool:
    """A set of fluid tasks sharing capacity under an allocator policy.

    The allocator must assign a **non-negative finite** rate to every task;
    a zero rate starves the task (legal — e.g. a compute step on a node whose
    power is fully consumed by communication handling).

    The pool tracks the dirty set of added/removed tasks between rate
    assignments and delivers it, with any external refresh, through
    :meth:`RateAllocator.apply` — also when a removal empties the pool.

    Completion times are indexed in a lazy min-heap (see the module
    docstring); :attr:`horizon` exposes its work counters.
    """

    def __init__(
        self,
        kernel: Kernel,
        allocator: RateAllocator,
        name: str = "",
    ) -> None:
        self.kernel = kernel
        self.allocator = allocator
        self.name = name or "fluid-pool"
        # Insertion-ordered membership (dict-as-set) for O(1) removal while
        # preserving the deterministic iteration order allocators rely on.
        self._tasks: dict[FluidTask, None] = {}
        # The one armed horizon event, at the earliest live heap entry.
        self._event: Optional[EventHandle] = None
        # Dirty set: membership deltas since the allocator last ran.
        self._added: list[FluidTask] = []
        self._removed: list[FluidTask] = []
        # Tasks whose rate changed during the current allocator run and
        # therefore need a fresh horizon-heap entry.
        self._retimed: dict[FluidTask, None] = {}
        # Lazy min-heap of (finish_time, admission_seq, entry_id, task); an
        # entry is live iff the task is still in this pool and
        # task._entry == entry_id.  Ties on finish time resolve by admission
        # order — the order the pre-heap linear scan iterated — keeping
        # completion-callback order deterministic and independent of the
        # (possibly hash-ordered) order in which an allocator assigns rates.
        self._heap: list[tuple[float, int, int, FluidTask]] = []
        self._entry_counter = 0
        self._admission_counter = 0
        #: horizon-index work counters (benchmarks, regression tests)
        self.horizon = HorizonStats()
        #: total completed work, for conservation checks in tests
        self.completed_work = 0.0
        self.completed_tasks = 0

    # ------------------------------------------------------------ membership
    @property
    def tasks(self) -> tuple[FluidTask, ...]:
        """Snapshot of the active tasks."""
        return tuple(self._tasks)

    def add(self, task: FluidTask) -> FluidTask:
        """Admit a task; zero-work tasks complete immediately (synchronously)."""
        if task.pool is not None:
            raise SimulationError("task is already admitted to a pool")
        now = self.kernel._now
        task.pool = self
        task.started_at = now
        task._synced_at = now
        self._admission_counter += 1
        task._seq = self._admission_counter
        work = task.work
        threshold = work * _COMPLETION_RTOL
        if not threshold > _COMPLETION_ATOL:
            threshold = _COMPLETION_ATOL
        if task._remaining <= threshold:
            # Complete without ever occupying capacity.  Still credit the
            # (possibly tiny but positive) work so conservation holds.
            task.pool = None
            task._remaining = 0.0
            task.finished_at = now
            self.completed_work += work
            self.completed_tasks += 1
            task.on_complete(task)
            # Membership may have changed re-entrantly; reallocate anyway.
            self._reallocate()
            return task
        self._tasks[task] = None
        self._added.append(task)
        self._reallocate()
        return task

    def remove(self, task: FluidTask) -> None:
        """Withdraw a task before completion (e.g. a cancelled transfer)."""
        if task.pool is not self:
            raise SimulationError("task is not admitted to this pool")
        # Materialize the lazy progress integral before detaching.
        task._remaining = task.remaining
        del self._tasks[task]
        task.pool = None
        task._entry = None
        self._retimed.pop(task, None)
        self._note_removed(task)
        self._reallocate()

    def reallocate(self, hint: Any = None) -> None:
        """Force a rate recomputation (for cross-pool couplings).

        The CPU model calls this when the *network* pool's membership
        changes, because communication handling consumes processing power.
        ``hint`` is forwarded to an incremental allocator's
        :meth:`RateAllocator.refresh` so it can bound the recomputation
        (e.g. to the nodes whose transfer counts changed).
        """
        self._reallocate(True, hint)

    def peek_horizon(self) -> float:
        """Absolute completion time of the earliest live heap entry.

        ``math.inf`` when every task is starved (no live entries).  Test
        hook: equals ``now + min(remaining / rate)`` over rated tasks.
        Reads the heap without discarding anything.
        """
        return min(
            (
                finish
                for finish, _, entry, task in self._heap
                if task.pool is self and task._entry == entry
            ),
            default=math.inf,
        )

    # -------------------------------------------------------------- internals
    def _note_removed(self, task: FluidTask) -> None:
        """Record a departure in the dirty set (cancelling a pending add)."""
        if task in self._added:
            self._added.remove(task)
        else:
            self._removed.append(task)

    def _reallocate(self, refresh: bool = False, hint: Any = None) -> None:
        """One reallocation pass: deliver, re-index, keep or move the event.

        1. Pending membership deltas and any refresh go to the allocator in
           one :meth:`RateAllocator.apply` (deltas first, so its indices
           are current; the verify shadow runs once, at the end).
        2. Every task the allocator retimed gets one heap push — or, on a
           *wide* retime (at least half of a pool of
           :data:`_REBUILD_MIN_TASKS` or more tasks, e.g. a max-min cascade
           over a whole component), the heap is rebuilt in one ``heapify``
           instead of ``k`` pushes now and ``k`` stale pops later.  It is
           also rebuilt once stale entries exceed 3/4 of it: within one
           event burst the heap never pops below its high-water mark of
           stale entries, and live entries number at most ``len(tasks)``.
           Amortized O(1): a rebuild costs O(live) and at least 3 * live
           pushes precede the next compaction.
        3. Stale entries at the top are discarded; the live top is the
           horizon.  The armed event stays if it is pending at exactly that
           time and later than ``now + MIN_STEP``; otherwise
           :meth:`Kernel.rearm_after` re-keys it there (or arms a fresh one
           once it fired).  No live entry: every task is starved, and the
           event is cancelled until membership changes.

        A pass that delivered no membership change and retimed no task
        finds the top it left last time and ends at step 3's keep test.
        """
        added, removed = self._added, self._removed
        if added or removed:
            self._added, self._removed = [], []
        tasks = self._tasks
        if added or removed or (refresh and tasks):
            self.allocator.apply(tasks, added, removed, refresh, hint)
        retimed = self._retimed
        if not tasks:
            if retimed:
                self._retimed = {}
            event = self._event
            if event is not None:
                event.cancel()
                self._event = None
            return
        heap = self._heap
        horizon = self.horizon
        if retimed:
            self._retimed = {}
            count = len(tasks)
            wide = count >= _REBUILD_MIN_TASKS and 2 * len(retimed) >= count
            entry = self._entry_counter
            pushes = 0
            for task in retimed:
                if task.pool is not self:
                    continue
                rate = task._rate
                if rate > 0.0:
                    entry += 1
                    task._entry = entry
                    if not wide:
                        heappush(
                            heap,
                            (
                                task._synced_at + task._remaining / rate,
                                task._seq,
                                entry,
                                task,
                            ),
                        )
                        pushes += 1
                else:
                    task._entry = None
            self._entry_counter = entry
            horizon.heap_pushes += pushes
            if wide:
                heap = self._rebuild_heap()
            else:
                size = len(heap)
                if size >= _COMPACT_MIN_ENTRIES and size > 4 * count:
                    heap = self._rebuild_heap()
        stale = 0
        while heap:
            top = heap[0]
            task = top[3]
            if task.pool is self and task._entry == top[2]:
                break
            heappop(heap)
            stale += 1
        else:
            horizon.heap_pops += stale
            horizon.stale_discards += stale
            # Every task is starved; progress resumes only on membership
            # change.
            event = self._event
            if event is not None:
                event.cancel()
                self._event = None
            return
        if stale:
            horizon.heap_pops += stale
            horizon.stale_discards += stale
        # At the *absolute* horizon: an event time derived from ``now``
        # would depend on when the last reschedule happened — i.e. on what
        # other tasks share the pool — breaking the shard-partitioning
        # determinism contract.
        finish = top[0]
        event = self._event
        if (
            event is not None
            and event.time == finish
            and event._queue is not None
            and finish > self.kernel._now + MIN_STEP
        ):
            return
        self._event = self.kernel.rearm_after(event, finish, self._on_horizon)

    def _rebuild_heap(self) -> list[tuple[float, int, int, FluidTask]]:
        """Re-index every rated task in a fresh heap; stale entries vanish.

        A task's live key ``(finish, seq, entry, task)`` is recomputed from
        the same ``_synced_at`` / ``_remaining`` / ``_rate`` it was pushed
        with (any change to those re-rates the task), and ``seq`` is unique
        per task, so the pop order is the one the old heap had.  Each entry
        placed counts as one push; the stale entries are dropped unpopped.
        """
        heap = [
            (
                task._synced_at + task._remaining / task._rate,
                task._seq,
                task._entry,
                task,
            )
            for task in self._tasks
            if task._entry is not None
        ]
        heapify(heap)
        self._heap = heap
        self.horizon.heap_pushes += len(heap)
        self.horizon.compactions += 1
        return heap

    def _on_horizon(self) -> None:
        self._event = None
        now = self.kernel._now
        heap = self._heap
        finished: list[FluidTask] = []
        # Heap work, counted locally and added to ``horizon`` once.
        pops = stale = pushes = 0
        while heap:
            top = heap[0]
            task = top[3]
            if task.pool is not self or task._entry != top[2]:
                heappop(heap)
                pops += 1
                stale += 1
                continue
            if top[0] > now:
                break
            heappop(heap)
            pops += 1
            task._entry = None
            rate = task._rate
            if rate <= 0.0:
                # The rate was externally zeroed without a reallocate, so
                # the entry id was never superseded: the task is starved,
                # not finished (the pre-heap scan skipped zero rates too).
                stale += 1
                continue
            # Materialize the lazy progress integral at ``now`` (the
            # ``remaining`` property, inlined).
            remaining = task._remaining
            dt = now - task._synced_at
            if dt > 0.0:
                remaining -= rate * dt
                if not remaining > 0.0:
                    remaining = 0.0
                task._remaining = remaining
            task._synced_at = now
            # ``is_settled``, inlined.
            threshold = task.work * _COMPLETION_RTOL
            if not threshold > _COMPLETION_ATOL:
                threshold = _COMPLETION_ATOL
            if remaining <= threshold or now + remaining / rate == now:
                finished.append(task)
            else:
                # Float drift left a real residual; re-index at the updated
                # completion time.  ``Kernel.schedule_after`` keeps the
                # clock advancing, so this cannot loop forever.
                self._entry_counter += 1
                task._entry = self._entry_counter
                heappush(
                    heap, (now + remaining / rate, task._seq, task._entry, task)
                )
                pushes += 1
        horizon = self.horizon
        horizon.events += 1
        horizon.heap_pops += pops
        horizon.stale_discards += stale
        horizon.heap_pushes += pushes
        retimed = self._retimed
        added = self._added
        for task in finished:
            del self._tasks[task]
            task.pool = None
            self.completed_work += task.work
            self.completed_tasks += 1
            task._remaining = 0.0
            task.finished_at = now
            if retimed:
                retimed.pop(task, None)
            if task in added:
                added.remove(task)
            else:
                self._removed.append(task)
        # Run completion callbacks *after* detaching all finished tasks so a
        # callback that admits new work sees a consistent pool.
        for task in finished:
            task.on_complete(task)
        self._reallocate()

    def __len__(self) -> int:
        return len(self._tasks)
