"""Structure-of-arrays fluid engine: the numpy backend of the fluid layer.

:class:`~repro.des.fluid.FluidPool` plus a :class:`~repro.des.fluid.RateAllocator`
is an object-per-task design: every horizon event and every rate update
touches Python objects one at a time.  PRs 2-3 made the *algorithm*
sub-linear (dirty sets, warm-started water-filling), after which the dense
all-to-all regime (the perf ledger's ``churn_dense`` workload) is bound by
per-object interpreter constants, not by operation counts.

:class:`SoaFluidEngine` removes those constants by fusing the pool and the
allocator into one engine that stores every task as a row of parallel numpy
arrays (work, remaining, rate, completion threshold, admission sequence) and
expresses the hot paths — progress integration, completion detection, the
next-horizon scan, and (in subclasses) the rate solve itself — as masked
array operations.  Task identity is a slot index; the per-slot ``tag`` is
the only Python object kept per task.

The engine mirrors :class:`~repro.des.fluid.FluidPool` semantics exactly:

* the same completion tolerances (``remaining <= max(1e-12, work * 1e-9)``)
  and both Zeno guards (``Kernel.schedule_after``'s floor and the
  ``now + remaining/rate == now`` resolution test);
* completions dispatch in ``(finish_time, admission order)`` order, all
  tasks are detached *before* any completion callback runs, and a callback
  that re-enters :meth:`add` triggers an immediate solve that delivers the
  removals and the new admission as one combined delta;
* zero-work admissions complete synchronously without occupying capacity;
* one kernel event is armed at the earliest completion horizon and
  re-armed on a membership change only when that horizon moves.

It also exposes the same observability surface — ``stats``
(:class:`~repro.des.fluid.AllocatorStats`) and ``horizon``
(:class:`~repro.des.fluid.HorizonStats`) — so ``RunRecord`` model metrics
and the benchmarks read SoA and scalar backends identically.  (There is no
heap in this engine; the heap counters stay zero and ``events`` keeps its
meaning.)

numpy is an *optional* dependency (``pip install repro[fast]``): this module
imports without it, :func:`soa_available` reports whether the backend can
run, and the scenario registry falls back to the scalar models with a
one-line hint when it cannot.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

try:  # soft dependency: the core package must import without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    np = None  # type: ignore[assignment]

from repro.des.fluid import AllocatorStats, HorizonStats, drain_threshold
from repro.des.kernel import Kernel
from repro.errors import ConfigurationError, SimulationError

_NO_NUMPY_HINT = (
    "hint: numpy not found - structure-of-arrays backends need it; "
    "install the optional extra (pip install 'repro[fast]') or keep the "
    "scalar backend"
)

_hinted = False


def soa_available() -> bool:
    """Whether the numpy structure-of-arrays backend can run."""
    return np is not None


def numpy_missing_hint() -> str:
    """The one-line hint printed when a spec selects SoA without numpy."""
    return _NO_NUMPY_HINT


def emit_numpy_hint_once(emit: Callable[[str], None]) -> None:
    """Emit the missing-numpy hint at most once per process (not an error)."""
    global _hinted
    if not _hinted:
        _hinted = True
        emit(_NO_NUMPY_HINT)


class SoaFluidEngine:
    """Fused fluid pool + rate allocator over parallel numpy arrays.

    Subclasses supply the allocation law by overriding two hooks:

    * :meth:`_solve_update` — apply a membership delta (slot index lists),
      writing ``self.rate`` for every slot whose rate changed;
    * :meth:`_verify_full` — shadow the incremental state with a reference
      solve and raise :class:`~repro.errors.SimulationError` on divergence
      (``verify=True`` mode).

    They admit tasks through :meth:`_admit`, stage the slot in ``_added``
    and call :meth:`_solve_pending`.  Completion is reported through the
    ``on_complete(tag)`` callable given at construction; ``tag`` is the
    per-slot payload given at admission.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        on_complete: Callable[[Any], None],
        verify: bool = False,
        initial_slots: int = 64,
    ) -> None:
        if np is None:
            raise ConfigurationError(
                f"engine {name!r}: numpy is required for the SoA backend "
                "(install repro[fast])"
            )
        self.kernel = kernel
        self.name = name
        self.verify = verify
        self._on_complete = on_complete
        self.stats = AllocatorStats()
        self.horizon = HorizonStats()
        self.completed_work = 0.0
        self.completed_tasks = 0
        n = max(1, int(initial_slots))
        self.work = np.zeros(n)
        self.remaining = np.zeros(n)
        self.rate = np.zeros(n)
        self.thresh = np.zeros(n)
        self.live = np.zeros(n, dtype=bool)
        self.seq = np.zeros(n, dtype=np.int64)
        self.tags: list[Any] = [None] * n
        self._free = list(range(n - 1, -1, -1))
        self._nlive = 0
        self._synced_at = kernel.now
        self._admissions = 0
        self._event = None
        self._added: list[int] = []
        self._removed: list[int] = []

    # ------------------------------------------------------------ membership
    def __len__(self) -> int:
        return self._nlive

    def _grow(self) -> None:
        old = self.work.shape[0]
        new = old * 2
        for attr in ("work", "remaining", "rate", "thresh"):
            arr = np.zeros(new)
            arr[:old] = getattr(self, attr)
            setattr(self, attr, arr)
        live = np.zeros(new, dtype=bool)
        live[:old] = self.live
        self.live = live
        seq = np.zeros(new, dtype=np.int64)
        seq[:old] = self.seq
        self.seq = seq
        self.tags.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))
        self._grow_slots(old, new)

    def _grow_slots(self, old: int, new: int) -> None:
        """Subclass hook: grow per-slot arrays alongside the base ones."""

    def _admit(self, work: float, tag: Any) -> int:
        """Admit a task; returns its slot, or -1 if it completed at once.

        Mirrors :meth:`FluidPool.add`: zero-work tasks (work at or below
        their own completion threshold) complete synchronously without
        occupying capacity, and a solve still runs afterwards because the
        completion callback may have changed membership re-entrantly.
        """
        work = float(work)
        if not work >= 0.0:
            raise SimulationError(
                f"engine {self.name!r}: invalid task work {work!r}"
            )
        self._admissions += 1
        thresh = drain_threshold(work)
        if work <= thresh:
            self.completed_work += work
            self.completed_tasks += 1
            self._on_complete(tag)
            self._solve_pending()
            return -1
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.work[slot] = work
        self.remaining[slot] = work
        self.rate[slot] = 0.0
        self.thresh[slot] = thresh
        self.seq[slot] = self._admissions
        self.live[slot] = True
        self.tags[slot] = tag
        self._nlive += 1
        return slot

    def remove(self, slot: int) -> None:
        """Withdraw a live task before completion."""
        if not (0 <= slot < self.live.shape[0]) or not self.live[slot]:
            raise SimulationError(
                f"engine {self.name!r}: slot {slot} is not a live task"
            )
        self._sync_all()
        self._detach(slot)
        self._solve_pending()

    def peek_horizon(self) -> float:
        """Absolute completion time of the earliest rated task (test hook)."""
        assert np is not None
        rated = self.live & (self.rate > 0.0)
        if not rated.any():
            return float("inf")
        horizon = self.remaining[rated] / self.rate[rated]
        return float(self._synced_at + horizon.min())

    # -------------------------------------------------------------- internals
    def _detach(self, slot: int) -> None:
        """Drop a slot from the live set and stage it in the removal delta."""
        self.live[slot] = False
        self.rate[slot] = 0.0
        self._nlive -= 1
        if slot in self._added:
            # Mirrors FluidPool._note_removed: a departure cancels a
            # pending admission instead of reporting both.
            self._added.remove(slot)
            self._release([slot])
        else:
            self._removed.append(slot)

    def _release(self, slots: list[int]) -> None:
        """Return processed slots to the free list."""
        for slot in slots:
            self.tags[slot] = None
            self._free.append(slot)

    def _sync_all(self) -> None:
        """Integrate progress for every live task up to the current time."""
        assert np is not None
        now = self.kernel.now
        dt = now - self._synced_at
        if dt < 0.0:  # pragma: no cover - defensive, kernel time is monotone
            raise SimulationError(f"engine {self.name!r}: time went backwards")
        if dt > 0.0 and self._nlive:
            # Dead slots carry rate 0, so a full-array update is safe and
            # cheaper than masking.
            self.remaining -= self.rate * dt
            np.maximum(self.remaining, 0.0, out=self.remaining)
        self._synced_at = now

    def _solve_pending(self) -> None:
        """Deliver pending deltas in one solve.

        The SoA analogue of ``FluidPool._reallocate``: hand the combined
        added/removed delta to the allocation law, verify once at the end
        when shadowing is on, and re-arm the horizon (keeping the armed
        event when the earliest completion did not move).
        """
        added, removed = self._added, self._removed
        if added or removed:
            self._added, self._removed = [], []
        elif self._nlive == 0:
            self._disarm()
            return
        self._sync_all()
        if added or removed:
            self.stats.incremental_updates += 1
            self._solve_update(added, removed)
            self._release(removed)
            if self.verify and self._nlive:
                self.stats.verify_recomputes += 1
                self._verify_full()
        if self._nlive:
            self._schedule_next()
        else:
            self._disarm()

    def _disarm(self) -> None:
        """Cancel the armed horizon event (emptied or all-starved engine)."""
        if self._event is not None:
            self.kernel.cancel(self._event)
            self._event = None

    def _schedule_next(self) -> None:
        assert np is not None
        rated = self.live & (self.rate > 0.0)
        if not rated.any():
            # Every task is starved; progress resumes on membership change.
            self._disarm()
            return
        horizon = float((self.remaining[rated] / self.rate[rated]).min())
        # ``remaining`` holds at the last sync, so this is FluidPool's
        # absolute heap key; an event already armed there stays.
        self._event = self.kernel.rearm_after(
            self._event, self._synced_at + horizon, self._on_horizon
        )

    def _on_horizon(self) -> None:
        assert np is not None
        self._event = None
        now = self.kernel.now
        self.horizon.events += 1
        rated = self.live & (self.rate > 0.0)
        # Completion candidates: tasks whose projected finish (from the last
        # sync, i.e. what FluidPool's heap entries record) has been reached.
        finish = np.full(self.rate.shape[0], np.inf)
        if rated.any():
            finish[rated] = (
                self._synced_at + self.remaining[rated] / self.rate[rated]
            )
        due = np.flatnonzero(finish <= now)
        self._sync_all()
        finished: Any = None
        if due.size:
            rem = self.remaining[due]
            # Drained, or below the resolution of simulated time (the
            # second Zeno guard); anything else keeps a real residual and
            # is re-scheduled below.
            done = (rem <= self.thresh[due]) | (
                now + rem / self.rate[due] == now
            )
            finished = due[done]
            if finished.size:
                order = np.lexsort((self.seq[finished], finish[finished]))
                finished = finished[order]
        if finished is None or not finished.size:
            self._schedule_next()
            return
        tags = [self.tags[slot] for slot in finished]
        for slot in finished:
            self.completed_work += self.work[slot]
            self.completed_tasks += 1
            self.remaining[slot] = 0.0
            self._detach(int(slot))
        # Callbacks run after every finished task is detached, in
        # completion order; a callback that admits new work solves
        # immediately and consumes the staged removals with it.
        for tag in tags:
            self._on_complete(tag)
        self._solve_pending()

    # ---------------------------------------------------------------- hooks
    def _solve_update(self, added: list[int], removed: list[int]) -> None:
        raise NotImplementedError

    def _verify_full(self) -> None:
        raise NotImplementedError
