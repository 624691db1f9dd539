"""Sharded single-scenario cluster-server simulation.

:class:`~repro.clusterserver.server.ClusterServer` runs one scenario on a
single event loop and pays O(running jobs) at *every* decision point: each
arrival or phase boundary eagerly advances every running job.  For one
huge scenario (thousands of malleable jobs) that per-event scan dominates
the wall clock — and it is exactly the work that partitions.

:class:`ShardedServer` splits the jobs across K shard-local
:class:`~repro.des.kernel.Kernel` instances and advances them with the
conservative epoch controller of :mod:`repro.des.epoch`:

* each running job's *current phase* integrates lazily — remaining work
  as of its last rate change, drained at a rate fixed between barriers —
  and the job owns exactly one kernel event, armed at that phase's
  completion; no pool and no allocation law are involved;
* an epoch ends only where the controller has something to decide: an
  arrival, a fault or a **job** completion.  Each shard keeps a lazy
  heap of the earliest time each job can complete — the exact event
  time in its last phase, the rest of its phase chain shaded by
  :data:`BOUND_RTOL` before it — and the epoch bound is the minimum of
  those and the controller's lookahead.  Phase completions before the
  bound run inside the epoch and are reported with their times;
* arrivals never enter a shard kernel: the controller owns the
  workload — a ``Sequence[JobSpec]`` or a lazy stream, one loop for both
  — and folds the next arrival time into the epoch bound as its own
  lookahead, so a shard's events are phase completions only (and
  ``ServerResult.events`` counts exactly those);
* at each epoch barrier the controller admits the due arrivals to their
  owner shards, replays the scheduler's *global* reallocation over the
  jobs' :class:`~repro.clusterserver.workload.JobView` objects and pushes
  only the changed node grants back to the shards.  A view carries no
  progress, so a barrier that admitted, completed and faulted no job (a
  phase completion, a rejected arrival) skips the allocation call
  entirely.

Determinism contract (see ``docs/sharding.md``): the
:class:`~repro.clusterserver.server.ServerResult` is **bit-identical for
every shard count** — all timing arithmetic is either
per-job (identical regardless of which shard holds the job) or performed
by the controller (identical regardless of K).  ``shards=1`` is therefore
*the* single-kernel run that the sharded-equivalence property tests
compare against.

Shards are :class:`JobShard` objects advanced one after another on the
calling thread: an epoch carries about three events, so a second core has
little to run, and a round trip to a worker process per shard per epoch
costs more than the event itself (``docs/sharding.md`` has the
measurement).  Sharding here is a determinism contract and, at hundreds
of active jobs, an algorithmic win over the eager engine (lazy per-phase
integration; both engines elide allocation-neutral policy calls), not a
parallel speed-up.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from repro.clusterserver.scheduler import Scheduler
from repro.clusterserver.server import (
    ServerResult,
    _allocate_checked,
    _compile_faults,
    _open_workload,
    finalize_result,
)
from repro.clusterserver.workload import JobSpec, JobView, grant_rate
from repro.des.epoch import EpochController
from repro.des.event_queue import EventHandle
from repro.des.fluid import is_settled
from repro.des.kernel import Kernel
from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultRuntime


@dataclass
class ShardStats:
    """Work accounting of one :meth:`ShardedServer.run`."""

    #: number of shards the scenario was partitioned into
    shards: int
    #: epoch barriers executed
    epochs: int = 0
    #: wall seconds spent advancing the shards to their epoch bounds
    barrier_wait_s: float = 0.0
    #: barriers that ran the scheduler's global reallocation
    allocations: int = 0
    #: barriers provably allocation-neutral (skipped scheduler calls)
    allocations_elided: int = 0
    #: kernel events executed per shard
    shard_events: tuple[int, ...] = ()
    #: jobs assigned per shard
    shard_jobs: tuple[int, ...] = ()
    #: wall seconds of the whole run
    wall_s: float = 0.0

    @property
    def events_total(self) -> int:
        """Kernel events summed over shards (conserved across K)."""
        return sum(self.shard_events)


#: Shared empty mapping: a barrier's grant and fault ops when it has none.
_NO_OPS: Mapping = MappingProxyType({})

#: Relative margin by which a job with phases still to run shades its
#: completion estimate into the epoch bound.  Orders of magnitude above
#: the rounding a chain of phase horizons accumulates, so the bound stays
#: a lower bound; :meth:`ShardedServer.run` raises if it ever is not.
BOUND_RTOL = 1e-9


def _rest_work(phase_work: Sequence[float]) -> list[float]:
    """Work of the phases after each phase (0.0 after the last)."""
    rest = list(accumulate(reversed(phase_work[1:])))
    rest.reverse()
    rest.append(0.0)
    return rest


class _ShardJob:
    """Shard-local runtime state of one job.

    The current phase's progress integrates lazily — ``remaining`` work
    as of ``synced``, drained at ``rate`` — exactly as a
    :class:`~repro.des.fluid.FluidTask` would, and ``event`` is the one
    kernel event armed at the phase's completion.  ``key`` is the job's
    live entry in its shard's bound heap (``entry`` its stamp, None when
    the job has no pending completion).
    """

    __slots__ = (
        "index", "spec", "phase", "rest", "rate", "remaining", "synced",
        "event", "key", "entry",
    )

    def __init__(self, index: int, spec: JobSpec, now: float) -> None:
        self.index = index
        self.spec = spec
        self.phase = 0
        self.rest = _rest_work(spec.phase_work)
        self.rate = 0.0
        self.remaining = float(spec.phase_work[0])
        self.synced = now
        self.event: Optional[EventHandle] = None
        self.key = math.inf
        self.entry: Optional[int] = None


class JobShard:
    """One partition of the scenario: a kernel and its jobs.

    All timing arithmetic here is strictly per-job (admission at the
    barrier clock, completion horizons from ``synced + remaining/rate``,
    one kernel event per job) so a job's trajectory is bit-identical no
    matter which shard owns it — the foundation of the determinism
    contract.
    """

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.kernel = Kernel()
        #: active jobs only — completed jobs are pruned immediately, so
        #: the dict is O(active) even for million-job open streams
        self.jobs: dict[int, _ShardJob] = {}
        #: every job this shard ever hosted (stats; O(1) state)
        self.jobs_seen = 0
        self._completed: list[tuple[int, bool, float]] = []
        # Lazy min-heap of (key, stamp, job): an entry is live iff
        # job.entry == stamp.  A key is a lower bound on the job's
        # completion time at its current rate.
        self._bounds: list[tuple[float, int, _ShardJob]] = []
        self._stamps = 0

    # ----------------------------------------------------------------- events
    def _arm(self, job: _ShardJob) -> None:
        """Re-arm the job's completion event for its current phase."""
        if job.event is not None:
            job.event.cancel()
            job.event = None
        if job.rate > 0.0:
            job.event = self.kernel.schedule_after(
                job.synced + job.remaining / job.rate, self._on_event, job
            )

    def _rekey(self, job: _ShardJob) -> None:
        """Push the job's earliest possible completion onto the bound heap.

        In its last phase that is the armed event time; before it, the
        rest of the phase chain at the current rate, shaded by
        :data:`BOUND_RTOL` and never below the next event.
        """
        if job.event is None:
            job.entry = None
            return
        t = job.event.time
        rest = job.rest[job.phase]
        key = t
        if rest:
            key = max(t, (t + rest / job.rate) * (1.0 - BOUND_RTOL))
        self._stamps += 1
        job.key = key
        job.entry = self._stamps
        heap = self._bounds
        heapq.heappush(heap, (key, self._stamps, job))
        if len(heap) > 4 * len(self.jobs):
            # Stale entries outnumber live ones 3 to 1: rebuild from the
            # live keys (amortized O(1) per push).
            self._bounds = heap = [
                (j.key, j.entry, j)
                for j in self.jobs.values()
                if j.entry is not None
            ]
            heapq.heapify(heap)

    def _on_event(self, job: _ShardJob) -> None:
        """The job's phase horizon: settle it, or re-arm a residual."""
        job.event = None
        now = self.kernel.now
        dt = now - job.synced
        if dt > 0.0:
            left = job.remaining - job.rate * dt
            job.remaining = left if left > 0.0 else 0.0
        job.synced = now
        spec = job.spec
        work = spec.phase_work[job.phase]
        if is_settled(now, job.remaining, work, job.rate):
            job.phase += 1
            if job.phase == len(spec.phase_work):
                job.entry = None
                # Retire immediately: the controller never addresses a
                # completed job again, so dropping it here bounds shard
                # memory to active jobs.
                del self.jobs[job.index]
                self._completed.append((job.index, True, now))
                return
            job.remaining = float(spec.phase_work[job.phase])
            self._completed.append((job.index, False, now))
        # Otherwise float drift left a real residual: re-arm it, and
        # ``schedule_after`` keeps the clock advancing, so no Zeno loop.
        self._arm(job)
        if job.key < job.event.time:
            # The old key no longer bounds the next event (it was this
            # phase's own horizon, or the job entered its last phase).
            self._rekey(job)

    # ---------------------------------------------------------------- epoch api
    def next_completion_bound(self) -> Optional[float]:
        """Earliest time any of this shard's jobs can complete, or None.

        Phase completions before it are shard-local and run inside the
        epoch; a job completion is what the controller must decide on.
        """
        heap = self._bounds
        while heap:
            key, stamp, job = heap[0]
            if job.entry == stamp:
                return key
            heapq.heappop(heap)
        return None

    def run_until(self, bound: float) -> list[tuple[int, bool, float]]:
        """Advance to the epoch bound; report ``(index, job_done, time)``
        per phase completion."""
        self.kernel.run(until=bound)
        completed, self._completed = self._completed, []
        return completed

    def apply_allocation(
        self,
        updates: Sequence[tuple[int, int, float]],
        new_specs: Sequence[tuple[int, JobSpec]] = (),
        restarts: Sequence[int] = (),
        drops: Sequence[int] = (),
    ) -> None:
        """Apply one barrier's decisions at the barrier clock: restarts,
        drops, admissions, then the controller's node-grant deltas.

        Arrivals are the controller's: it pulled each admitted spec from
        the workload, so the shard never sees an arrival event — the job
        starts existing here, at rate 0, exactly when the eager engine
        would admit it.  A restart (fault retry) starts the in-flight
        phase over at the job's current rate; a drop removes a job the
        fault layer failed.  ``factor`` is the fault layer's
        degraded-node slowdown — 1.0 unless a degrade fault is live, and
        ``x * 1.0`` is exact under IEEE arithmetic, so fault-free runs are
        bit-unchanged.
        """
        now = self.kernel.now
        jobs = self.jobs
        for index in restarts:
            job = jobs[index]
            job.remaining = float(job.spec.phase_work[job.phase])
            job.synced = now
            self._arm(job)
            self._rekey(job)
        for index in drops:
            job = jobs.pop(index)
            if job.event is not None:
                job.event.cancel()
            job.entry = None
        for index, spec in new_specs:
            jobs[index] = _ShardJob(index, spec, now)
            self.jobs_seen += 1
        for index, nodes, factor in updates:
            job = jobs[index]
            rate = grant_rate(job.spec, nodes, factor)
            old = job.rate
            if rate == old:
                continue
            if old > 0.0:
                # Fold the work done at the old rate into ``remaining``.
                dt = now - job.synced
                if dt > 0.0:
                    left = job.remaining - old * dt
                    job.remaining = left if left > 0.0 else 0.0
            job.synced = now
            job.rate = rate
            self._arm(job)
            self._rekey(job)


class _Mirror:
    """Controller-side record of one active job.

    ``view`` is all the policy sees; the rest is the result's accounting
    and, updated only under a fault plan, the phase and its remaining
    work ``rem`` as of ``rem_sync`` that a fault's lost work is
    measured against.
    """

    __slots__ = (
        "view", "spec", "index", "owner", "started_at", "finished_at",
        "node_seconds", "last_change", "rate_factor", "phase", "rem",
        "rem_sync",
    )

    def __init__(
        self, index: int, spec: JobSpec, owner: int, now: float
    ) -> None:
        self.view = JobView(spec, index)
        self.spec = spec
        self.index = index
        self.owner = owner
        self.started_at = math.nan
        self.finished_at = math.nan
        self.node_seconds = 0.0
        self.last_change = now
        self.rate_factor = 1.0
        self.phase = 0
        self.rem = spec.phase_work[0]
        self.rem_sync = now

    def close_chunk(self, now: float) -> None:
        """Book the node-seconds of the grant held since the last change."""
        self.node_seconds += self.view.nodes * (now - self.last_change)
        self.last_change = now

    def fold_rem(self, now: float) -> None:
        """Drain ``rem`` to ``now`` at the grant's :func:`grant_rate`."""
        nodes = self.view.nodes
        if now > self.rem_sync and nodes > 0:
            rate = grant_rate(self.spec, nodes, self.rate_factor)
            self.rem -= rate * (now - self.rem_sync)
        self.rem_sync = now


# --------------------------------------------------------------------------
# the sharded server
# --------------------------------------------------------------------------


class ShardedServer:
    """Cluster-server simulation partitioned over K shard kernels.

    Drop-in companion to :class:`~repro.clusterserver.server.ClusterServer`
    — same constructor shape plus ``shards``, same
    :class:`~repro.clusterserver.server.ServerResult` — with the
    determinism contract that the result is bit-identical for every
    ``shards`` value.  ``shards=1`` is the single-kernel run.
    """

    def __init__(
        self,
        total_nodes: int,
        scheduler: Scheduler,
        shards: int = 1,
        faults=None,
    ) -> None:
        if total_nodes < 1:
            raise ConfigurationError("total_nodes must be >= 1")
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        self.total_nodes = total_nodes
        self.scheduler = scheduler
        self.shards = shards
        #: compiled fault plan (``docs/faults.md``); fault replay happens
        #: controller-side at barriers, so the trace and every counter
        #: are bit-identical for every K — the runtime never crosses a
        #: shard boundary
        self.faults = _compile_faults(faults, total_nodes)
        #: accounting of the last run (None before the first)
        self.stats: Optional[ShardStats] = None

    def run(self, workload) -> ServerResult:
        """Simulate a workload to completion (deterministic in K).

        One loop for both workload shapes, entered the way the eager
        engine enters its own: a ``Sequence[JobSpec]`` gets per-job
        result dicts back, any other iterable is an open arrival stream
        of ``(arrival_time, JobSpec)`` pairs
        (:mod:`repro.clusterserver.arrivals`) summarized in
        ``result.slo``.

        The controller owns the arrivals: it buffers exactly one pending
        arrival, feeds its time into the epoch bound (the controller-side
        *lookahead*, so no epoch overshoots an arrival no shard knows
        about), and at each barrier admits due jobs to their owner shards
        via :meth:`JobShard.apply_allocation`.  Completed jobs retire in
        index order and are dropped from the decision state — controller
        mirrors and shard state are both bounded by the active-job
        count.  All decisions replay in pull order, so the result
        (including the :class:`~repro.clusterserver.metrics.SloSummary`)
        is bit-identical for every shard count.
        """
        t_start = time.perf_counter()
        K = self.shards
        arrivals, admit, sink = _open_workload(workload, self.scheduler)
        runtime = (
            FaultRuntime(self.faults, self.total_nodes)
            if self.faults is not None
            else None
        )
        stats = ShardStats(shards=K)
        shards = [JobShard(sid) for sid in range(K)]

        # Controller-side decision state — active jobs only, in
        # admission order; ``views`` is the policy's side of ``running``,
        # kept in step with it and handed out as a snapshot.
        running: dict[int, _Mirror] = {}
        views: list[JobView] = []
        #: this barrier's admissions per shard (emptied by each apply)
        new_specs: dict[int, list[tuple[int, JobSpec]]] = {}
        deferred: deque[tuple[int, int, JobSpec]] = deque()
        pending: list = [next(arrivals, None)]
        state = {"pulled": 0, "last_bound": 0.0}

        def lookahead() -> Optional[float]:
            item = pending[0]
            t = item[0] if item is not None else None
            if runtime is not None and (
                item is not None or running or deferred
            ):
                # Post-workload faults must not drag the makespan —
                # only consult the fault clock while work remains.
                ft = runtime.next_time()
                if ft is not None and (t is None or ft < t):
                    t = ft
            return t

        def admit_job(idx: int, sid: int, spec: JobSpec, now: float) -> None:
            mirror = running[idx] = _Mirror(idx, spec, sid, now)
            views.append(mirror.view)
            new_specs.setdefault(sid, []).append((idx, spec))

        def available_nodes() -> int:
            if runtime is not None:
                return runtime.capacity(self.total_nodes)
            return self.total_nodes

        def apply_faults(now: float, restarts: dict, drops: dict) -> bool:
            ordered = sorted(
                (idx, m.view.nodes) for idx, m in running.items()
            )
            fired, victims = runtime.fire(now, ordered)
            for idx, entry in victims:
                mirror = running.get(idx)
                if mirror is None:
                    entry["outcome"] = "absent"
                    continue
                mirror.fold_rem(now)
                work = mirror.spec.phase_work[mirror.phase]
                lost = work - mirror.rem
                if runtime.record_loss(idx, lost, entry) == "retry":
                    mirror.rem = work
                    restarts.setdefault(mirror.owner, []).append(idx)
                else:
                    drops.setdefault(mirror.owner, []).append(idx)
                    del running[idx]
                    views.remove(mirror.view)
            return fired

        def pull_arrivals(now: float) -> bool:
            """Admit/defer/reject every arrival due at or before now."""
            admitted = False
            while pending[0] is not None and pending[0][0] <= now:
                t, idx, spec = pending[0]
                nxt = next(arrivals, None)
                if nxt is not None and nxt[0] < t:
                    raise ConfigurationError(
                        "arrival process yielded decreasing times "
                        f"({nxt[0]} after {t}); streams must be "
                        "nondecreasing"
                    )
                pending[0] = nxt
                # Round-robin in pull (= arrival) order balances
                # shard load; the result is partition-independent,
                # so any deterministic rule works.
                sid = state["pulled"] % K
                state["pulled"] += 1
                if admit(spec, tuple(views), available_nodes()):
                    admit_job(idx, sid, spec, now)
                    admitted = True
                elif self.scheduler.defer_rejected:
                    deferred.append((idx, sid, spec))
                else:
                    sink.observe_rejection(now, spec)
            return admitted

        def drain_deferred(now: float) -> None:
            while deferred and admit(
                deferred[0][2], tuple(views), available_nodes()
            ):
                idx, sid, spec = deferred.popleft()
                admit_job(idx, sid, spec, now)

        def reallocate(now: float) -> dict[int, list[tuple[int, int, float]]]:
            """Replay the policy; return the changed grants per shard."""
            stats.allocations += 1
            allocation, granted, capacity = _allocate_checked(
                self.scheduler, tuple(views), available_nodes()
            )
            factors = None
            if runtime is not None and runtime.factors_live:
                factors = runtime.rate_factors(
                    sorted(
                        (idx, allocation.get(m.view, 0))
                        for idx, m in running.items()
                    )
                )
            updates: dict[int, list[tuple[int, int, float]]] = {}
            for mirror in running.values():
                view = mirror.view
                nodes = allocation.get(view, 0)
                if factors is None:
                    # No live degrade: the factor stands, only the grant
                    # can change.
                    if nodes == view.nodes:
                        continue
                    factor = mirror.rate_factor
                else:
                    factor = factors[mirror.index]
                    if nodes == view.nodes and factor == mirror.rate_factor:
                        continue
                if runtime is not None:
                    mirror.fold_rem(now)
                if nodes != view.nodes:
                    mirror.close_chunk(now)
                    view.nodes = nodes
                    if nodes > 0 and math.isnan(mirror.started_at):
                        mirror.started_at = now
                mirror.rate_factor = factor
                updates.setdefault(mirror.owner, []).append(
                    (mirror.index, nodes, factor)
                )
            sink.observe_utilization(now, granted, capacity)
            return updates

        def on_barrier(now: float, reports: list) -> bool:
            state["last_bound"] = now
            retired: Optional[list[tuple[int, _Mirror]]] = None
            for completed in reports:
                for idx, done, t in completed:
                    mirror = running[idx]
                    if done:
                        if t != now:
                            raise SimulationError(
                                f"job {idx} completed at t={t!r}, inside "
                                f"the epoch ending at {now!r}: the epoch "
                                "bound was not a lower bound on its "
                                "completion"
                            )
                        mirror.close_chunk(now)
                        mirror.finished_at = now
                        if retired is None:
                            retired = []
                        retired.append((idx, mirror))
                    elif runtime is not None:
                        # Fault bookkeeping only: the policy's view
                        # carries no phase.
                        mirror.phase += 1
                        mirror.rem = mirror.spec.phase_work[mirror.phase]
                        mirror.rem_sync = t
            if retired is not None:
                # Fold retirements in index order: the aggregator's call
                # sequence — hence the SloSummary — is K-independent.
                retired.sort()
                for idx, mirror in retired:
                    del running[idx]
                    views.remove(mirror.view)
                    sink.observe_completion(mirror)
            restarts = drops = _NO_OPS
            fired = False
            if runtime is not None:
                # Completions settle before faults, faults before
                # arrivals — the eager engine's tie order.
                restarts, drops = {}, {}
                fired = apply_faults(now, restarts, drops)
            admitted = pull_arrivals(now)
            if admitted or retired is not None or fired:
                # Membership changed: deferred jobs get their retry,
                # then the global policy replays.
                drain_deferred(now)
                updates = reallocate(now)
            else:
                # Phase boundaries or rejected arrivals: the views are
                # unchanged, so the previous grants stand.
                stats.allocations_elided += 1
                updates = _NO_OPS
            if not (new_specs or updates or restarts or drops):
                return True
            for sid in sorted({*new_specs, *updates, *restarts, *drops}):
                shards[sid].apply_allocation(
                    updates.get(sid, ()),
                    new_specs.get(sid, ()),
                    restarts.get(sid, ()),
                    drops.get(sid, ()),
                )
            new_specs.clear()
            return True

        controller = EpochController(shards)
        controller.run(on_barrier, lookahead=lookahead)
        stats.epochs = controller.stats.epochs
        stats.barrier_wait_s = controller.stats.barrier_wait_s
        stats.shard_events = tuple(
            shard.kernel.events_executed for shard in shards
        )
        stats.shard_jobs = tuple(shard.jobs_seen for shard in shards)
        result = finalize_result(
            self.scheduler.name,
            self.total_nodes,
            sink,
            state["last_bound"],
            stats.events_total,
            starved=len(running) + len(deferred),
            faults=runtime,
            allocations=stats.allocations,
            allocations_elided=stats.allocations_elided,
        )
        stats.wall_s = time.perf_counter() - t_start
        self.stats = stats
        return result
