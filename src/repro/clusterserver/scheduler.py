"""Node-allocation policies for the cluster server.

Three policies bracket the design space the paper motivates:

* :class:`StaticScheduler` — conventional fixed allocation: a job gets its
  nodes at start and keeps them to the end (the baseline the paper argues
  against),
* :class:`EquipartitionScheduler` — classic malleable scheduling: nodes
  divided evenly among running jobs, reallocated on arrivals/departures,
* :class:`AdaptiveEfficiencyScheduler` — dynamic-efficiency-aware: jobs
  whose *current phase* no longer uses nodes efficiently (as the LU tail
  iterations don't) are shrunk, releasing nodes for queued or efficient
  jobs — the policy the paper's simulator exists to enable.

Two *wrapper* policies target the open-system regime (arrival streams
served indefinitely, see ``docs/workloads.md``), composing around any of
the above:

* :class:`AdmissionControlScheduler` — reject or defer new jobs when the
  queue or load crosses a limit, bounding sojourn times under overload,
* :class:`AutoscalingScheduler` — grow/shrink the usable node pool
  against utilization targets, modeling an elastic cluster.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

from repro.clusterserver.workload import JobSpec, MalleableJob
from repro.errors import ConfigurationError


class Scheduler(ABC):
    """Decides each running job's node count at every scheduling point."""

    name = "scheduler"

    #: Whether :meth:`allocate` depends only on *membership state*: the
    #: running set and its order, each job's spec, current node grant and
    #: done flag — never on job progress (``phase``,
    #: ``remaining_in_phase``, ``remaining_work``).  All built-in policies
    #: qualify.  Both engines *rely* on it — this is the elision rule,
    #: stated once: at a decision point where no job was admitted, none
    #: completed and no fault fired, only phase indices and within-phase
    #: progress have changed, so the flag licenses skipping the
    #: reallocation call entirely; the previous grants stand.  A
    #: phase-reading policy under that elision would silently run on
    #: stale grants, and nothing checks the label at run time (``repro
    #: check`` REP-D006 does, statically).  Set to ``False`` in a
    #: subclass that reads any job progress (including the phase index):
    #: :class:`~repro.clusterserver.server.ClusterServer` then calls
    #: :meth:`allocate` at every event, and ``ShardedServer`` — whose
    #: controller sees phase-granular mirrors only — rejects the policy.
    progress_insensitive = True

    #: Open-system engines only: when :meth:`admit` refuses a job, should
    #: it be *deferred* (retried at the next membership change) instead of
    #: rejected outright?  Plain policies admit everything, so the flag is
    #: only meaningful on admission-control wrappers.
    defer_rejected = False

    @abstractmethod
    def allocate(
        self, running: Sequence[MalleableJob], total_nodes: int
    ) -> dict[MalleableJob, int]:
        """Return the node count for every running job (0 allowed).

        The sum over jobs must not exceed ``total_nodes``.
        """

    def admit(
        self, spec: JobSpec, running: Sequence[MalleableJob], total_nodes: int
    ) -> bool:
        """Open-system admission hook: accept ``spec`` into the system?

        Called by the open-system engines for every arrival *before* the
        job joins the running set.  The default admits everything (the
        closed-system behaviour).  Must be progress-insensitive under the
        same contract as :meth:`allocate`.
        """
        return True

    def capacity(self, total_nodes: int) -> int:
        """Nodes currently usable (autoscalers shrink this below total)."""
        return total_nodes


def _clamp(job: MalleableJob, nodes: int) -> int:
    return max(
        0, min(int(nodes), job.spec.max_nodes)
    )


class StaticScheduler(Scheduler):
    """Fixed allocation: first-come first-served, never resized.

    A job receives ``nodes_per_job`` when enough nodes are free, and holds
    them until completion; later arrivals queue.
    """

    name = "static"

    def __init__(self, nodes_per_job: int) -> None:
        if nodes_per_job < 1:
            raise ConfigurationError("nodes_per_job must be >= 1")
        self.nodes_per_job = nodes_per_job

    def allocate(
        self, running: Sequence[MalleableJob], total_nodes: int
    ) -> dict[MalleableJob, int]:
        allocation: dict[MalleableJob, int] = {}
        free = total_nodes
        for job in running:
            if job.nodes > 0:
                # Static: once granted, keep exactly the same allocation.
                allocation[job] = job.nodes
                free -= job.nodes
        for job in running:
            if job not in allocation or allocation[job] == 0:
                want = _clamp(job, self.nodes_per_job)
                if want <= free:
                    allocation[job] = want
                    free -= want
                else:
                    allocation[job] = 0
        return allocation


class FcfsScheduler(Scheduler):
    """First-come first-served at each job's *requested* size.

    Jobs receive ``spec.request`` nodes in arrival order and keep them to
    completion.  Without backfill, a large job at the head of the queue
    blocks everything behind it; with ``backfill=True`` later jobs that fit
    in the leftover nodes start immediately.  (Jobs are fluid and have no
    reservations, so this is the aggressive/"EASY-without-reservations"
    flavour of backfilling.)
    """

    def __init__(self, backfill: bool = False) -> None:
        self.backfill = backfill

    @property
    def name(self) -> str:  # type: ignore[override]
        return "fcfs+backfill" if self.backfill else "fcfs"

    def allocate(
        self, running: Sequence[MalleableJob], total_nodes: int
    ) -> dict[MalleableJob, int]:
        allocation: dict[MalleableJob, int] = {}
        free = total_nodes
        # Started jobs are rigid: they keep their grant.
        for job in running:
            if job.nodes > 0:
                allocation[job] = job.nodes
                free -= job.nodes
        queued = sorted(
            (j for j in running if allocation.get(j, 0) == 0),
            key=lambda j: j.spec.arrival,
        )
        for job in queued:
            want = _clamp(job, job.spec.request) or job.spec.min_nodes
            if want <= free:
                allocation[job] = want
                free -= want
            else:
                allocation[job] = 0
                if not self.backfill:
                    break  # head-of-line blocking
        for job in queued:
            allocation.setdefault(job, 0)
        return allocation


class EquipartitionScheduler(Scheduler):
    """Divide the cluster evenly among running jobs (classic malleable)."""

    name = "equipartition"

    def allocate(
        self, running: Sequence[MalleableJob], total_nodes: int
    ) -> dict[MalleableJob, int]:
        active = [j for j in running if not j.done]
        if not active:
            return {}
        base = total_nodes // len(active)
        extra = total_nodes % len(active)
        allocation = {}
        free = 0
        for i, job in enumerate(sorted(active, key=lambda j: j.spec.arrival)):
            share = base + (1 if i < extra else 0)
            granted = _clamp(job, max(share, job.spec.min_nodes if share else 0))
            allocation[job] = min(granted, share) if share else 0
            free += share - allocation[job]
        # Redistribute capped-away nodes greedily by arrival order.
        for job in sorted(active, key=lambda j: j.spec.arrival):
            if free <= 0:
                break
            room = job.spec.max_nodes - allocation[job]
            take = min(room, free)
            allocation[job] += take
            free -= take
        return allocation


class AdaptiveEfficiencyScheduler(Scheduler):
    """Shrink jobs whose current phase uses nodes inefficiently.

    For each job, pick the largest node count whose *marginal* efficiency
    stays above ``efficiency_floor`` — i.e. stop adding nodes once an extra
    node buys less than ``efficiency_floor`` of a node's worth of
    throughput.  Freed nodes go to queued/efficient jobs, raising the
    cluster's service rate exactly as section 8 of the paper describes
    ("the service rate of the cluster can be significantly increased if
    the deallocated compute nodes are assigned to other applications").
    """

    name = "adaptive"

    def __init__(self, efficiency_floor: float = 0.5) -> None:
        if not 0.0 < efficiency_floor <= 1.0:
            raise ConfigurationError("efficiency_floor must be in (0, 1]")
        self.efficiency_floor = efficiency_floor

    def _desired(self, job: MalleableJob, cap: int) -> int:
        """The job's efficient size, at most ``cap`` nodes.

        The marginal-rate scan stops at the same n whatever the cap, so it
        runs once per job (uncapped) and every call clamps the result.
        """
        if min(cap, job.spec.max_nodes) < 1:
            return job.spec.min_nodes
        floor = self.efficiency_floor
        priced = job.efficient_size
        if priced is None or priced[0] != floor:
            priced = job.efficient_size = (floor, self._efficient(job.spec))
        return min(cap, priced[1])

    def _efficient(self, spec: JobSpec) -> int:
        """Largest n up to ``max_nodes`` whose marginal rate stays >= floor."""
        best = 1
        prev_rate = 0.0
        for n in range(1, spec.max_nodes + 1):
            rate = n * spec.efficiency(n)
            if n > 1 and rate - prev_rate < self.efficiency_floor:
                break
            best = n
            prev_rate = rate
        return best

    def allocate(
        self, running: Sequence[MalleableJob], total_nodes: int
    ) -> dict[MalleableJob, int]:
        active = sorted(
            (j for j in running if not j.done), key=lambda j: j.spec.arrival
        )
        if not active:
            return {}
        allocation = {job: 0 for job in active}
        free = total_nodes
        # First pass: everyone gets their minimum, by arrival order.
        for job in active:
            grant = min(job.spec.min_nodes, free)
            allocation[job] = grant
            free -= grant
            if free <= 0:
                break
        # Second pass: grow each job up to its efficient size.
        for job in active:
            if free <= 0:
                break
            desired = self._desired(job, allocation[job] + free)
            grow = max(0, desired - allocation[job])
            take = min(grow, free)
            allocation[job] += take
            free -= take
        return allocation


class AdmissionControlScheduler(Scheduler):
    """Reject or defer arrivals past a queue-length or load threshold.

    Wraps any inner policy: :meth:`allocate` delegates untouched, while
    :meth:`admit` refuses a new job when any configured limit is hit —

    * ``max_active`` — total jobs in the system (running + queued),
    * ``max_queued`` — jobs admitted but still holding zero nodes,
    * ``load_max`` — granted nodes as a fraction of the cluster
      (e.g. ``0.9`` refuses arrivals while >= 90% of nodes are busy).

    ``defer=True`` parks refused jobs for retry at the next membership
    change instead of rejecting them outright (rejects count toward the
    run's rejection rate, deferrals toward its waiting time).  Only the
    open-system engines consult :meth:`admit`; under a closed workload
    list the wrapper is inert.
    """

    def __init__(
        self,
        inner: Scheduler,
        max_active: Optional[int] = None,
        max_queued: Optional[int] = None,
        load_max: Optional[float] = None,
        defer: bool = False,
    ) -> None:
        if max_active is None and max_queued is None and load_max is None:
            raise ConfigurationError(
                "admission control needs at least one limit: max_active, "
                "max_queued or load_max"
            )
        if max_active is not None and max_active < 1:
            raise ConfigurationError("max_active must be >= 1")
        if max_queued is not None and max_queued < 0:
            raise ConfigurationError("max_queued must be >= 0")
        if load_max is not None and not 0.0 < load_max <= 1.0:
            raise ConfigurationError("load_max must be in (0, 1]")
        self.inner = inner
        self.max_active = max_active
        self.max_queued = max_queued
        self.load_max = load_max
        self.defer_rejected = defer

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"admission+{self.inner.name}"

    @property
    def progress_insensitive(self) -> bool:  # type: ignore[override]
        # admit() reads only membership state (counts and grants), so the
        # wrapper is exactly as shardable as its inner policy.
        return self.inner.progress_insensitive

    def admit(
        self, spec: JobSpec, running: Sequence[MalleableJob], total_nodes: int
    ) -> bool:
        if self.max_active is not None and len(running) >= self.max_active:
            return False
        if self.max_queued is not None:
            queued = sum(1 for j in running if j.nodes == 0)
            if queued >= self.max_queued:
                return False
        if self.load_max is not None:
            granted = sum(j.nodes for j in running)
            if granted >= self.load_max * total_nodes:
                return False
        return True

    def allocate(
        self, running: Sequence[MalleableJob], total_nodes: int
    ) -> dict[MalleableJob, int]:
        return self.inner.allocate(running, total_nodes)

    def capacity(self, total_nodes: int) -> int:
        return self.inner.capacity(total_nodes)


class AutoscalingScheduler(Scheduler):
    """Grow/shrink the usable node pool against utilization targets.

    Models an elastic cluster: the inner policy allocates against a
    *pool* of ``[min_nodes, total_nodes]`` nodes rather than the full
    cluster.  At every membership change (arrival or completion) the
    pool resizes by ``step`` nodes: utilization at or above
    ``utilization_high`` grows it, at or below ``utilization_low``
    shrinks it (never below the current grant).  ``step=0`` defaults to
    one eighth of the cluster.

    Resizing keyed to membership *changes* keeps :meth:`allocate`
    idempotent for unchanged inputs — the property both engines'
    reallocation elision relies on — so the wrapper is exactly as
    shardable as its inner policy.
    """

    def __init__(
        self,
        inner: Scheduler,
        min_nodes: int = 1,
        utilization_low: float = 0.5,
        utilization_high: float = 0.9,
        step: int = 0,
    ) -> None:
        if min_nodes < 1:
            raise ConfigurationError("min_nodes must be >= 1")
        if not 0.0 <= utilization_low < utilization_high <= 1.0:
            raise ConfigurationError(
                "need 0 <= utilization_low < utilization_high <= 1"
            )
        if step < 0:
            raise ConfigurationError("step must be >= 0")
        self.inner = inner
        self.min_nodes = min_nodes
        self.utilization_low = utilization_low
        self.utilization_high = utilization_high
        self.step = step
        self._pool: Optional[int] = None
        self._last_granted = 0
        self._signature: Optional[tuple[str, ...]] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"autoscale+{self.inner.name}"

    @property
    def progress_insensitive(self) -> bool:  # type: ignore[override]
        return self.inner.progress_insensitive

    def capacity(self, total_nodes: int) -> int:
        if self._pool is None:
            return min(self.min_nodes, total_nodes)
        return self._pool

    def allocate(
        self, running: Sequence[MalleableJob], total_nodes: int
    ) -> dict[MalleableJob, int]:
        if self._pool is None:
            self._pool = min(self.min_nodes, total_nodes)
        step = self.step or max(1, total_nodes // 8)
        floor = min(self.min_nodes, total_nodes)
        signature = tuple(j.spec.name for j in running)
        if signature != self._signature:
            # Membership changed: one resize decision per change.
            self._signature = signature
            util = self._last_granted / self._pool if self._pool else 0.0
            if util >= self.utilization_high:
                self._pool = min(total_nodes, self._pool + step)
            elif util <= self.utilization_low:
                self._pool = max(
                    floor, self._last_granted, self._pool - step
                )
        allocation = self.inner.allocate(running, self._pool)
        granted = sum(allocation.values())
        # Cold-start escape: a small pool can leave rigid policies unable
        # to grant anything (e.g. static wanting 8 of a 2-node pool).
        # Growing until the first grant (or the full cluster) is
        # deterministic and idempotent, so it cannot starve the run.
        active = any(not j.done for j in running)
        while active and granted == 0 and self._pool < total_nodes:
            self._pool = min(total_nodes, self._pool + step)
            allocation = self.inner.allocate(running, self._pool)
            granted = sum(allocation.values())
        self._last_granted = granted
        return allocation
