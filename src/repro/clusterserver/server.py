"""The cluster server simulation itself.

Event-driven over :class:`~repro.des.kernel.Kernel`: jobs arrive,
progress as fluid work at ``nodes x efficiency(nodes)``, and the scheduler
reallocates whenever membership changed — a job admitted, a job completed,
a fault fired (:func:`_membership_changed`).  The policy sees
:class:`~repro.clusterserver.workload.JobView` objects, which carry no
progress, so a phase boundary alone cannot change its answer.

Two workload shapes, one entry point, one loop: :meth:`ClusterServer.run`
takes either a materialized ``Sequence[JobSpec]`` (the paper's §9 shape)
or any other iterable of ``(arrival_time, JobSpec)`` pairs (an open
arrival stream, see :mod:`repro.clusterserver.arrivals`).  Both enter the
same loop as a stream of ``(time, index, spec)`` arrivals pulled on
demand.  Only where a settled job goes differs: a Sequence admits every
job and keeps the completed ones for per-job result dicts (state O(total
jobs)); a stream consults the policy's admission hook and retires into a
streaming :class:`~repro.clusterserver.metrics.SloAggregator`, so memory
stays O(active jobs) no matter how long the stream is.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.clusterserver.metrics import SloAggregator, SloSummary
from repro.clusterserver.scheduler import Scheduler
from repro.clusterserver.workload import (
    PHASE_DONE_ATOL, JobSpec, JobView, MalleableJob, grant_rate,
)
from repro.des.kernel import Kernel
from repro.errors import ConfigurationError
from repro.faults import CompiledFaultPlan, FaultPlan, FaultRuntime


def _compile_faults(faults, total_nodes: int):
    """Normalize a ctor ``faults`` argument to a compiled plan or ``None``.

    An eventless plan normalizes to ``None`` so it selects the exact
    fault-free code path: an empty plan has literally nothing to pay.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        faults = faults.compile(total_nodes)
    if not isinstance(faults, CompiledFaultPlan):
        raise ConfigurationError(
            "faults must be a FaultPlan or CompiledFaultPlan, "
            f"got {type(faults).__name__}"
        )
    return faults if faults.entries else None


@dataclass
class ServerResult:
    """Outcome of one workload under one scheduling policy."""

    scheduler: str
    total_nodes: int
    makespan: float
    job_turnaround: dict[str, float]
    job_node_seconds: dict[str, float]
    total_work: float
    #: seconds each job waited from arrival to its first node grant
    job_wait: dict[str, float] = field(default_factory=dict)
    #: turnaround over dedicated-cluster run time at the requested size
    job_slowdown: dict[str, float] = field(default_factory=dict)
    #: kernel events executed to produce this result (summed over shard
    #: kernels for a sharded run — the cost metric the sharding property
    #: tests conserve)
    events: int = 0
    #: decision points that called the policy, and those that left
    #: membership unchanged and skipped the call (:func:`_membership_changed`)
    allocations: int = 0
    allocations_elided: int = 0
    #: streaming SLO aggregates of an open-system run (None for closed
    #: runs, whose per-job dicts carry the full information)
    slo: Optional[SloSummary] = None
    #: jobs that ran to completion (== len(job_turnaround) when closed)
    jobs_completed: int = 0
    #: jobs turned away by admission control (open-system runs only)
    jobs_rejected: int = 0
    #: fault-layer outcome (``docs/faults.md``); zeros without a plan
    retries: int = 0
    lost_work: float = 0.0
    failed_jobs: int = 0
    #: applied fault operations in replay order (bit-identical across
    #: shard counts — part of the sharded determinism contract)
    fault_trace: tuple = ()

    def _consumed_node_seconds(self) -> float:
        if self.job_node_seconds:
            return sum(self.job_node_seconds.values())
        return self.slo.node_seconds if self.slo is not None else 0.0

    @property
    def mean_turnaround(self) -> float:
        if self.job_turnaround:
            return sum(self.job_turnaround.values()) / len(self.job_turnaround)
        if self.slo is not None:
            return self.slo.sojourn_mean
        return float("nan")

    @property
    def mean_wait(self) -> float:
        """Average queueing delay before the first allocation."""
        if self.job_wait:
            return sum(self.job_wait.values()) / len(self.job_wait)
        if self.slo is not None:
            return self.slo.wait_mean
        return float("nan")

    @property
    def mean_slowdown(self) -> float:
        """Average turnaround stretch relative to a dedicated cluster."""
        if self.job_slowdown:
            return sum(self.job_slowdown.values()) / len(self.job_slowdown)
        if self.slo is not None:
            return self.slo.slowdown_mean
        return float("nan")

    @property
    def max_slowdown(self) -> float:
        """Worst-case stretch — head-of-line blocking shows up here."""
        if self.job_slowdown:
            return max(self.job_slowdown.values())
        if self.slo is not None:
            return self.slo.slowdown_max
        return float("nan")

    @property
    def cluster_efficiency(self) -> float:
        """Useful work over consumed node-seconds (the paper's concern)."""
        consumed = self._consumed_node_seconds()
        return self.total_work / consumed if consumed > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Consumed node-seconds over offered capacity (nodes x makespan)."""
        capacity = self.total_nodes * self.makespan
        if capacity <= 0:
            return 0.0
        return self._consumed_node_seconds() / capacity

    @property
    def service_rate(self) -> float:
        """Useful work completed per allocated-node-second of *capacity*.

        The quantity section 8 argues dynamic deallocation improves: work
        delivered per node-second the cluster offered.
        """
        capacity = self.total_nodes * self.makespan
        return self.total_work / capacity if capacity > 0 else 0.0

    @property
    def throughput(self) -> float:
        """Jobs completed per unit time."""
        if self.makespan <= 0:
            return 0.0
        count = len(self.job_turnaround) or self.jobs_completed
        return count / self.makespan


class _KeptJobs:
    """Retirement of a ``Sequence[JobSpec]`` run: keep, don't fold.

    Answers the ``observe_*`` calls the run loops make on a stream's
    :class:`SloAggregator`, but keeps each completed
    :class:`MalleableJob` at its spec position instead of folding and
    forgetting it, so :func:`finalize_result` can report per-job dicts
    in workload order.  (No ``observe_rejection``: a Sequence admits
    every job.)
    """

    def __init__(self, count: int) -> None:
        self.jobs: list[Optional[MalleableJob]] = [None] * count

    def observe_completion(self, job: MalleableJob) -> None:
        self.jobs[job.index] = job

    def observe_utilization(
        self, now: float, granted: int, capacity: int
    ) -> None:
        """A Sequence's result carries no utilization series."""


def _open_workload(workload, scheduler: Scheduler):
    """Everything the run loops know about workload shape, in one place.

    Returns ``(arrivals, admit, sink)``.  ``arrivals`` yields
    ``(time, index, spec)`` in nondecreasing time; ``index`` is the job
    identity the fault layer addresses, so it travels with the arrival: a
    Sequence's spec position (stable-sorted by arrival, ties in spec
    order), a stream's pull position.  A Sequence admits every job and
    keeps the completed ones (:class:`_KeptJobs`); any other iterable is
    a stream of ``(arrival_time, JobSpec)`` pairs that asks the policy's
    admission hook and folds completions into an :class:`SloAggregator`.
    A Sequence's per-job results are keyed by job name, so its names must
    be unique.
    """
    if isinstance(workload, SequenceABC):
        names = Counter(spec.name for spec in workload)
        repeated = sorted(name for name, n in names.items() if n > 1)
        if repeated:
            raise ConfigurationError(f"duplicate job names: {repeated}")
        ordered = sorted(enumerate(workload), key=lambda p: p[1].arrival)
        return (
            ((spec.arrival, i, spec) for i, spec in ordered),
            lambda spec, running, avail: True,
            _KeptJobs(len(workload)),
        )
    return (
        ((t, i, spec) for i, (t, spec) in enumerate(workload)),
        scheduler.admit,
        SloAggregator(),
    )


def _membership_changed(
    admitted: bool, completed: bool, fired: bool, first: bool
) -> bool:
    """The eager engine's elision rule: ask the policy at this event?

    Only when a job was admitted or completed, a fault fired, or no
    decision has been made yet.  Between such events only job progress
    moves, and a :class:`~repro.clusterserver.workload.JobView` does not
    show it, so the previous grants stand.
    """
    return admitted or completed or fired or first


def advance_running(
    running: Sequence[MalleableJob], dt: float
) -> tuple[float, bool]:
    """The eager engine's one pass per event over its running jobs.

    Advances each job ``dt`` seconds at its ``work_rate`` (``dt == 0``
    advances none) and returns ``(horizon, finished)``: seconds to the
    first phase end at the current rates (``inf`` if none progresses)
    and whether any job ran out of phases.
    """
    horizon = math.inf
    finished = False
    for job in running:
        rate = job.work_rate
        phase = job.phase
        phases = job.phases
        remaining = job.remaining_in_phase
        if dt > 0:
            job.node_seconds += job.view.nodes * dt
            progress = rate * dt
            while progress > 0 and phase < phases:
                if progress < remaining - PHASE_DONE_ATOL:
                    remaining -= progress
                    break
                progress -= remaining
                phase += 1
                if phase < phases:
                    remaining = job.spec.phase_work[phase]
            job.phase = phase
            job.remaining_in_phase = remaining
        if phase >= phases:
            finished = True
        elif rate > 0.0:
            left = remaining / rate
            if left < horizon:
                horizon = left
    return horizon, finished


def _allocate_checked(
    scheduler: Scheduler, running: Sequence[JobView], avail: int
) -> tuple[dict[JobView, int], int, int]:
    """One policy decision: ``(allocation, granted, capacity)``, checked."""
    allocation = scheduler.allocate(running, avail)
    granted = sum(allocation.values())
    # Read the capacity after allocate(): autoscalers resize their pool
    # inside the allocation call.
    capacity = scheduler.capacity(avail)
    if granted > capacity:
        raise ConfigurationError(
            f"{scheduler.name} over-allocated: {granted} > {capacity}"
        )
    return allocation, granted, capacity


def finalize_result(
    scheduler_name: str,
    total_nodes: int,
    sink,
    makespan: float,
    events: int,
    starved: int,
    allocations: int,
    allocations_elided: int,
    faults=None,
) -> ServerResult:
    """Starvation check plus metric assembly, shared by both engines.

    :class:`ClusterServer` and
    :class:`~repro.clusterserver.sharded.ShardedServer` must compute
    turnaround/wait/slowdown identically — the sharded-equivalence gate
    compares them field by field — so the tail lives here exactly once.
    ``sink`` is what :func:`_open_workload` handed the loop: a stream's
    :class:`SloAggregator` becomes ``result.slo``; a Sequence's
    :class:`_KeptJobs` become the per-job dicts, in workload-spec order
    (jobs must carry final ``started_at``/``finished_at``/
    ``node_seconds`` state).  ``starved`` counts the jobs still running
    or deferred when the event queue drained.  ``faults`` is the run's
    :class:`~repro.faults.FaultRuntime` (if any): jobs it failed reach
    neither sink — their discarded work shows up in ``lost_work``, not
    ``total_work``.
    """
    if starved:
        raise ConfigurationError(
            f"{scheduler_name}: {starved} jobs never "
            "completed (policy starved them); check min_nodes and "
            "cluster size"
        )
    result = ServerResult(
        scheduler=scheduler_name,
        total_nodes=total_nodes,
        makespan=makespan,
        job_turnaround={},
        job_node_seconds={},
        total_work=0.0,
        events=events,
        allocations=allocations,
        allocations_elided=allocations_elided,
        retries=faults.retries if faults is not None else 0,
        lost_work=faults.lost_work if faults is not None else 0.0,
        failed_jobs=faults.failed_jobs if faults is not None else 0,
        fault_trace=tuple(faults.trace) if faults is not None else (),
    )
    if isinstance(sink, SloAggregator):
        sink.retries = result.retries
        sink.lost_work = result.lost_work
        sink.failed_jobs = result.failed_jobs
        result.slo = summary = sink.summary(makespan)
        result.total_work = summary.total_work
        result.jobs_completed = summary.jobs_completed
        result.jobs_rejected = summary.jobs_rejected
        return result
    completed = [j for j in sink.jobs if j is not None]
    for j in completed:
        name = j.spec.name
        ideal = j.spec.ideal_duration()
        turnaround = j.finished_at - j.spec.arrival
        result.job_turnaround[name] = turnaround
        result.job_node_seconds[name] = j.node_seconds
        result.job_wait[name] = j.started_at - j.spec.arrival
        result.job_slowdown[name] = (
            turnaround / ideal if ideal > 0 else math.inf
        )
    result.total_work = sum(j.spec.total_work for j in completed)
    result.jobs_completed = len(completed)
    return result


class ClusterServer:
    """Simulates a cluster running a malleable workload under a policy.

    ``faults`` is an optional :class:`~repro.faults.FaultPlan` (or an
    already-compiled plan): node crashes, brown-outs, degrades and job
    kills replayed deterministically against the run (see
    ``docs/faults.md``).  A plan with no events adds no code to the hot
    path — fault-free runs are bit-identical to ``faults=None``.
    """

    def __init__(
        self, total_nodes: int, scheduler: Scheduler, faults=None
    ) -> None:
        if total_nodes < 1:
            raise ConfigurationError("total_nodes must be >= 1")
        self.total_nodes = total_nodes
        self.scheduler = scheduler
        self.faults = _compile_faults(faults, total_nodes)

    def run(self, workload) -> ServerResult:
        """Simulate a workload to completion.

        One loop for both workload shapes (:func:`_open_workload`): it
        pulls arrivals one ahead and holds :class:`MalleableJob` state
        only for *active* jobs (admitted, unfinished).  A
        ``Sequence[JobSpec]`` gets per-job result dicts back and
        ``slo is None``; any other iterable is an open arrival stream of
        ``(arrival_time, JobSpec)`` pairs whose completions fold into
        ``result.slo`` and are forgotten, so memory is O(active jobs)
        regardless of how many jobs the stream produces.
        """
        arrivals, admit, sink = _open_workload(workload, self.scheduler)
        kernel = Kernel()
        running: list[MalleableJob] = []
        #: the policy's side of ``running``, in the same order
        views: list[JobView] = []
        deferred: deque[tuple[int, JobSpec]] = deque()
        runtime = (
            FaultRuntime(self.faults, self.total_nodes)
            if self.faults is not None
            else None
        )
        allocations = 0
        granted = capacity = 0
        last_update = 0.0
        last_arrival = 0.0
        exhausted = False
        boundary: list = [None]  # pending phase-boundary event handle
        fault_handles: dict[float, object] = {}

        def advance_to_now() -> tuple[float, bool]:
            nonlocal last_update
            step = advance_running(running, kernel.now - last_update)
            last_update = kernel.now
            return step

        def schedule_next_arrival() -> None:
            nonlocal last_arrival, exhausted
            item = next(arrivals, None)
            if item is None:
                exhausted = True
                return
            t, idx, spec = item
            if t < last_arrival:
                raise ConfigurationError(
                    "arrival process yielded decreasing times "
                    f"({t} after {last_arrival}); streams must be "
                    "nondecreasing"
                )
            last_arrival = t
            kernel.schedule_at(t, on_arrival, idx, spec)

        def available_nodes() -> int:
            if runtime is not None:
                return runtime.capacity(self.total_nodes)
            return self.total_nodes

        def apply_faults() -> bool:
            # Fire every fault due now against the pre-fault grants of
            # the jobs that have not already completed at this instant —
            # the same retirement-first ordering the sharded engine's
            # barrier uses.
            live = {j.index: j for j in running if not j.done}
            ordered = sorted((idx, j.view.nodes) for idx, j in live.items())
            fired, victims = runtime.fire(kernel.now, ordered)
            for idx, entry in victims:
                job = live.get(idx)
                if job is None:
                    entry["outcome"] = "absent"
                    continue
                lost = job.spec.phase_work[job.phase] - job.remaining_in_phase
                if runtime.record_loss(idx, lost, entry) == "retry":
                    # Restart the whole current phase: the post-fault
                    # remaining is an exact constant, which is what lets
                    # every engine agree bit-for-bit after the fault.
                    job.remaining_in_phase = job.spec.phase_work[job.phase]
                else:
                    running.remove(job)
                    views.remove(job.view)
                    del live[idx]
            return fired

        def reschedule(
            horizon: float, job_done: bool, admitted=False, fired=False
        ) -> None:
            # Retire finished jobs, apply the policy, arm the next event;
            # ``horizon`` and ``job_done`` are this event's pass.  The
            # previously armed boundary event is superseded by this
            # decision (rates may have changed); cancelling it keeps the
            # queue free of stale wake-ups that would otherwise fire as
            # no-op decisions — and, after the last completion, drag the
            # makespan past the true end of the workload.
            nonlocal allocations, granted, capacity
            now = kernel.now
            if boundary[0] is not None:
                kernel.cancel(boundary[0])
                boundary[0] = None
            if job_done:
                for job in [j for j in running if j.done]:
                    job.finished_at = now
                    running.remove(job)
                    views.remove(job.view)
                    sink.observe_completion(job)
            if (
                runtime is not None
                and exhausted
                and not running
                and not deferred
            ):
                # Workload done: faults scheduled past the end must not
                # drag the makespan out.
                for handle in fault_handles.values():
                    kernel.cancel(handle)
                fault_handles.clear()
            # Deferred arrivals retry in FIFO order; membership state may
            # have changed since they were parked.
            while deferred and admit(
                deferred[0][1], tuple(views), available_nodes()
            ):
                admit_job(*deferred.popleft())
                admitted = True
            decided = _membership_changed(
                admitted, job_done, fired, not allocations
            )
            if decided:
                allocations += 1
                allocation, granted, capacity = _allocate_checked(
                    self.scheduler, tuple(views), available_nodes()
                )
                factors = (
                    runtime.rate_factors(sorted(
                        (j.index, allocation.get(j.view, 0)) for j in running
                    ))
                    if runtime is not None and runtime.factors_live
                    else None
                )
                for job in running:
                    view = job.view
                    nodes = allocation.get(view, 0)
                    factor = factors[job.index] if factors else job.rate_factor
                    # A grant is priced once, not once per event it lasts.
                    if nodes != view.nodes or factor != job.rate_factor:
                        view.nodes = nodes
                        job.rate_factor = factor
                        job.work_rate = grant_rate(job.spec, nodes, factor)
                    if nodes > 0 and math.isnan(job.started_at):
                        job.started_at = now
            # Otherwise — pure phase boundaries, rejected or deferred
            # arrivals — the previous grants, rates and so the pass's
            # horizon stand (retired jobs added none to it).  A fault
            # restarts a phase only when it fired, which forces a decision.
            sink.observe_utilization(now, granted, capacity)
            if decided:
                horizon = advance_running(running, 0.0)[0]
            if math.isfinite(horizon):
                boundary[0] = kernel.schedule_after(
                    now + horizon, on_phase_boundary
                )

        def admit_job(idx: int, spec: JobSpec) -> None:
            job = MalleableJob(spec, index=idx)
            running.append(job)
            views.append(job.view)

        def on_phase_boundary() -> None:
            boundary[0] = None
            reschedule(*advance_to_now())

        def on_arrival(idx: int, spec: JobSpec) -> None:
            step = advance_to_now()
            # One-ahead pull: exactly one future arrival is ever buffered.
            schedule_next_arrival()
            admitted = admit(spec, tuple(views), available_nodes())
            if admitted:
                admit_job(idx, spec)
            elif self.scheduler.defer_rejected:
                deferred.append((idx, spec))
            else:
                sink.observe_rejection(kernel.now, spec)
            reschedule(*step, admitted=admitted)

        def on_fault(t: float) -> None:
            fault_handles.pop(t, None)
            reschedule(*advance_to_now(), fired=apply_faults())

        if runtime is not None:
            # Before the first arrival pull, so fault events win
            # timestamp ties against arrivals (completions still settle
            # first via the done-exclusion in apply_faults) — the same
            # ordering the sharded barrier applies.
            for t in sorted({e[0] for e in self.faults.entries}):
                fault_handles[t] = kernel.schedule_at(t, on_fault, t)
        schedule_next_arrival()
        kernel.run()
        advance_to_now()
        return finalize_result(
            self.scheduler.name,
            self.total_nodes,
            sink,
            kernel.now,
            kernel.events_executed,
            starved=len(running) + len(deferred),
            faults=runtime,
            allocations=allocations,
            # every event is one decision point
            allocations_elided=kernel.events_executed - allocations,
        )
