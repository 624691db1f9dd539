"""The eager engine's elision rule: ask the policy only on membership change.

The contract (``Scheduler.progress_insensitive``): under a
progress-insensitive policy an event that neither admits, completes nor
faults a job cannot change ``allocate()``'s answer, so
:class:`~repro.clusterserver.server.ClusterServer` skips the call — and
the run stays **bit-identical** to asking at every event, which is what a
``progress_insensitive = False`` policy still gets.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.clusterserver import (
    AdaptiveEfficiencyScheduler,
    ClusterServer,
    EquipartitionScheduler,
    FcfsScheduler,
    ShardedServer,
    StaticScheduler,
    synthetic_workload,
)
from repro.clusterserver.arrivals import poisson_arrivals
from repro.clusterserver.scheduler import (
    AdmissionControlScheduler,
    AutoscalingScheduler,
    Scheduler,
)
from repro.faults import FaultEvent, FaultPlan

#: Rigid policies keep their grants through a crash, so they need head
#: room: at 20 nodes static(6) and fcfs (requests of 8) never hold more
#: than 18, and the plan below takes one node down.
NODES = 20


class _PerEvent(Scheduler):
    """Test-only oracle: the inner policy, asked at every event.

    Declaring ``progress_insensitive = False`` forces the call-per-event
    schedule the eager loop ran before it elided anything.
    """

    progress_insensitive = False

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.name = inner.name
        self.defer_rejected = inner.defer_rejected
        self.calls = 0

    def allocate(self, running, total_nodes):
        self.calls += 1
        return self.inner.allocate(running, total_nodes)

    def admit(self, spec, running, total_nodes):
        return self.inner.admit(spec, running, total_nodes)

    def capacity(self, total_nodes):
        return self.inner.capacity(total_nodes)


class _NewestFirst(Scheduler):
    """Test-only: the whole cluster to the newest job, none to the rest.

    Progress-insensitive, and the one shape where a job let in from the
    deferred queue is granted nodes at once — see ``POLICIES``.
    """

    name = "newest-first"

    def allocate(self, running, total_nodes):
        ranked = sorted(running, key=lambda j: j.spec.arrival, reverse=True)
        return {
            job: (min(total_nodes, job.spec.max_nodes) if i == 0 else 0)
            for i, job in enumerate(ranked)
        }


class _CountingAdaptive(AdaptiveEfficiencyScheduler):
    """The adaptive policy (still progress-insensitive), counting calls."""

    def __init__(self) -> None:
        super().__init__(0.5)
        self.calls = 0

    def allocate(self, running, total_nodes):
        self.calls += 1
        return super().allocate(running, total_nodes)


POLICIES = {
    "static": lambda: StaticScheduler(6),
    "fcfs": lambda: FcfsScheduler(),
    "backfill": lambda: FcfsScheduler(backfill=True),
    "equipartition": lambda: EquipartitionScheduler(),
    "adaptive": lambda: AdaptiveEfficiencyScheduler(0.5),
    "admission-defer": lambda: AdmissionControlScheduler(
        AdaptiveEfficiencyScheduler(0.5), max_active=3, defer=True
    ),
    # A completion hands the queued job its nodes, which frees the
    # max_queued slot one event *later*: the deferred retry succeeds at a
    # pure phase boundary and the newcomer is granted nodes there — the
    # "deferred job admitted" trigger with nothing else to hide behind.
    "admission-defer-newest": lambda: AdmissionControlScheduler(
        _NewestFirst(), max_queued=1, defer=True
    ),
    "autoscale": lambda: AutoscalingScheduler(
        EquipartitionScheduler(), min_nodes=4
    ),
}

WORKLOADS = {
    "sequence": lambda: synthetic_workload(
        jobs=12, mean_interarrival=20.0, seed=3, max_nodes=8
    ),
    "stream": lambda: poisson_arrivals(10.0, seed=7, jobs=40, max_nodes=8),
}

PLANS = {
    "no-plan": lambda: None,
    "faults": lambda: FaultPlan(
        events=(
            FaultEvent(kind="crash", at=120.0, node=3),
            FaultEvent(kind="degrade", at=60.0, node=1, factor=0.5,
                       duration=200.0),
            FaultEvent(kind="killjob", at=150.0, job=2),
        ),
        max_retries=2,
        seed=0,
    ),
}


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_elided_run_equals_per_event_run_bit_for_bit(policy, workload, plan):
    elided = ClusterServer(
        NODES, POLICIES[policy](), faults=PLANS[plan]()
    ).run(WORKLOADS[workload]())
    oracle_policy = _PerEvent(POLICIES[policy]())
    oracle = ClusterServer(
        NODES, oracle_policy, faults=PLANS[plan]()
    ).run(WORKLOADS[workload]())

    # The oracle really is the per-event schedule, and the rule really
    # elided something — otherwise the comparison below proves nothing.
    assert oracle_policy.calls == oracle.allocations == oracle.events
    assert oracle.allocations_elided == 0
    assert elided.allocations_elided > 0
    assert elided.allocations + elided.allocations_elided == elided.events
    if plan == "faults":
        assert elided.fault_trace

    # Every simulated output — makespan, events, per-job dicts, slo
    # (utilization series included), retries/lost_work/fault_trace.
    counters = {"allocations": 0, "allocations_elided": 0}
    assert dataclasses.replace(elided, **counters) == dataclasses.replace(
        oracle, **counters
    )


def test_allocate_calls_are_admissions_plus_completions():
    # Fault-free Poisson stream, no admission control: every arrival is
    # admitted.  Continuous arrival times and work amounts make a
    # coinciding arrival/completion (one sharded barrier, two eager
    # events) a measure-zero accident this seed does not hit.
    jobs = 60
    policy = _CountingAdaptive()
    result = ClusterServer(NODES, policy).run(
        poisson_arrivals(10.0, seed=7, jobs=jobs, max_nodes=8)
    )
    assert result.jobs_completed == jobs
    assert policy.calls == result.allocations == 2 * jobs
    assert result.events > result.allocations

    sharded = ShardedServer(NODES, AdaptiveEfficiencyScheduler(0.5), shards=1)
    twin = sharded.run(poisson_arrivals(10.0, seed=7, jobs=jobs, max_nodes=8))
    assert sharded.stats.allocations == policy.calls
    assert twin.allocations == sharded.stats.allocations
    assert twin.allocations_elided == sharded.stats.allocations_elided

