"""Fault replay on the cluster-server engines: semantics and determinism.

The contract (``docs/faults.md``): a non-empty :class:`FaultPlan` is
replayed controller-side at epoch barriers, so a sharded run's result —
including the fault trace and every fault counter — is **bit-identical
for every shard count K**; against the eager engine the integer trace
fields agree exactly and the float accounting to reassociation noise.
An *empty* plan is literally the fault-free code path.
"""

from __future__ import annotations

import math

import pytest

from repro.clusterserver import ClusterServer, ShardedServer
from repro.clusterserver.arrivals import poisson_arrivals
from repro.clusterserver.scheduler import EquipartitionScheduler, FcfsScheduler
from repro.clusterserver.workload import synthetic_workload
from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultPlan

NODES = 16


def _plan(max_retries=2):
    """The reference plan: one of each server-side fault kind."""
    return FaultPlan(
        events=(
            FaultEvent(kind="crash", at=120.0, node=3),
            FaultEvent(kind="brownout", at=260.0, node=7, duration=90.0),
            FaultEvent(kind="degrade", at=60.0, node=1, factor=0.5,
                       duration=200.0),
            FaultEvent(kind="killjob", at=400.0, job=2),
        ),
        max_retries=max_retries,
        seed=0,
    )


def _workload():
    return synthetic_workload(jobs=10, mean_interarrival=40.0, seed=3,
                              max_nodes=8)


def _assert_identical(a, b):
    """Bit-equality on every gated field, fault outcome included."""
    assert a.makespan == b.makespan
    assert a.job_turnaround == b.job_turnaround
    assert a.job_wait == b.job_wait
    assert a.job_slowdown == b.job_slowdown
    assert a.retries == b.retries
    assert a.lost_work == b.lost_work
    assert a.failed_jobs == b.failed_jobs
    assert a.fault_trace == b.fault_trace


def _assert_equivalent(eager, sharded):
    """Eager vs. sharded: integer trace exact, floats to 1e-6."""
    assert eager.retries == sharded.retries
    assert eager.failed_jobs == sharded.failed_jobs
    assert eager.makespan == pytest.approx(sharded.makespan, abs=1e-6)
    assert eager.lost_work == pytest.approx(sharded.lost_work, abs=1e-6)
    assert len(eager.fault_trace) == len(sharded.fault_trace)
    for ea, sh in zip(eager.fault_trace, sharded.fault_trace):
        assert set(ea) == set(sh)
        for key, value in ea.items():
            if isinstance(value, float):
                assert value == pytest.approx(sh[key], abs=1e-6)
            else:
                assert value == sh[key]


# ------------------------------------------------------------- determinism
def test_sharded_fault_replay_is_k_invariant():
    results = {
        shards: ShardedServer(
            NODES, EquipartitionScheduler(), shards=shards, faults=_plan(),
        ).run(_workload())
        for shards in (1, 2, 4)
    }
    for shards in (2, 4):
        _assert_identical(results[shards], results[1])
    assert results[1].fault_trace, "the reference plan must actually fire"
    assert results[1].retries > 0


def test_eager_engine_agrees_with_sharded():
    eager = ClusterServer(
        NODES, EquipartitionScheduler(), faults=_plan()
    ).run(_workload())
    sharded = ShardedServer(
        NODES, EquipartitionScheduler(), shards=2,
        faults=_plan(),
    ).run(_workload())
    _assert_equivalent(eager, sharded)


def test_empty_plan_is_bit_identical_to_no_plan():
    # An empty plan compiles to no plan at all, so both engines take the
    # literal fault-free code path: there is no overhead left to time.
    sharded_empty = ShardedServer(
        NODES, EquipartitionScheduler(), shards=2, faults=FaultPlan()
    )
    eager_empty = ClusterServer(
        NODES, EquipartitionScheduler(), faults=FaultPlan()
    )
    assert sharded_empty.faults is None
    assert eager_empty.faults is None
    plain = ShardedServer(
        NODES, EquipartitionScheduler(), shards=2
    ).run(_workload())
    empty = sharded_empty.run(_workload())
    _assert_identical(plain, empty)
    assert empty.fault_trace == ()
    eager_plain = ClusterServer(NODES, EquipartitionScheduler()).run(
        _workload()
    )
    _assert_identical(eager_plain, eager_empty.run(_workload()))


# --------------------------------------------------------------- semantics
def test_crash_costs_work_but_jobs_complete_under_budget():
    plain = ClusterServer(NODES, EquipartitionScheduler()).run(_workload())
    faulty = ClusterServer(
        NODES, EquipartitionScheduler(), faults=_plan()
    ).run(_workload())
    assert faulty.jobs_completed == plain.jobs_completed
    assert faulty.failed_jobs == 0
    assert faulty.lost_work > 0.0
    # lost work is re-done somewhere: the victims pay in turnaround even
    # when the makespan-setting tail job is untouched
    assert faulty.makespan >= plain.makespan
    assert faulty.mean_turnaround > plain.mean_turnaround


def test_exhausted_retry_budget_fails_the_job():
    for server in (
        ClusterServer(
            NODES, EquipartitionScheduler(), faults=_plan(max_retries=0)
        ),
        ShardedServer(
            NODES, EquipartitionScheduler(), shards=2,
            faults=_plan(max_retries=0),
        ),
    ):
        result = server.run(_workload())
        assert result.failed_jobs > 0
        assert result.retries == 0
        assert (
            result.jobs_completed
            == len(_workload()) - result.failed_jobs
        )
        # failed jobs are excluded from the per-job metric dicts
        assert len(result.job_turnaround) == result.jobs_completed
        failed = [
            e for e in result.fault_trace if e.get("outcome") == "failed"
        ]
        assert len(failed) == result.failed_jobs


def test_trace_records_every_applied_operation():
    result = ShardedServer(
        NODES, EquipartitionScheduler(), shards=2,
        faults=_plan(),
    ).run(_workload())
    ops = [entry["op"] for entry in result.fault_trace]
    times = [entry["t"] for entry in result.fault_trace]
    assert times == sorted(times)
    assert {"down", "up", "slow", "unslow", "kill"} >= set(ops)
    assert "slow" in ops and "down" in ops
    for entry in result.fault_trace:
        assert isinstance(entry["t"], float)
        if entry.get("outcome") in ("retry", "failed"):
            assert entry["lost"] >= 0.0
            assert entry["restarts"] >= 1


def test_seed_resolved_targets_are_k_invariant():
    plan = FaultPlan(
        events=(
            FaultEvent(kind="crash", at=150.0),     # node drawn from seed
            FaultEvent(kind="brownout", at=300.0, duration=50.0),
        ),
        max_retries=3,
        seed=99,
    )
    results = {
        shards: ShardedServer(
            NODES, FcfsScheduler(), shards=shards,
            faults=plan,
        ).run(_workload())
        for shards in (1, 4)
    }
    _assert_identical(results[4], results[1])


def test_all_nodes_down_is_rejected():
    plan = FaultPlan(
        events=tuple(
            FaultEvent(kind="crash", at=10.0, node=n) for n in range(4)
        )
    )
    with pytest.raises(ConfigurationError, match="every node"):
        ClusterServer(4, EquipartitionScheduler(), faults=plan).run(
            synthetic_workload(jobs=4, seed=1, max_nodes=4)
        )


# ------------------------------------------------------------- open system
def _arrivals():
    return poisson_arrivals(
        mean_interarrival=30.0, seed=5, max_nodes=8, jobs=40
    )


def test_open_system_fault_replay_is_k_invariant():
    plan = _plan()
    results = {}
    for shards in (1, 2, 4):
        result = ShardedServer(
            NODES, EquipartitionScheduler(), shards=shards, faults=plan,
        ).run(_arrivals())
        results[shards] = result
    for shards in (2, 4):
        a, b = results[shards], results[1]
        assert a.fault_trace == b.fault_trace
        assert a.retries == b.retries
        assert a.lost_work == b.lost_work
        assert a.failed_jobs == b.failed_jobs
        assert a.makespan == b.makespan
        assert a.slo.to_metrics() == b.slo.to_metrics()
    assert results[1].fault_trace


def test_open_system_eager_agrees_with_sharded():
    eager = ClusterServer(
        NODES, EquipartitionScheduler(), faults=_plan()
    ).run(_arrivals())
    sharded = ShardedServer(
        NODES, EquipartitionScheduler(), shards=2,
        faults=_plan(),
    ).run(_arrivals())
    _assert_equivalent(eager, sharded)
    em, sm = eager.slo.to_metrics(), sharded.slo.to_metrics()
    assert set(em) == set(sm)
    for key, value in em.items():
        if isinstance(value, float) and not math.isnan(value):
            assert value == pytest.approx(sm[key], abs=1e-6)
        elif not isinstance(value, float):
            assert value == sm[key]


def test_open_system_slo_reports_fault_counters():
    result = ShardedServer(
        NODES, EquipartitionScheduler(), shards=2,
        faults=_plan(),
    ).run(_arrivals())
    metrics = result.slo.to_metrics()
    assert metrics["retries"] == result.retries
    assert metrics["lost_work"] == result.lost_work
    assert metrics["failed_jobs"] == result.failed_jobs
