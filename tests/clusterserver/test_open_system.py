"""Open-system engines: stream dispatch, SLO metrics, policies, memory.

The contract: both engines accept an arrival stream of ``(time,
JobSpec)`` pairs, retain only *active* jobs, and report SLO aggregates
through :class:`~repro.clusterserver.metrics.SloSummary`.  The sharded
engine stays **bit-identical for every shard count and mode** — the
summary included — and agrees with the eager engine to float
reassociation noise.
"""

from __future__ import annotations

import math
import tracemalloc

import pytest

from repro.clusterserver import (
    AdaptiveEfficiencyScheduler,
    ClusterServer,
    EquipartitionScheduler,
    FcfsScheduler,
    JobSpec,
    ShardedServer,
    amdahl_efficiency,
    synthetic_workload,
)
from repro.clusterserver.arrivals import closed_stream, poisson_arrivals
from repro.clusterserver.scheduler import (
    AdmissionControlScheduler,
    AutoscalingScheduler,
)
from repro.errors import ConfigurationError
from repro.util.rng import SeedSequenceFactory


def _stream(jobs=60, mean=10.0, seed=7, max_nodes=8):
    return poisson_arrivals(mean, seed=seed, jobs=jobs, max_nodes=max_nodes)


def _dense_stream(jobs, seed=0):
    """Single-node single-phase jobs at ~1 s spacing: many tiny jobs, a
    small bounded active set — the O(active-jobs) regime."""
    rng = SeedSequenceFactory(seed).rng("open-dense")
    t = 0.0
    for i in range(jobs):
        t += float(rng.exponential(1.0))
        work = float(rng.uniform(30.0, 90.0))
        yield t, JobSpec(
            name=f"j{i}",
            arrival=t,
            phase_work=(work,),
            efficiency=amdahl_efficiency(0.9),
            max_nodes=1,
            min_nodes=1,
            preferred_nodes=1,
        )


# ----------------------------------------------------------- eager engine
def test_eager_open_reports_slo_summary():
    result = ClusterServer(32, AdaptiveEfficiencyScheduler()).run(_stream())
    assert result.jobs_completed == 60
    assert result.jobs_rejected == 0
    assert result.job_turnaround == {}  # per-job dicts stay empty: O(active)
    slo = result.slo
    assert slo is not None
    assert slo.jobs_completed == 60
    assert slo.throughput == pytest.approx(60 / result.makespan)
    assert 0.0 < slo.sojourn_p50 <= slo.sojourn_p99
    assert slo.sojourn_mean > 0 and slo.wait_mean >= 0
    assert slo.slowdown_mean >= 1.0
    assert 0.0 < slo.utilization_mean <= 1.0
    assert slo.utilization_series, "utilization-over-time must be recorded"
    # Aggregate properties fall back to the streaming summary.
    assert result.mean_turnaround == slo.sojourn_mean
    assert result.mean_wait == slo.wait_mean
    assert result.mean_slowdown == slo.slowdown_mean
    assert result.max_slowdown == slo.slowdown_max
    assert result.throughput == pytest.approx(slo.throughput)


def test_closed_stream_matches_closed_run():
    """A closed workload replayed through the stream interface makes the
    same scheduling decisions, so the makespan matches exactly and the
    SLO aggregates match the closed per-job dicts."""
    specs = synthetic_workload(jobs=20, mean_interarrival=20.0, seed=3)
    closed = ClusterServer(16, EquipartitionScheduler()).run(specs)
    opened = ClusterServer(16, EquipartitionScheduler()).run(
        closed_stream(specs)
    )
    assert opened.makespan == closed.makespan
    assert opened.jobs_completed == len(specs)
    assert opened.slo.sojourn_mean == pytest.approx(
        closed.mean_turnaround, rel=1e-12
    )
    assert opened.slo.wait_mean == pytest.approx(closed.mean_wait, rel=1e-12)
    assert opened.slo.total_work == pytest.approx(closed.total_work, rel=1e-12)


def test_closed_dispatch_unchanged():
    # A Sequence still takes the closed path: per-job dicts, no summary.
    specs = synthetic_workload(jobs=5, mean_interarrival=20.0, seed=1)
    result = ClusterServer(16, EquipartitionScheduler()).run(specs)
    assert result.slo is None
    assert len(result.job_turnaround) == 5
    assert result.jobs_completed == 5


# ---------------------------------------------------------- sharded engine
def test_sharded_open_bit_identical_across_shard_counts():
    results = {}
    for shards in (1, 2, 4):
        server = ShardedServer(
            32, AdaptiveEfficiencyScheduler(), shards=shards
        )
        results[shards] = server.run(_stream())
        assert sum(server.stats.shard_jobs) == 60
    for shards in (2, 4):
        assert results[shards] == results[1]  # includes the SloSummary
        assert results[shards].slo == results[1].slo


def test_sharded_open_agrees_with_eager():
    eager = ClusterServer(32, AdaptiveEfficiencyScheduler()).run(_stream())
    sharded = ShardedServer(
        32, AdaptiveEfficiencyScheduler(), shards=4
    ).run(_stream())
    assert sharded.makespan == pytest.approx(eager.makespan, rel=1e-9)
    assert sharded.jobs_completed == eager.jobs_completed
    assert sharded.slo.sojourn_mean == pytest.approx(
        eager.slo.sojourn_mean, rel=1e-9
    )
    assert sharded.slo.sojourn_p99 == pytest.approx(
        eager.slo.sojourn_p99, rel=1e-9
    )
    assert sharded.total_work == pytest.approx(eager.total_work, rel=1e-9)


def test_decreasing_stream_rejected():
    bad = [
        (5.0, next(_dense_stream(1))[1]),
        (1.0, next(_dense_stream(1, seed=1))[1]),
    ]
    for engine in (
        ClusterServer(8, EquipartitionScheduler()),
        ShardedServer(8, EquipartitionScheduler(), shards=2),
    ):
        with pytest.raises(ConfigurationError, match="nondecreasing"):
            engine.run(iter(bad))


def test_empty_stream():
    for engine in (
        ClusterServer(8, EquipartitionScheduler()),
        ShardedServer(8, EquipartitionScheduler(), shards=2),
    ):
        result = engine.run(iter([]))
        assert result.makespan == 0.0
        assert result.jobs_completed == 0


def test_open_starvation_detected():
    stream = ((t, s) for t, s in _dense_stream(2))
    # Jobs need 1 node but static policy wants 8 of a 4-node cluster.
    from repro.clusterserver import StaticScheduler

    big = synthetic_workload(jobs=2, mean_interarrival=5.0, seed=3)
    with pytest.raises(ConfigurationError, match="never completed"):
        ClusterServer(4, StaticScheduler(8)).run(closed_stream(big))
    with pytest.raises(ConfigurationError, match="never completed"):
        ShardedServer(4, StaticScheduler(8), shards=2).run(
            closed_stream(big)
        )
    del stream


# ----------------------------------------------------------------- policies
def test_admission_control_rejects_and_counts():
    policy = AdmissionControlScheduler(
        AdaptiveEfficiencyScheduler(), max_active=4
    )
    result = ClusterServer(16, policy).run(_stream(jobs=50, mean=2.0, seed=1))
    assert result.jobs_completed + result.jobs_rejected == 50
    assert result.jobs_rejected > 0
    assert result.slo.rejection_rate == pytest.approx(
        result.jobs_rejected / 50
    )


def test_admission_control_defer_serves_everything():
    policy = AdmissionControlScheduler(
        AdaptiveEfficiencyScheduler(), max_active=4, defer=True
    )
    result = ClusterServer(16, policy).run(_stream(jobs=50, mean=2.0, seed=1))
    assert result.jobs_completed == 50
    assert result.jobs_rejected == 0
    # Deferral shows up as waiting time, not rejections.
    assert result.slo.wait_mean > 0


def test_admission_control_sharded_identical():
    def make():
        return AdmissionControlScheduler(
            AdaptiveEfficiencyScheduler(), max_active=4
        )

    results = [
        ShardedServer(16, make(), shards=k).run(
            _stream(jobs=50, mean=2.0, seed=1)
        )
        for k in (1, 2, 4)
    ]
    assert results[0] == results[1] == results[2]
    assert results[0].jobs_rejected > 0


def test_admission_control_validation():
    with pytest.raises(ConfigurationError, match="at least one limit"):
        AdmissionControlScheduler(EquipartitionScheduler())
    with pytest.raises(ConfigurationError, match="max_active"):
        AdmissionControlScheduler(EquipartitionScheduler(), max_active=0)
    with pytest.raises(ConfigurationError, match="load_max"):
        AdmissionControlScheduler(EquipartitionScheduler(), load_max=1.5)
    policy = AdmissionControlScheduler(EquipartitionScheduler(), load_max=0.5)
    assert policy.name == "admission+equipartition"
    assert policy.progress_insensitive


def test_autoscaler_grows_and_caps_utilization():
    policy = AutoscalingScheduler(EquipartitionScheduler(), min_nodes=2)
    result = ClusterServer(64, policy).run(_stream(jobs=40, mean=15.0, seed=5))
    assert result.jobs_completed == 40
    # The pool tracks demand, so measured utilization of the *pool* stays
    # well above what the full 64-node cluster would report.
    assert result.slo.utilization_mean > 0.3
    # Utilization series reports capacity-normalized values in [0, 1].
    assert all(0.0 <= u <= 1.0 + 1e-12 for _, u in result.slo.utilization_series)


def test_autoscaler_sharded_identical():
    results = [
        ShardedServer(
            64,
            AutoscalingScheduler(EquipartitionScheduler(), min_nodes=2),
            shards=k,
        ).run(_stream(jobs=40, mean=15.0, seed=5))
        for k in (1, 2, 4)
    ]
    assert results[0] == results[1] == results[2]


def test_autoscaler_validation():
    with pytest.raises(ConfigurationError, match="min_nodes"):
        AutoscalingScheduler(EquipartitionScheduler(), min_nodes=0)
    with pytest.raises(ConfigurationError, match="utilization_low"):
        AutoscalingScheduler(
            EquipartitionScheduler(), utilization_low=0.9, utilization_high=0.5
        )
    with pytest.raises(ConfigurationError, match="step"):
        AutoscalingScheduler(EquipartitionScheduler(), step=-1)
    assert (
        AutoscalingScheduler(FcfsScheduler()).name == "autoscale+fcfs"
    )


# ------------------------------------------------------------------- memory
def _peak_memory(jobs: int) -> int:
    server = ShardedServer(
        128, FcfsScheduler(backfill=True), shards=2
    )
    tracemalloc.start()
    try:
        result = server.run(_dense_stream(jobs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.jobs_completed == jobs
    return peak


def test_open_memory_bounded_by_active_jobs():
    """6x the jobs must NOT mean 6x the memory: the active set (~60 jobs
    at this load) is what bounds the peak, not the stream length."""
    small = _peak_memory(1000)
    large = _peak_memory(6000)
    assert large < 3.0 * small, (
        f"peak grew {large / small:.1f}x for 6x jobs "
        f"({small / 1e6:.1f} MB -> {large / 1e6:.1f} MB); "
        "open-system memory must be O(active jobs)"
    )


def test_eager_open_memory_bounded_by_active_jobs():
    def peak(jobs):
        server = ClusterServer(128, FcfsScheduler(backfill=True))
        tracemalloc.start()
        try:
            result = server.run(_dense_stream(jobs))
            _, p = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.jobs_completed == jobs
        return p

    small = peak(1000)
    large = peak(6000)
    assert large < 3.0 * small


def test_slo_summary_survives_makespan_zero():
    # Degenerate but legal: no jobs -> finite zeros, no NaN surprises.
    result = ClusterServer(8, EquipartitionScheduler()).run(iter([]))
    assert result.jobs_completed == 0
    assert result.slo.throughput == 0.0
    assert result.slo.rejection_rate == 0.0
    assert math.isnan(result.slo.sojourn_mean) or result.slo.sojourn_mean == 0.0
