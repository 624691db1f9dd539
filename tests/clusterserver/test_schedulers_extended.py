"""Extended cluster-server coverage: FCFS/backfill, metrics, workloads."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusterserver import ClusterServer
from repro.clusterserver.scheduler import (
    AdaptiveEfficiencyScheduler,
    EquipartitionScheduler,
    FcfsScheduler,
    StaticScheduler,
)
from repro.clusterserver.workload import (
    JobSpec,
    amdahl_efficiency,
    lu_like_job,
    mixed_workload,
    rampup_job,
    stencil_like_job,
    synthetic_workload,
)
from repro.errors import ConfigurationError


def job(name, arrival, work=(10.0,), pf=1.0, max_nodes=8, min_nodes=1,
        preferred=0):
    return JobSpec(
        name=name,
        arrival=arrival,
        phase_work=tuple(work),
        efficiency=amdahl_efficiency(pf),
        max_nodes=max_nodes,
        min_nodes=min_nodes,
        preferred_nodes=preferred,
    )


# --------------------------------------------------------------------------
# JobSpec extensions
# --------------------------------------------------------------------------


class TestJobSpec:
    def test_request_defaults_to_max(self):
        assert job("a", 0.0, max_nodes=8).request == 8

    def test_request_uses_preferred(self):
        assert job("a", 0.0, max_nodes=8, preferred=4).request == 4

    def test_preferred_must_be_in_range(self):
        with pytest.raises(ConfigurationError):
            job("a", 0.0, max_nodes=4, preferred=8)

    def test_ideal_duration_perfect_scaling(self):
        spec = job("a", 0.0, work=(80.0,), pf=1.0, max_nodes=8)
        assert spec.ideal_duration() == pytest.approx(10.0)

    def test_ideal_duration_amdahl_penalty(self):
        perfect = job("a", 0.0, work=(80.0,), pf=1.0, max_nodes=8)
        imperfect = job("b", 0.0, work=(80.0,), pf=0.9, max_nodes=8)
        assert imperfect.ideal_duration() > perfect.ideal_duration()


# --------------------------------------------------------------------------
# workload shapes
# --------------------------------------------------------------------------


class TestWorkloadShapes:
    def test_stencil_like_constant_phases(self):
        spec = stencil_like_job("s", 0.0, iterations=6, unit_work=3.0)
        assert spec.phase_work == (3.0,) * 6

    def test_rampup_increasing_phases(self):
        spec = rampup_job("r", 0.0, phases=5)
        diffs = [b - a for a, b in zip(spec.phase_work, spec.phase_work[1:])]
        assert all(d > 0 for d in diffs)

    def test_lu_like_decreasing_phases(self):
        spec = lu_like_job("l", 0.0, nb=6)
        diffs = [b - a for a, b in zip(spec.phase_work, spec.phase_work[1:])]
        assert all(d < 0 for d in diffs)

    def test_mixed_workload_contains_all_shapes(self):
        specs = mixed_workload(jobs=30, seed=1)
        prefixes = {spec.name[:2] for spec in specs}
        assert prefixes == {"lu", "st", "rr"}

    def test_mixed_workload_deterministic(self):
        a = mixed_workload(jobs=8, seed=5)
        b = mixed_workload(jobs=8, seed=5)
        assert [s.arrival for s in a] == [s.arrival for s in b]
        assert [s.phase_work for s in a] == [s.phase_work for s in b]

    def test_workload_arrivals_increase(self):
        specs = synthetic_workload(jobs=10, seed=3)
        arrivals = [s.arrival for s in specs]
        assert arrivals == sorted(arrivals)


# --------------------------------------------------------------------------
# FCFS and backfill
# --------------------------------------------------------------------------


class TestFcfs:
    def test_names(self):
        assert FcfsScheduler().name == "fcfs"
        assert FcfsScheduler(backfill=True).name == "fcfs+backfill"

    def test_grants_requested_size_in_order(self):
        specs = [
            job("a", 0.0, work=(40.0,), max_nodes=8, preferred=4),
            job("b", 0.0, work=(40.0,), max_nodes=8, preferred=4),
        ]
        result = ClusterServer(8, FcfsScheduler()).run(specs)
        # Both fit side by side: no waiting.
        assert result.job_wait["a"] == 0.0
        assert result.job_wait["b"] == 0.0

    def test_head_of_line_blocking_without_backfill(self):
        specs = [
            job("big0", 0.0, work=(60.0,), max_nodes=6, preferred=6),
            job("big1", 1.0, work=(60.0,), max_nodes=8, preferred=8),
            job("tiny", 2.0, work=(2.0,), max_nodes=2, preferred=2),
        ]
        blocked = ClusterServer(8, FcfsScheduler()).run(specs)
        filled = ClusterServer(8, FcfsScheduler(backfill=True)).run(specs)
        # Without backfill the tiny job waits behind big1; with backfill it
        # slips into the 2 idle nodes immediately.
        assert filled.job_wait["tiny"] == pytest.approx(0.0)
        assert blocked.job_wait["tiny"] > 1.0
        assert filled.job_turnaround["tiny"] < blocked.job_turnaround["tiny"]

    def test_backfill_never_delays_the_head(self):
        specs = [
            job("big0", 0.0, work=(60.0,), max_nodes=6, preferred=6),
            job("big1", 1.0, work=(60.0,), max_nodes=8, preferred=8),
            job("tiny", 2.0, work=(2.0,), max_nodes=2, preferred=2),
        ]
        blocked = ClusterServer(8, FcfsScheduler()).run(specs)
        filled = ClusterServer(8, FcfsScheduler(backfill=True)).run(specs)
        assert filled.job_turnaround["big1"] == pytest.approx(
            blocked.job_turnaround["big1"]
        )

    def test_started_jobs_never_resized(self):
        """FCFS jobs are rigid: the same nodes from start to finish."""
        specs = [
            job("a", 0.0, work=(30.0,), max_nodes=4, preferred=4),
            job("b", 5.0, work=(30.0,), max_nodes=4, preferred=4),
        ]
        result = ClusterServer(8, FcfsScheduler()).run(specs)
        # node_seconds = 4 nodes for the whole (dedicated-speed) duration.
        for name in ("a", "b"):
            duration = result.job_turnaround[name] - result.job_wait[name]
            assert result.job_node_seconds[name] == pytest.approx(4 * duration)


# --------------------------------------------------------------------------
# result metrics
# --------------------------------------------------------------------------


class TestMetrics:
    def test_single_job_slowdown_is_one(self):
        specs = [job("a", 0.0, work=(40.0,), max_nodes=4, preferred=4)]
        result = ClusterServer(4, FcfsScheduler()).run(specs)
        assert result.mean_slowdown == pytest.approx(1.0)
        assert result.max_slowdown == pytest.approx(1.0)
        assert result.mean_wait == 0.0

    def test_contention_raises_slowdown(self):
        light = [job("a", 0.0, work=(40.0,), max_nodes=4, preferred=4)]
        heavy = light + [
            job(f"j{i}", 0.0, work=(40.0,), max_nodes=4, preferred=4)
            for i in range(3)
        ]
        r_light = ClusterServer(4, FcfsScheduler()).run(light)
        r_heavy = ClusterServer(4, FcfsScheduler()).run(heavy)
        assert r_heavy.mean_slowdown > r_light.mean_slowdown
        assert r_heavy.max_slowdown >= 4.0 - 1e-9  # last job waits 3 runs

    def test_utilization_bounded(self):
        specs = synthetic_workload(jobs=6, mean_interarrival=10.0, seed=4)
        result = ClusterServer(8, EquipartitionScheduler()).run(specs)
        assert 0.0 < result.utilization <= 1.0

    def test_service_rate_consistency(self):
        specs = synthetic_workload(jobs=6, mean_interarrival=10.0, seed=4)
        result = ClusterServer(8, EquipartitionScheduler()).run(specs)
        assert result.service_rate == pytest.approx(
            result.total_work / (result.total_nodes * result.makespan)
        )
        # utilization * cluster_efficiency == service_rate (by definition)
        assert result.service_rate == pytest.approx(
            result.utilization * result.cluster_efficiency
        )

    def test_perfect_job_efficiency_one(self):
        specs = [job("a", 0.0, work=(40.0,), pf=1.0, max_nodes=4, preferred=4)]
        result = ClusterServer(4, FcfsScheduler()).run(specs)
        assert result.cluster_efficiency == pytest.approx(1.0)


# --------------------------------------------------------------------------
# cross-policy behaviour
# --------------------------------------------------------------------------


class TestPolicies:
    def test_adaptive_beats_static_on_lu_tail(self):
        """LU-like jobs waste nodes in their tail; the adaptive policy
        reclaims them, so cluster efficiency must improve."""
        specs = [
            lu_like_job(f"lu{i}", arrival=i * 5.0, nb=10, unit_work=8.0,
                        parallel_fraction=0.94, max_nodes=8)
            for i in range(6)
        ]
        static = ClusterServer(16, StaticScheduler(8)).run(specs)
        adaptive = ClusterServer(16, AdaptiveEfficiencyScheduler(0.5)).run(specs)
        assert adaptive.cluster_efficiency > static.cluster_efficiency

    def test_equipartition_fair_waits(self):
        specs = [
            job(f"j{i}", 0.0, work=(40.0,), max_nodes=8) for i in range(4)
        ]
        result = ClusterServer(8, EquipartitionScheduler()).run(specs)
        assert all(w == 0.0 for w in result.job_wait.values())

    def test_all_policies_complete_mixed_workload(self):
        specs = mixed_workload(jobs=8, mean_interarrival=15.0, seed=7)
        for sched in (
            StaticScheduler(4),
            FcfsScheduler(),
            FcfsScheduler(backfill=True),
            EquipartitionScheduler(),
            AdaptiveEfficiencyScheduler(),
        ):
            result = ClusterServer(8, sched).run(specs)
            assert len(result.job_turnaround) == 8
            assert all(math.isfinite(t) for t in result.job_turnaround.values())

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=10000),
    )
    @settings(max_examples=25, deadline=None)
    def test_work_conservation_under_any_policy(self, jobs, nodes, seed):
        """Whatever the policy does, every job finishes and the consumed
        node-seconds are at least the total work (efficiency <= 1)."""
        specs = synthetic_workload(jobs=jobs, mean_interarrival=20.0,
                                   seed=seed, max_nodes=nodes)
        result = ClusterServer(nodes, EquipartitionScheduler()).run(specs)
        consumed = sum(result.job_node_seconds.values())
        assert consumed >= result.total_work - 1e-6
        assert len(result.job_turnaround) == jobs
