"""Cluster server: workloads, schedulers, and the server simulation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.clusterserver.scheduler import (
    AdaptiveEfficiencyScheduler,
    EquipartitionScheduler,
    StaticScheduler,
)
from repro.clusterserver.server import ClusterServer
from repro.clusterserver.workload import (
    JobSpec,
    MalleableJob,
    amdahl_efficiency,
    lu_like_job,
    synthetic_workload,
)
from repro.errors import ConfigurationError


# ----------------------------------------------------------------- workload
def test_amdahl_efficiency_decreasing():
    eff = amdahl_efficiency(0.95)
    values = [eff(n) for n in (1, 2, 4, 8, 16)]
    assert values[0] == 1.0
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lu_like_job_decaying_phases():
    spec = lu_like_job("j", arrival=0.0, nb=8)
    works = spec.phase_work
    assert len(works) == 8
    assert all(a > b for a, b in zip(works, works[1:]))


def test_job_spec_validation():
    with pytest.raises(ConfigurationError):
        JobSpec("j", arrival=-1.0, phase_work=(1.0,), efficiency=lambda n: 1.0)
    with pytest.raises(ConfigurationError):
        JobSpec("j", arrival=0.0, phase_work=(), efficiency=lambda n: 1.0)
    with pytest.raises(ConfigurationError):
        JobSpec("j", arrival=0.0, phase_work=(0.0,), efficiency=lambda n: 1.0)


def test_malleable_job_advance_and_phases():
    spec = JobSpec("j", 0.0, (2.0, 1.0), amdahl_efficiency(1.0))
    job = MalleableJob(spec)
    job.nodes = 2
    assert job.rate() == pytest.approx(2.0)
    job.advance(1.0)  # completes phase 0 exactly
    assert job.phase == 1
    assert job.remaining_work == pytest.approx(1.0)
    job.advance(0.5)
    assert job.done
    assert job.node_seconds == pytest.approx(3.0)


def test_job_zero_nodes_makes_no_progress():
    spec = JobSpec("j", 0.0, (1.0,), amdahl_efficiency(1.0))
    job = MalleableJob(spec)
    job.advance(10.0)
    assert not job.done
    assert math.isinf(job.time_to_phase_end())


def test_synthetic_workload_deterministic():
    a = synthetic_workload(jobs=5, seed=1)
    b = synthetic_workload(jobs=5, seed=1)
    assert [j.arrival for j in a] == [j.arrival for j in b]
    assert [j.phase_work for j in a] == [j.phase_work for j in b]


# ---------------------------------------------------------------- scheduler
def _jobs(n, max_nodes=8):
    return [
        MalleableJob(lu_like_job(f"j{i}", arrival=float(i), max_nodes=max_nodes))
        for i in range(n)
    ]


def test_equipartition_divides_evenly():
    jobs = _jobs(3)
    alloc = EquipartitionScheduler().allocate(jobs, 12)
    assert sorted(alloc.values()) == [4, 4, 4]


def test_equipartition_respects_max_nodes():
    jobs = _jobs(2, max_nodes=3)
    alloc = EquipartitionScheduler().allocate(jobs, 12)
    assert all(v <= 3 for v in alloc.values())


def test_static_grants_and_queues():
    jobs = _jobs(3)
    sched = StaticScheduler(nodes_per_job=8)
    alloc = sched.allocate(jobs, 16)
    granted = sorted(alloc.values())
    assert granted == [0, 8, 8]  # third job queues


def test_adaptive_shrinks_inefficient_jobs():
    sched = AdaptiveEfficiencyScheduler(efficiency_floor=0.8)
    poor = MalleableJob(
        JobSpec("poor", 0.0, (10.0,), amdahl_efficiency(0.5), max_nodes=16)
    )
    alloc = sched.allocate([poor], 16)
    # With a 50% serial fraction, extra nodes buy almost nothing.
    assert alloc[poor] <= 2


def test_adaptive_grows_efficient_jobs():
    sched = AdaptiveEfficiencyScheduler(efficiency_floor=0.5)
    good = MalleableJob(
        JobSpec("good", 0.0, (10.0,), amdahl_efficiency(0.999), max_nodes=8)
    )
    alloc = sched.allocate([good], 16)
    assert alloc[good] >= 6


def _desired_by_scan(spec, floor, cap):
    """The adaptive policy's per-call marginal-rate scan (the oracle)."""
    best = spec.min_nodes
    prev_rate = 0.0
    for n in range(1, min(cap, spec.max_nodes) + 1):
        rate = n * spec.efficiency(n)
        if n > 1 and rate - prev_rate < floor:
            break
        best = n
        prev_rate = rate
    return best


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=12),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=2),
    st.data(),
)
def test_adaptive_desired_size_priced_once_matches_scan(curve, floors, data):
    """Every cap in 0..max_nodes + 1, in random order on one job (so the
    once-per-job price is reused), under one or two policies' floors."""
    max_nodes = len(curve)
    min_nodes = data.draw(st.integers(min_value=1, max_value=max_nodes))
    spec = JobSpec(
        "j", 0.0, (1.0,), lambda n: curve[n - 1],
        max_nodes=max_nodes, min_nodes=min_nodes,
    )
    job = MalleableJob(spec)
    for floor in floors:
        sched = AdaptiveEfficiencyScheduler(efficiency_floor=floor)
        for cap in data.draw(st.permutations(range(max_nodes + 2))):
            assert sched._desired(job, cap) == _desired_by_scan(spec, floor, cap)


# ------------------------------------------------------------------- server
@pytest.mark.parametrize(
    "scheduler",
    [StaticScheduler(8), EquipartitionScheduler(), AdaptiveEfficiencyScheduler()],
)
def test_server_completes_workload(scheduler):
    workload = synthetic_workload(jobs=6, mean_interarrival=20.0, seed=3)
    result = ClusterServer(16, scheduler).run(workload)
    assert len(result.job_turnaround) == 6
    assert all(t > 0 for t in result.job_turnaround.values())
    assert result.makespan > 0
    assert 0 < result.cluster_efficiency <= 1.0


def test_malleable_policies_beat_static_turnaround():
    workload = synthetic_workload(jobs=10, mean_interarrival=15.0, seed=5)
    static = ClusterServer(16, StaticScheduler(8)).run(workload)
    equi = ClusterServer(16, EquipartitionScheduler()).run(workload)
    assert equi.mean_turnaround < static.mean_turnaround


def test_single_job_uses_cluster_alone():
    job = lu_like_job("solo", arrival=0.0, nb=4, max_nodes=8)
    result = ClusterServer(8, EquipartitionScheduler()).run([job])
    assert result.job_node_seconds["solo"] > 0
    # Turnaround bounded below by perfect-speedup time.
    assert result.job_turnaround["solo"] >= job.total_work / 8 - 1e-9
