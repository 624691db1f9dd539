"""Cluster server: workloads, schedulers, and the server simulation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.clusterserver.scheduler import (
    AdaptiveEfficiencyScheduler,
    EquipartitionScheduler,
    FcfsScheduler,
    StaticScheduler,
)
from repro.clusterserver.server import ClusterServer
from repro.clusterserver.workload import (
    JobSpec,
    JobView,
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
    job.view.nodes = 2
    assert job.rate() == pytest.approx(2.0)
    job.advance(1.0)  # completes phase 0 exactly
    assert job.phase == 1
    assert job.remaining_in_phase == pytest.approx(1.0)
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
        JobView(lu_like_job(f"j{i}", arrival=float(i), max_nodes=max_nodes))
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
    poor = JobView(
        JobSpec("poor", 0.0, (10.0,), amdahl_efficiency(0.5), max_nodes=16)
    )
    alloc = sched.allocate([poor], 16)
    # With a 50% serial fraction, extra nodes buy almost nothing.
    assert alloc[poor] <= 2


def test_adaptive_grows_efficient_jobs():
    sched = AdaptiveEfficiencyScheduler(efficiency_floor=0.5)
    good = JobView(
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


def _allocate_by_scan(running, total_nodes, floor):
    """The adaptive policy's two-pass allocation, scanning the curve at
    every growth step (the oracle)."""
    active = sorted(running, key=lambda j: j.spec.arrival)
    if not active:
        return {}
    allocation = {job: 0 for job in active}
    free = total_nodes
    for job in active:
        grant = min(job.spec.min_nodes, free)
        allocation[job] = grant
        free -= grant
        if free <= 0:
            break
    for job in active:
        if free <= 0:
            break
        desired = _desired_by_scan(job.spec, floor, allocation[job] + free)
        take = min(max(0, desired - allocation[job]), free)
        allocation[job] += take
        free -= take
    return allocation


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0),
                min_size=1, max_size=8,
            ),
            st.integers(0, 3),
            st.integers(1, 8),
        ),
        min_size=1, max_size=8,
    ),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=2),
    st.data(),
)
def test_adaptive_allocate_matches_two_pass_scan(jobs, floors, data):
    """Any membership, in any admission order (deferral reorders it),
    with arrival ties, on 0..sum(max_nodes) + 2 nodes: the same dict in
    the same key order as the oracle, under two floors on the same views
    (so the once-per-job price is re-priced and then reused)."""
    views = []
    for i, (curve, arrival, min_nodes) in enumerate(jobs):
        spec = JobSpec(
            f"j{i}", float(arrival), (1.0,),
            lambda n, curve=curve: curve[n - 1],
            max_nodes=len(curve), min_nodes=min(min_nodes, len(curve)),
        )
        views.append(JobView(spec, i))
    running = data.draw(st.permutations(views))
    most = sum(v.spec.max_nodes for v in views) + 2
    totals = data.draw(st.lists(st.integers(0, most), min_size=2, max_size=2))
    for floor in floors:
        sched = AdaptiveEfficiencyScheduler(efficiency_floor=floor)
        for total in totals:
            got = sched.allocate(tuple(running), total)
            want = _allocate_by_scan(running, total, floor)
            assert got == want
            assert list(got) == list(want)


# ------------------------------------------------------------------- server
def test_duplicate_job_names_rejected():
    # Per-job results are keyed by name: a repeat would count two
    # completed jobs against one turnaround.
    specs = [lu_like_job("a", 0.0), lu_like_job("b", 0.5), lu_like_job("a", 1.0)]
    with pytest.raises(ConfigurationError, match="duplicate job names.*'a'"):
        ClusterServer(4, EquipartitionScheduler()).run(specs)


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


@pytest.mark.parametrize(
    "workload",
    [
        dict(jobs=10, mean_interarrival=15.0, seed=5),
        # the section 8 comparison: 16 LU-like jobs, rigid against malleable
        dict(jobs=16, mean_interarrival=25.0, seed=1, max_nodes=8),
    ],
)
def test_malleable_policies_beat_static_turnaround(workload):
    specs = synthetic_workload(**workload)
    policies = [
        StaticScheduler(nodes_per_job=8),
        FcfsScheduler(),
        FcfsScheduler(backfill=True),
        EquipartitionScheduler(),
        AdaptiveEfficiencyScheduler(efficiency_floor=0.5),
    ]
    runs = {p.name: ClusterServer(16, p).run(specs) for p in policies}
    static = runs["static"]
    adaptive = runs["adaptive"]
    # Malleable policies beat static allocation on turnaround ...
    assert runs["equipartition"].mean_turnaround < static.mean_turnaround
    assert adaptive.mean_turnaround < static.mean_turnaround
    # ... and waste fewer node-seconds per unit of work.
    assert adaptive.cluster_efficiency > static.cluster_efficiency
    assert abs(static.total_work - adaptive.total_work) < 1e-6
    # Backfilling can only help FCFS waits, never hurt them.
    assert runs["fcfs+backfill"].mean_wait <= runs["fcfs"].mean_wait + 1e-9


def test_single_job_uses_cluster_alone():
    job = lu_like_job("solo", arrival=0.0, nb=4, max_nodes=8)
    result = ClusterServer(8, EquipartitionScheduler()).run([job])
    assert result.job_node_seconds["solo"] > 0
    # Turnaround bounded below by perfect-speedup time.
    assert result.job_turnaround["solo"] >= job.total_work / 8 - 1e-9
