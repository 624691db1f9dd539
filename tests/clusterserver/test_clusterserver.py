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
from repro.clusterserver.server import ClusterServer, advance_running
from repro.clusterserver.workload import (
    PHASE_DONE_ATOL,
    JobSpec,
    JobView,
    MalleableJob,
    amdahl_efficiency,
    grant_rate,
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
    job.work_rate = grant_rate(spec, 2, 1.0)
    assert job.work_rate == pytest.approx(2.0)
    # completes phase 0 exactly; phase 1 then ends 0.5 s out
    assert advance_running([job], 1.0) == (pytest.approx(0.5), False)
    assert job.phase == 1
    assert job.remaining_in_phase == pytest.approx(1.0)
    assert advance_running([job], 0.5) == (math.inf, True)
    assert job.done
    assert job.node_seconds == pytest.approx(3.0)


def test_job_zero_nodes_makes_no_progress():
    spec = JobSpec("j", 0.0, (1.0,), amdahl_efficiency(1.0))
    job = MalleableJob(spec)
    assert advance_running([job], 10.0) == (math.inf, False)
    assert not job.done
    assert (job.phase, job.remaining_in_phase) == (0, 1.0)


class _OracleJob:
    """The per-job methods the eager loop called before its one pass.

    ``rate()``, ``advance(dt)`` and ``time_to_phase_end()`` exactly as
    ``MalleableJob`` had them, kept here as the pass's reference.
    """

    def __init__(self, spec: JobSpec, nodes: int, factor: float) -> None:
        self.spec = spec
        self.nodes = nodes
        self.rate_factor = factor
        self._phases = len(spec.phase_work)
        self.phase = 0
        self.remaining_in_phase = spec.phase_work[0]
        self.node_seconds = 0.0
        self._priced = (0, 1.0, 0.0)

    @property
    def done(self) -> bool:
        return self.phase >= self._phases

    def rate(self) -> float:
        nodes = self.nodes
        if nodes <= 0 or self.phase >= self._phases:
            return 0.0
        priced_nodes, priced_factor, rate = self._priced
        if nodes != priced_nodes or self.rate_factor != priced_factor:
            factor = self.rate_factor
            rate = nodes * self.spec.efficiency(nodes) * factor
            self._priced = (nodes, factor, rate)
        return rate

    def advance(self, dt: float) -> None:
        self.node_seconds += self.nodes * dt
        progress = self.rate() * dt
        while progress > 0 and self.phase < self._phases:
            if progress < self.remaining_in_phase - PHASE_DONE_ATOL:
                self.remaining_in_phase -= progress
                return
            progress -= self.remaining_in_phase
            self.phase += 1
            if self.phase < self._phases:
                self.remaining_in_phase = self.spec.phase_work[self.phase]

    def time_to_phase_end(self) -> float:
        rate = self.rate()
        if rate <= 0.0:
            return float("inf")
        return self.remaining_in_phase / rate


_pass_jobs = st.lists(
    st.tuples(
        st.lists(st.floats(0.05, 20.0), min_size=1, max_size=6),
        st.floats(0.5, 1.0),             # parallel fraction
        st.integers(0, 8),               # granted nodes
        st.sampled_from([1.0, 0.5]),     # rate factor
    ),
    min_size=1,
    max_size=8,
)

#: One event's ``dt``: zero; free; the phase end of job ``i`` moved by
#: up to one PHASE_DONE_ATOL of work either way; or enough to run job
#: ``i`` through its next ``k`` phases.
_pass_steps = st.lists(
    st.one_of(
        st.just(("zero",)),
        st.tuples(st.just("free"), st.floats(1e-6, 30.0)),
        st.tuples(
            st.just("edge"), st.integers(0, 7),
            st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
        ),
        st.tuples(st.just("cross"), st.integers(0, 7), st.integers(2, 5)),
    ),
    min_size=3,
    max_size=12,
)


def _step_dt(step, oracles) -> float:
    kind = step[0]
    if kind == "zero":
        return 0.0
    if kind == "free":
        return step[1]
    job = oracles[step[1] % len(oracles)]
    rate = job.rate()
    if rate <= 0.0:
        return 0.0
    if kind == "edge":
        residual = step[2] * PHASE_DONE_ATOL
        return max(0.0, (job.remaining_in_phase + residual) / rate)
    ahead = job.spec.phase_work[job.phase + 1:job.phase + step[2]]
    return (job.remaining_in_phase + sum(ahead)) / rate * 1.0001


def _bits(value: float) -> str:
    return float(value).hex()


@settings(deadline=None, max_examples=40)
@given(jobs=_pass_jobs, steps=_pass_steps)
def test_one_pass_matches_the_per_job_methods_bit_for_bit(jobs, steps):
    oracles, running = [], []
    for work, pf, nodes, factor in jobs:
        spec = JobSpec("j", 0.0, tuple(work), amdahl_efficiency(pf))
        oracles.append(_OracleJob(spec, nodes, factor))
        job = MalleableJob(spec)
        job.view.nodes = nodes
        job.rate_factor = factor
        job.work_rate = grant_rate(spec, nodes, factor)
        running.append(job)
    for step in steps:
        if not oracles:
            break
        dt = _step_dt(step, oracles)
        # The eager loop advanced only on dt > 0, then took the minimum
        # phase end and retired the finished jobs.
        if dt > 0:
            for oracle in oracles:
                oracle.advance(dt)
        horizon = min(
            (o.time_to_phase_end() for o in oracles), default=math.inf
        )
        finished = any(o.done for o in oracles)
        got_horizon, got_finished = advance_running(running, dt)
        assert got_finished == finished
        assert _bits(got_horizon) == _bits(horizon)
        for oracle, job in zip(oracles, running):
            assert job.phase == oracle.phase
            assert _bits(job.remaining_in_phase) == _bits(
                oracle.remaining_in_phase
            )
            assert _bits(job.node_seconds) == _bits(oracle.node_seconds)
        kept = [i for i, o in enumerate(oracles) if not o.done]
        oracles = [oracles[i] for i in kept]
        running = [running[i] for i in kept]


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
