"""Sharded cluster-server: determinism contract, modes, accounting.

The contract under test (``docs/sharding.md``): a
:class:`~repro.clusterserver.sharded.ShardedServer` result is
**bit-identical for every shard count and execution mode**, with
``shards=1`` being the single-kernel run, and shard kernel events summing
to the single-kernel event count.  Against the eager
:class:`~repro.clusterserver.server.ClusterServer` engine the results
agree to float reassociation noise.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clusterserver import (
    AdaptiveEfficiencyScheduler,
    ClusterServer,
    EquipartitionScheduler,
    FcfsScheduler,
    ShardedServer,
    StaticScheduler,
    synthetic_workload,
)
from repro.clusterserver.scheduler import Scheduler
from repro.clusterserver.workload import mixed_workload, stencil_like_job
from repro.errors import ConfigurationError


def _assert_identical(a, b):
    """Bit-equality on every gated ServerResult field."""
    assert a.makespan == b.makespan
    assert a.job_turnaround == b.job_turnaround
    assert a.job_wait == b.job_wait
    assert a.job_slowdown == b.job_slowdown
    assert a.events == b.events


SCHEDULERS = {
    "static": lambda: StaticScheduler(4),
    "fcfs": lambda: FcfsScheduler(),
    "backfill": lambda: FcfsScheduler(backfill=True),
    "equipartition": lambda: EquipartitionScheduler(),
    "adaptive": lambda: AdaptiveEfficiencyScheduler(0.5),
}


# ------------------------------------------------------------------ property
@settings(deadline=None, max_examples=25)
@given(
    jobs=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32),
    policy=st.sampled_from(sorted(SCHEDULERS)),
    mixed=st.booleans(),
)
# Regression: delay-based horizon scheduling made a job's completion time
# depend on its pool-mates' event times (now + (finish - now) != finish),
# so K=1 diverged from K=2/4 by ~1e-12 on this workload.  The pool now
# schedules at the absolute horizon (fluid.FluidPool._schedule_next).
@example(jobs=2, seed=36676, policy="adaptive", mixed=False)
def test_sharded_reproduces_single_kernel_exactly(jobs, seed, policy, mixed):
    """For random scenarios and K in {1, 2, 4}: identical turnaround,
    wait, slowdown and makespan, and shard event totals that sum to the
    single-kernel event count."""
    make = mixed_workload if mixed else synthetic_workload
    specs = make(jobs=jobs, mean_interarrival=15.0, seed=seed)
    results = {}
    stats = {}
    for shards in (1, 2, 4):
        server = ShardedServer(
            16, SCHEDULERS[policy](), shards=shards
        )
        results[shards] = server.run(specs)
        stats[shards] = server.stats
    for shards in (2, 4):
        _assert_identical(results[shards], results[1])
        assert (
            stats[shards].events_total == stats[1].events_total
        ), "shard event totals must sum to the serial event count"
        assert sum(stats[shards].shard_jobs) == jobs


# ------------------------------------------------------- eager-engine parity
@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_sharded_agrees_with_eager_engine(policy):
    """The eager ClusterServer advances every job at every event; the
    sharded engine integrates lazily.  Decisions are identical, so the
    results agree to float reassociation noise."""
    specs = synthetic_workload(jobs=10, mean_interarrival=12.0, seed=9)
    eager = ClusterServer(16, SCHEDULERS[policy]()).run(specs)
    sharded = ShardedServer(
        16, SCHEDULERS[policy](), shards=2
    ).run(specs)
    assert sharded.makespan == pytest.approx(eager.makespan, rel=1e-9)
    for name, value in eager.job_turnaround.items():
        assert sharded.job_turnaround[name] == pytest.approx(value, rel=1e-9)
    for name, value in eager.job_node_seconds.items():
        assert sharded.job_node_seconds[name] == pytest.approx(
            value, rel=1e-9
        )
    assert sharded.total_work == pytest.approx(eager.total_work, rel=1e-12)


@pytest.mark.parametrize("t0", [2.0**15, 2.0**20])
def test_eager_engine_terminates_past_2_to_the_14_seconds(t0):
    """Regression: the eager loop armed its phase boundary at
    ``now + max(horizon, 1e-12)``.  From 2**14 simulated seconds on that
    sum can equal ``now``; the boundary then fired with dt == 0, advanced
    nothing and re-armed itself forever (this test hung).
    ``Kernel.schedule_after`` arms at the next representable time at the
    earliest, so a shifted workload is the same run, ``t0`` later."""
    base = synthetic_workload(jobs=20, mean_interarrival=12.0, seed=0)
    specs = [
        dataclasses.replace(spec, arrival=spec.arrival + t0) for spec in base
    ]

    def run(server, workload):
        return server(16, AdaptiveEfficiencyScheduler(0.5)).run(workload)

    sharded_server = functools.partial(ShardedServer, shards=2)
    eager = run(ClusterServer, specs)
    sharded = run(sharded_server, specs)
    assert eager.makespan > t0
    # eager == sharded to 1e-9, or to the resolution of simulated time.
    tol = max(1e-9, 16 * math.ulp(t0))
    assert eager.makespan == pytest.approx(sharded.makespan, abs=tol)
    for name, value in sharded.job_turnaround.items():
        assert eager.job_turnaround[name] == pytest.approx(value, abs=tol)
    # The sharded engine arms absolute completion times only: its event
    # count does not see the shift.  The eager loop's work residuals can
    # fall below the resolution of ``now``; each boundary then re-arms at
    # most once on the floor, never unboundedly.
    assert sharded.events == run(sharded_server, base).events
    assert eager.events <= 2 * run(ClusterServer, base).events


# ---------------------------------------------------------------- accounting
def test_phase_only_barriers_elide_the_scheduler():
    """Pure within-job phase boundaries skip the allocation call: with one
    running job, every barrier between its arrival and completion is
    allocation-neutral."""
    specs = [stencil_like_job("solo", arrival=0.0, iterations=10)]
    server = ShardedServer(8, EquipartitionScheduler(), shards=1)
    server.run(specs)
    stats = server.stats
    # Arrival and job completion allocate; the 9 interior phase
    # boundaries are elided.
    assert stats.allocations == 2
    assert stats.allocations_elided == 9
    assert stats.allocations + stats.allocations_elided == stats.epochs


def test_stats_record_shape():
    specs = synthetic_workload(jobs=6, mean_interarrival=10.0, seed=2)
    server = ShardedServer(16, StaticScheduler(4), shards=3)
    result = server.run(specs)
    stats = server.stats
    assert stats.shards == 3
    assert len(stats.shard_events) == 3
    assert sum(stats.shard_jobs) == 6
    assert stats.events_total == result.events
    assert stats.epochs > 0
    assert stats.wall_s > 0
    assert math.isfinite(stats.speedup_vs(1.0))


# -------------------------------------------------------------------- guards
class _ProgressGreedyScheduler(Scheduler):
    """A scheduler that (illegally, for sharding) reads job progress."""

    name = "progress-greedy"
    progress_insensitive = False
    calls = 0

    def allocate(self, running, total_nodes):
        self.calls += 1
        ranked = sorted(running, key=lambda j: j.remaining_work)
        return {job: (total_nodes if i == 0 else 0) for i, job in enumerate(ranked)}


def test_progress_sensitive_scheduler_rejected():
    server = ShardedServer(8, _ProgressGreedyScheduler(), shards=2)
    with pytest.raises(ConfigurationError, match="progress-insensitive"):
        server.run(synthetic_workload(jobs=3, seed=1))


def test_progress_sensitive_scheduler_asked_at_every_eager_event():
    # The one capability only the eager loop has: no elision for a policy
    # that declares it reads job progress.
    policy = _ProgressGreedyScheduler()
    result = ClusterServer(8, policy).run(synthetic_workload(jobs=6, seed=1))
    assert policy.calls == result.events == result.allocations
    assert result.allocations_elided == 0


def test_starvation_detected():
    # Jobs demand 8 nodes but the cluster only has 4: StaticScheduler
    # never grants, and the run must fail loudly like ClusterServer does.
    specs = synthetic_workload(jobs=2, mean_interarrival=5.0, seed=3)
    with pytest.raises(ConfigurationError, match="never"):
        ShardedServer(4, StaticScheduler(8), shards=2).run(specs)


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        ShardedServer(0, EquipartitionScheduler())
    with pytest.raises(ConfigurationError):
        ShardedServer(8, EquipartitionScheduler(), shards=0)


def test_empty_workload():
    result = ShardedServer(8, EquipartitionScheduler(), shards=2).run([])
    assert result.makespan == 0.0
    assert result.job_turnaround == {}
    assert result.events == 0
