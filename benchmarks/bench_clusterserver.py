"""Future-work bench: the cluster server with malleable jobs (paper §9).

Compares conventional rigid policies (static, FCFS, FCFS+backfill) against
malleable ones (equipartition, dynamic-efficiency-aware adaptive) on a
synthetic stream of LU-like jobs, quantifying the claim of section 8:
"the service rate of the cluster can be significantly increased if the
deallocated compute nodes are assigned to other applications."

The *sharded scaling regime* (``test_sharded_clusterserver_scaling``) is
the acceptance gate of the sharded-simulation subsystem
(``docs/sharding.md``): one huge single scenario (10k malleable jobs by
default; ``REPRO_SHARD_BENCH_JOBS`` overrides) run three ways —

* the single-kernel eager engine (``ClusterServer``), whose per-event
  cost is O(running jobs): it advances every job at every event (it asks
  the policy, like the sharded engine, only when membership changed),
* ``ShardedServer`` with one shard (*the* single-kernel run of the
  sharded engine — the determinism baseline, not the speed baseline: it
  costs what four shards cost),
* ``ShardedServer`` with four shards.

Gate: the 4-shard run must be **>= 2x faster wall-clock** than the *eager*
single-kernel run (8.2 s against 2.2 s, 3.8x, at 10k jobs; 16.0 s and 7.3x
while the eager loop called the policy at every event) *and* produce a
bit-identical ``ServerResult``
(makespan, per-job turnaround/wait/slowdown, summed event counts) to the
one-shard run; against the eager engine it must agree to float
reassociation noise (1e-9 relative).  Determinism is the hard
requirement; the speedup is the gate.
"""

from __future__ import annotations

import os
import time
import tracemalloc

from repro.analysis.tables import ascii_table
from repro.clusterserver import (
    AdaptiveEfficiencyScheduler,
    ClusterServer,
    EquipartitionScheduler,
    FcfsScheduler,
    JobSpec,
    ShardedServer,
    StaticScheduler,
    amdahl_efficiency,
    synthetic_workload,
)
from repro.util.rng import SeedSequenceFactory

#: the measurement seed of every stream
SEED = 1
NODES = 16


def run_policies():
    workload = synthetic_workload(
        jobs=16, mean_interarrival=25.0, seed=SEED, max_nodes=8
    )
    policies = [
        StaticScheduler(nodes_per_job=8),
        FcfsScheduler(),
        FcfsScheduler(backfill=True),
        EquipartitionScheduler(),
        AdaptiveEfficiencyScheduler(efficiency_floor=0.5),
    ]
    return {p.name: ClusterServer(NODES, p).run(workload) for p in policies}


def test_clusterserver_policies(benchmark):
    holder = {}
    benchmark.pedantic(lambda: holder.update(run_policies()), rounds=1, iterations=1)

    rows = [
        (
            name,
            f"{res.makespan:.1f}",
            f"{res.mean_turnaround:.1f}",
            f"{res.mean_wait:.1f}",
            f"{res.mean_slowdown:.2f}",
            f"{res.cluster_efficiency * 100:.1f}%",
            f"{res.service_rate:.3f}",
        )
        for name, res in holder.items()
    ]
    print()
    print(
        ascii_table(
            [
                "Policy",
                "Makespan [s]",
                "Turnaround [s]",
                "Wait [s]",
                "Slowdown",
                "Cluster eff.",
                "Service rate",
            ],
            rows,
            title=f"Cluster server — 16 LU-like malleable jobs on {NODES} nodes",
        )
    )

    static = holder["static"]
    equi = holder["equipartition"]
    adaptive = holder["adaptive"]
    # Malleable policies beat static allocation on turnaround.
    assert equi.mean_turnaround < static.mean_turnaround
    assert adaptive.mean_turnaround < static.mean_turnaround
    # And waste fewer node-seconds per unit of work.
    assert adaptive.cluster_efficiency > static.cluster_efficiency
    # Everybody finishes the same total work.
    assert abs(static.total_work - adaptive.total_work) < 1e-6
    # Backfilling can only help FCFS waits, never hurt them.
    assert (
        holder["fcfs+backfill"].mean_wait <= holder["fcfs"].mean_wait + 1e-9
    )


# --------------------------------------------------------------------------
# sharded scaling regime (the docs/sharding.md acceptance gate)
# --------------------------------------------------------------------------

SHARD_BENCH_JOBS = int(os.environ.get("REPRO_SHARD_BENCH_JOBS", "10000"))
SHARD_BENCH_NODES = 500
SHARD_GATE_SPEEDUP = 2.0


def sharded_scenario(jobs: int = SHARD_BENCH_JOBS, seed: int = SEED):
    """One huge clusterserver scenario: a dense stream of small jobs.

    Single-node three-phase jobs at ~1 s mean interarrival keep several
    hundred jobs running concurrently — the regime where the eager
    single-kernel engine's O(running) per-event advance dominates and
    kernel partitioning pays.
    """
    rng = SeedSequenceFactory(seed).rng("sharded-bench")
    specs, t = [], 0.0
    for i in range(jobs):
        t += float(rng.exponential(1.0))
        unit = float(rng.uniform(0.5, 1.5)) * 120.0
        specs.append(
            JobSpec(
                name=f"job{i}",
                arrival=t,
                phase_work=(unit, unit, unit),
                efficiency=amdahl_efficiency(0.95),
                max_nodes=1,
                min_nodes=1,
                preferred_nodes=1,
            )
        )
    return specs


def _results_identical(a, b) -> bool:
    """Bit-equality on the gated ServerResult fields."""
    return (
        a.makespan == b.makespan
        and a.job_turnaround == b.job_turnaround
        and a.job_wait == b.job_wait
        and a.job_slowdown == b.job_slowdown
        and a.events == b.events
    )


def _max_rel_err(a: dict, b: dict) -> float:
    return max(
        abs(a[k] - b[k]) / max(abs(b[k]), 1e-30) for k in b
    ) if b else 0.0


def test_sharded_clusterserver_scaling(benchmark):
    specs = sharded_scenario()
    scheduler = lambda: FcfsScheduler(backfill=True)  # noqa: E731

    t0 = time.perf_counter()
    eager = ClusterServer(SHARD_BENCH_NODES, scheduler()).run(specs)
    eager_wall = time.perf_counter() - t0

    single = ShardedServer(
        SHARD_BENCH_NODES, scheduler(), shards=1
    )
    serial = single.run(specs)

    sharded = ShardedServer(
        SHARD_BENCH_NODES, scheduler(), shards=4
    )
    holder = {}
    benchmark.pedantic(
        lambda: holder.update(result=sharded.run(specs)),
        rounds=1,
        iterations=1,
    )
    result = holder["result"]
    stats = sharded.stats

    rows = [
        ("eager single-kernel", f"{eager_wall:.2f}", f"{eager.events}", "1.00"),
        (
            "sharded K=1",
            f"{single.stats.wall_s:.2f}",
            f"{serial.events}",
            f"{single.stats.speedup_vs(eager_wall):.2f}",
        ),
        (
            "sharded K=4",
            f"{stats.wall_s:.2f}",
            f"{result.events}",
            f"{stats.speedup_vs(eager_wall):.2f}",
        ),
    ]
    print()
    print(
        ascii_table(
            ("engine", "wall [s]", "events", "speedup"),
            rows,
            title=(
                f"Sharded clusterserver — {len(specs)} jobs on "
                f"{SHARD_BENCH_NODES} nodes"
            ),
        )
    )
    print(
        f"epochs {stats.epochs}, reallocations {stats.allocations} "
        f"({stats.allocations_elided} elided), events/shard "
        f"{list(stats.shard_events)}, barrier wait "
        f"{stats.barrier_wait_s * 1e3:.1f} ms"
    )

    # Determinism gate (hard requirement): the 4-shard run reproduces the
    # single-kernel (K=1) run bit-for-bit, and shard event totals conserve.
    assert _results_identical(result, serial)
    assert stats.events_total == single.stats.events_total
    assert sum(stats.shard_jobs) == len(specs)
    # Cross-engine validation: the eager engine agrees to reassociation
    # noise (its per-event advance chunks progress differently).
    assert _max_rel_err(result.job_turnaround, eager.job_turnaround) < 1e-9
    assert abs(result.makespan - eager.makespan) < 1e-9 * eager.makespan
    # Speedup gate: >= 2x over the eager single-kernel engine at 4 shards.
    speedup = stats.speedup_vs(eager_wall)
    assert speedup >= SHARD_GATE_SPEEDUP, (
        f"sharded run only {speedup:.2f}x faster "
        f"({stats.wall_s:.2f}s vs {eager_wall:.2f}s)"
    )


# --------------------------------------------------------------------------
# open-system million-job regime (the docs/workloads.md acceptance gate)
# --------------------------------------------------------------------------

OPEN_BENCH_JOBS = int(os.environ.get("REPRO_OPEN_BENCH_JOBS", "1000000"))
OPEN_BENCH_NODES = 128
# ~60 active jobs at this load; a generous ceiling that is still three
# orders of magnitude below what materializing 1M JobSpecs would need.
OPEN_BENCH_PEAK_BYTES = 64 * 1024 * 1024
OPEN_BENCH_PEAK_RATIO = 3.0


def open_stream(jobs: int, seed: int = SEED):
    """A Poisson stream of single-node jobs, generated lazily.

    Mean work 60 s at 1 job/s on 128 nodes keeps utilization near 0.47
    and the *active* set near 60 jobs regardless of how many jobs the
    stream carries — the invariant the memory gate pins down.
    """
    rng = SeedSequenceFactory(seed).rng("open-bench")
    t = 0.0
    for i in range(jobs):
        t += float(rng.exponential(1.0))
        work = float(rng.uniform(30.0, 90.0))
        yield t, JobSpec(
            name=f"job{i}",
            arrival=t,
            phase_work=(work,),
            efficiency=amdahl_efficiency(0.9),
            max_nodes=1,
            min_nodes=1,
            preferred_nodes=1,
        )


def _traced_open_run(jobs: int, shards: int):
    """Run the sharded open-system engine under tracemalloc."""
    server = ShardedServer(
        OPEN_BENCH_NODES, FcfsScheduler(backfill=True),
        shards=shards,
    )
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        result = server.run(open_stream(jobs))
        wall = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, server.stats, wall, peak


def test_sharded_open_system_million_jobs(benchmark):
    """The million-job gate: O(active-jobs) memory, bit-identical shards.

    One million Poisson arrivals (``REPRO_OPEN_BENCH_JOBS`` overrides)
    stream through the 4-shard engine under ``tracemalloc``.  The peak
    must stay under an absolute ceiling *and* under a small multiple of
    a 10x-shorter run's peak — memory tracks the ~60-job active set,
    not the stream length.  Shard-count identity (the SLO summary
    included) is asserted on a truncated prefix so the full regime only
    runs once.
    """
    jobs = OPEN_BENCH_JOBS

    # Determinism gate first: K in {1, 2, 4} agree bit-for-bit, SLO
    # summary included, on a prefix of the same stream.
    prefix = min(jobs, 20_000)
    results = {}
    for shards in (1, 2, 4):
        server = ShardedServer(
            OPEN_BENCH_NODES, FcfsScheduler(backfill=True),
            shards=shards,
        )
        results[shards] = server.run(open_stream(prefix))
        assert sum(server.stats.shard_jobs) == prefix
    assert results[2] == results[1]
    assert results[4] == results[1]
    assert results[4].slo == results[1].slo

    # Memory gate: the short run sets the yardstick, the full run must
    # not outgrow it even with 10x (default 50x) the jobs.
    short_jobs = max(prefix, jobs // 10)
    _, _, short_wall, short_peak = _traced_open_run(short_jobs, shards=4)

    holder = {}
    benchmark.pedantic(
        lambda: holder.update(
            zip(("result", "stats", "wall", "peak"),
                _traced_open_run(jobs, shards=4))
        ),
        rounds=1,
        iterations=1,
    )
    result, stats = holder["result"], holder["stats"]
    wall, peak = holder["wall"], holder["peak"]
    slo = result.slo

    print()
    print(
        ascii_table(
            ("jobs", "wall [s]", "peak [MB]", "throughput [1/s]",
             "p50 sojourn [s]", "p99 sojourn [s]", "util"),
            [
                (f"{short_jobs}", f"{short_wall:.1f}",
                 f"{short_peak / 1e6:.2f}", "-", "-", "-", "-"),
                (f"{jobs}", f"{wall:.1f}", f"{peak / 1e6:.2f}",
                 f"{slo.throughput:.3f}", f"{slo.sojourn_p50:.1f}",
                 f"{slo.sojourn_p99:.1f}", f"{slo.utilization_mean:.2f}"),
            ],
            title=(
                f"Open-system sharded clusterserver — Poisson stream on "
                f"{OPEN_BENCH_NODES} nodes (K=4)"
            ),
        )
    )
    print(
        f"epochs {stats.epochs}, reallocations {stats.allocations} "
        f"({stats.allocations_elided} elided), jobs/shard "
        f"{list(stats.shard_jobs)}"
    )

    assert result.jobs_completed == jobs
    assert result.job_turnaround == {}  # per-job state retired, not kept
    assert slo.sojourn_p50 > 0 and slo.sojourn_p99 >= slo.sojourn_p50
    # The memory gate proper: O(active jobs), not O(stream length).
    assert peak < OPEN_BENCH_PEAK_BYTES, (
        f"peak {peak / 1e6:.1f} MB exceeds the "
        f"{OPEN_BENCH_PEAK_BYTES / 1e6:.0f} MB open-system ceiling"
    )
    assert peak < OPEN_BENCH_PEAK_RATIO * short_peak, (
        f"peak grew {peak / short_peak:.1f}x between {short_jobs} and "
        f"{jobs} jobs; open-system memory must be O(active jobs)"
    )