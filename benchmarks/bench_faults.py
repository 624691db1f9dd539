"""Fault-layer acceptance gates (``docs/faults.md``).

Two properties of the fault subsystem are cheap to promise and easy to
regress, so they are pinned here:

* **Empty plans are free.**  ``faults=FaultPlan()`` compiles to ``None``
  and must take the *literal* fault-free code path — the gate runs the
  10k-job sharded open-system regime (``REPRO_FAULT_BENCH_JOBS``
  overrides) both ways, interleaved best-of-5, and requires the
  empty-plan wall clock within **2%** of the no-plan baseline plus a
  bit-identical result.
* **Fault replay is K-invariant at scale.**  A non-empty plan on the
  same regime must produce the identical result — fault trace, retry
  and loss accounting included — for 1 and 4 shards.
"""

from __future__ import annotations

import os
import time

from repro.analysis.tables import ascii_table
from repro.clusterserver import (
    FcfsScheduler,
    JobSpec,
    ShardedServer,
    amdahl_efficiency,
)
from repro.faults import FaultEvent, FaultPlan
from repro.util.rng import SeedSequenceFactory

#: the measurement seed of every stream
SEED = 1
FAULT_BENCH_JOBS = int(os.environ.get("REPRO_FAULT_BENCH_JOBS", "10000"))
FAULT_BENCH_NODES = 128
#: allowed empty-plan overhead over the no-plan baseline (best-of-5)
FAULT_GATE_OVERHEAD = 0.02
_REPS = 5


def open_stream(jobs: int, seed: int = SEED):
    """Lazy Poisson stream of single-node jobs (~60 concurrently active)."""
    rng = SeedSequenceFactory(seed).rng("fault-bench")
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


def _run(jobs: int, faults=None, shards: int = 4):
    server = ShardedServer(
        FAULT_BENCH_NODES,
        FcfsScheduler(backfill=True),
        shards=shards,
        faults=faults,
    )
    t0 = time.perf_counter()
    result = server.run(open_stream(jobs))
    return result, time.perf_counter() - t0


def test_empty_fault_plan_overhead(benchmark):
    """The ≤2% gate: an empty plan must cost (essentially) nothing."""
    jobs = FAULT_BENCH_JOBS
    walls: dict[str, list[float]] = {"none": [], "empty": []}
    results: dict[str, object] = {}

    def measure() -> None:
        # Interleaved repetitions decorrelate clock and cache drift from
        # the comparison; best-of-N is the low-noise point estimate.
        for _ in range(_REPS):
            for label, faults in (("none", None), ("empty", FaultPlan())):
                result, wall = _run(jobs, faults)
                walls[label].append(wall)
                results[label] = result

    benchmark.pedantic(measure, rounds=1, iterations=1)
    base = min(walls["none"])
    empty = min(walls["empty"])
    overhead = empty / base - 1.0

    print()
    print(
        ascii_table(
            ("fault plan", "best wall [s]", "median wall [s]", "overhead"),
            [
                ("none", f"{base:.3f}",
                 f"{sorted(walls['none'])[_REPS // 2]:.3f}", "-"),
                ("empty", f"{empty:.3f}",
                 f"{sorted(walls['empty'])[_REPS // 2]:.3f}",
                 f"{overhead * 100:+.2f}%"),
            ],
            title=(
                f"Empty-fault-plan overhead — {jobs} jobs on "
                f"{FAULT_BENCH_NODES} nodes, 4 shards"
            ),
        )
    )

    none_result, empty_result = results["none"], results["empty"]
    # An empty plan is the fault-free code path: bits, not just stats.
    assert empty_result == none_result
    assert empty_result.fault_trace == ()
    assert overhead <= FAULT_GATE_OVERHEAD, (
        f"empty fault plan costs {overhead * 100:.2f}% "
        f"(gate {FAULT_GATE_OVERHEAD * 100:.0f}%)"
    )


def test_fault_replay_k_invariant_at_scale(benchmark):
    """Non-empty plans replay bit-identically for K in {1, 4} at 10k jobs."""
    jobs = FAULT_BENCH_JOBS
    horizon = float(jobs)  # ~1 job/s: faults land mid-stream
    plan = FaultPlan(
        events=(
            FaultEvent(kind="crash", at=0.10 * horizon, node=3),
            FaultEvent(kind="degrade", at=0.05 * horizon, node=17,
                       factor=0.5, duration=0.30 * horizon),
            FaultEvent(kind="brownout", at=0.40 * horizon, node=64,
                       duration=0.10 * horizon),
            FaultEvent(kind="crash", at=0.60 * horizon),  # seed-resolved
        ),
        max_retries=2,
        seed=SEED,
    )

    holder = {}
    benchmark.pedantic(
        lambda: holder.update(result=_run(jobs, plan, shards=4)[0]),
        rounds=1,
        iterations=1,
    )
    sharded = holder["result"]
    serial, _ = _run(jobs, plan, shards=1)

    print()
    print(
        f"fault replay at {jobs} jobs: {len(sharded.fault_trace)} trace "
        f"entries, {sharded.retries} retries, "
        f"{sharded.lost_work:.1f} work units lost, "
        f"{sharded.failed_jobs} failed"
    )

    assert sharded.fault_trace  # the plan must actually bite
    assert sharded == serial
    assert sharded.slo == serial.slo
