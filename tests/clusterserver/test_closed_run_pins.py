"""Pinned outputs of ``run(Sequence[JobSpec])`` on both engines.

``closed_run_pins.json`` was recorded at the last commit that still had a
separate closed-workload loop per engine, and is replayed here
bit-for-bit: ``repr`` of every float, so a change in the last digit is a
failure.  The grid is 5 built-in policies x {eager, K=1, K=3 in-process}
x {no plan, the reference fault plan of ``test_faults.py``} on two seeded
workloads, plus one workload whose specs are *not* in arrival order and
tie on an arrival time (the fault layer's job identity is the spec
position, so it must survive the sort).

Since that recording exactly one thing moved, and only for the sharded
engine: ``events`` dropped by ``len(specs)`` in every sharded entry,
because a Sequence's arrivals are now controller look-ahead (as they
always were for streams) instead of one shard-kernel event each.  Every
other pinned value, and every eager ``events``, is as first recorded.

Regenerate (only when an output is *meant* to move):
``PYTHONPATH=src python tests/clusterserver/test_closed_run_pins.py``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

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
from repro.clusterserver.workload import mixed_workload
from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultPlan

PINS = Path(__file__).with_name("closed_run_pins.json")
NODES = 16

POLICIES = {
    "static": lambda: StaticScheduler(4),
    "fcfs": FcfsScheduler,
    "backfill": lambda: FcfsScheduler(backfill=True),
    "equipartition": EquipartitionScheduler,
    "adaptive": AdaptiveEfficiencyScheduler,
}

ENGINES = {
    "eager": lambda policy, plan: ClusterServer(NODES, policy, faults=plan),
    "k1": lambda policy, plan: ShardedServer(
        NODES, policy, shards=1, faults=plan
    ),
    "k3": lambda policy, plan: ShardedServer(
        NODES, policy, shards=3, faults=plan
    ),
}


def _reference_plan() -> FaultPlan:
    return FaultPlan(
        events=(
            FaultEvent(kind="crash", at=120.0, node=3),
            FaultEvent(kind="brownout", at=260.0, node=7, duration=90.0),
            FaultEvent(kind="degrade", at=60.0, node=1, factor=0.5,
                       duration=200.0),
            FaultEvent(kind="killjob", at=400.0, job=2),
        ),
        max_retries=2,
        seed=0,
    )


def _unordered():
    """Reverse arrival order, with two specs tied on one arrival time."""
    specs = synthetic_workload(jobs=8, mean_interarrival=40.0, seed=11,
                               max_nodes=8)
    specs[5] = dataclasses.replace(specs[5], arrival=specs[4].arrival)
    return specs[::-1]


WORKLOADS = {
    "synthetic3": lambda: synthetic_workload(
        jobs=10, mean_interarrival=40.0, seed=3, max_nodes=8
    ),
    "mixed7": lambda: mixed_workload(
        jobs=12, mean_interarrival=30.0, seed=7, max_nodes=8
    ),
    "unordered11": _unordered,
}


CASES = {
    f"{workload}/{policy}/{engine}/{plan}": (workload, policy, engine, plan)
    for workload in WORKLOADS
    for policy in (["equipartition"] if workload == "unordered11" else POLICIES)
    for engine in ENGINES
    for plan in ("noplan", "refplan")
}


def _reprs(d: dict) -> dict:
    return {name: repr(value) for name, value in d.items()}


def _run(key: str) -> dict:
    workload, policy, engine, plan = CASES[key]
    server = ENGINES[engine](
        POLICIES[policy](), _reference_plan() if plan == "refplan" else None
    )
    try:
        result = server.run(WORKLOADS[workload]())
    except ConfigurationError as exc:
        # Rigid policies keep a crashed node's grant: the over-allocation
        # check fires, and its message is part of the pin.
        return {"error": str(exc)}
    assert result.slo is None
    # json round-trip: the trace's tuples compare as the lists json stores
    return json.loads(json.dumps({
        "makespan": repr(result.makespan),
        "job_turnaround": _reprs(result.job_turnaround),
        "job_wait": _reprs(result.job_wait),
        "job_node_seconds": _reprs(result.job_node_seconds),
        "events": result.events,
        "retries": result.retries,
        "lost_work": repr(result.lost_work),
        "failed_jobs": result.failed_jobs,
        "fault_trace": list(result.fault_trace),
    }))


@pytest.mark.parametrize("key", sorted(CASES))
def test_closed_run_replays_its_pin(key):
    pinned = json.loads(PINS.read_text())
    assert sorted(pinned) == sorted(CASES)
    assert _run(key) == pinned[key]


if __name__ == "__main__":
    PINS.write_text(
        json.dumps({key: _run(key) for key in sorted(CASES)},
                   indent=1, sort_keys=True) + "\n"
    )
