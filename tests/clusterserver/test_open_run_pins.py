"""Pinned outputs of open arrival streams on the eager engine.

``open_run_pins.json`` was recorded before the eager loop advanced its
running jobs in one pass per event, and is replayed here bit-for-bit:
``repr`` of every float, so a change in the last digit is a failure.
The grid is ``test_elision.py``'s eight policies on its ``stream``
workload x {no plan, its fault plan} — admission control, deferral, an
autoscaler and the fault layer's replay among them — plus the six
``examples/server_*.toml`` specs through :func:`run_scenario`.
``test_elision.py`` compares the eager loop only with its own
call-per-event twin; these pins compare it with earlier code.

Regenerate (only when an output is *meant* to move):
``PYTHONPATH=src python tests/clusterserver/test_open_run_pins.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.clusterserver import ClusterServer
from repro.scenario import ScenarioSpec, run_scenario

from test_elision import NODES, PLANS, POLICIES, WORKLOADS

PINS = Path(__file__).with_name("open_run_pins.json")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

CASES = {
    **{
        f"stream/{policy}/{plan}": (policy, plan)
        for policy in POLICIES
        for plan in PLANS
    },
    **{
        f"example/{path.stem}": path.name
        for path in sorted(EXAMPLES.glob("server_*.toml"))
    },
}


def _pinned(result) -> dict:
    slo = result.slo
    # json round-trip: the tuples compare as the lists json stores
    return json.loads(json.dumps({
        "makespan": repr(result.makespan),
        "events": result.events,
        "allocations": result.allocations,
        "allocations_elided": result.allocations_elided,
        "sojourn_p50": repr(slo.sojourn_p50),
        "sojourn_p99": repr(slo.sojourn_p99),
        "utilization_mean": repr(slo.utilization_mean),
        "utilization_series": repr(slo.utilization_series),
        "retries": result.retries,
        "lost_work": repr(result.lost_work),
        "fault_trace": list(result.fault_trace),
    }))


def _run(key: str) -> dict:
    case = CASES[key]
    if isinstance(case, str):
        record = run_scenario(ScenarioSpec.from_file(EXAMPLES / case))
        return _pinned(record.raw["result"])
    policy, plan = case
    server = ClusterServer(NODES, POLICIES[policy](), faults=PLANS[plan]())
    return _pinned(server.run(WORKLOADS["stream"]()))


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINS.read_text())


def test_the_grid_is_the_pinned_grid(pinned):
    assert len(CASES) == 2 * len(POLICIES) + 6
    assert sorted(pinned) == sorted(CASES)


def test_every_fault_kind_has_a_pinned_claim(pinned):
    """A fault kind earns its registry entry with a pinned example run."""
    from repro.scenario import default_registry

    kinds = {}
    for path in sorted(EXAMPLES.glob("server_*.toml")):
        for event in ScenarioSpec.from_file(path).faults.events:
            kinds.setdefault(event["kind"], []).append(f"example/{path.stem}")
    for kind in default_registry().names("fault"):
        assert any(key in pinned for key in kinds.get(kind, ())), kind


@pytest.mark.parametrize("key", sorted(CASES))
def test_open_run_replays_its_pin(key, pinned):
    assert _run(key) == pinned[key]


if __name__ == "__main__":
    PINS.write_text(
        json.dumps({key: _run(key) for key in sorted(CASES)},
                   indent=1, sort_keys=True) + "\n"
    )
