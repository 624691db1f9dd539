"""Plain helpers shared by the scenario-service tests (fixture-free)."""

from __future__ import annotations

import time


def wait_until(predicate, timeout: float = 15.0, interval: float = 0.01) -> None:
    """Poll ``predicate`` until it is truthy (AssertionError past timeout)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


def server_spec(
    name: str = "svc-test",
    seed: int = 2,
    nodes: int = 8,
    jobs: int = 4,
    mean_interarrival: float = 10.0,
    policy: str = "fcfs",
) -> dict:
    """A tiny (milliseconds) cluster-server scenario in dict form."""
    return {
        "name": name,
        "app": {"name": "lu"},
        "engine": {"name": "server", "seed": seed},
        "cluster": {
            "nodes": nodes,
            "policy": policy,
            "arrivals": {
                "process": "poisson",
                "mean_interarrival": mean_interarrival,
                "jobs": jobs,
            },
        },
    }


def gate_spec(gate_id: str, name: str = "gated") -> dict:
    """A scenario that blocks on ``gate_id`` until the test opens it."""
    return {
        "name": f"{name}-{gate_id}",
        "app": {"name": "lu"},
        "engine": {"name": "gate", "options": {"gate": gate_id}},
    }


#: Metric-name fragments measured on the host clock (vary run to run);
#: every other record field is a deterministic simulated quantity.
HOST_TIME_FRAGMENTS = ("wall", "barrier_wait")


def _host_timed(key: str) -> bool:
    return any(fragment in key for fragment in HOST_TIME_FRAGMENTS)


def strip_wall(record: dict) -> dict:
    """Drop host wall-clock fields — everything else is deterministic."""
    out = {}
    for key, value in record.items():
        if _host_timed(key):
            continue
        if isinstance(value, dict):
            value = {k: v for k, v in value.items() if not _host_timed(k)}
        out[key] = value
    return out
