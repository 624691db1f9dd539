"""Fixtures for the scenario-service tests: an in-process server harness.

The core fixture is :func:`make_service` — a factory that boots a
:class:`~repro.service.server.ServiceThread` on an ephemeral port (with
the suite's temp cache dir from the root conftest) and tears every
started server down after the test.  Services run a **gated test
registry**: alongside the builtins it registers a ``gate`` engine whose
runs block on a :class:`threading.Event` until the test releases them
(the deterministic way to hold workers busy, fill the queue, and observe
in-flight dedup) and a ``boom`` engine that always raises.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.scenario import Registry, RunRecord
from repro.scenario.builtins import install_builtins
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread

#: Gate engines must never block forever: a wedged test run would hang
#: interpreter shutdown (worker threads are joined at exit).
GATE_TIMEOUT_S = 30.0


class GateController:
    """Open/close gates for ``gate``-engine runs, and count executions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._gates: dict[str, threading.Event] = {}
        self._started: dict[str, threading.Event] = {}
        self._all_open = False
        self.runs: Counter = Counter()

    def _event(self, table: dict, gate_id: str) -> threading.Event:
        with self._lock:
            if gate_id not in table:
                table[gate_id] = threading.Event()
                if table is self._gates and self._all_open:
                    table[gate_id].set()
            return table[gate_id]

    def open(self, gate_id: str) -> None:
        """Let every (current and future) run of ``gate_id`` finish."""
        self._event(self._gates, gate_id).set()

    def open_all(self) -> None:
        """Open every gate, including ones no run has reached yet."""
        with self._lock:
            self._all_open = True
            gates = list(self._gates.values())
        for gate in gates:
            gate.set()

    def wait_started(self, gate_id: str, timeout: float = GATE_TIMEOUT_S) -> bool:
        """Block until a worker actually begins executing ``gate_id``."""
        return self._event(self._started, gate_id).wait(timeout)

    def started(self, gate_id: str) -> bool:
        return self._event(self._started, gate_id).is_set()

    def run(self, spec, registry) -> RunRecord:
        """The ``gate`` engine: record the start, block, return a record."""
        gate_id = spec.engine.options.get("gate", "default")
        with self._lock:
            self.runs[gate_id] += 1
        self._event(self._started, gate_id).set()
        if not self._event(self._gates, gate_id).wait(GATE_TIMEOUT_S):
            raise RuntimeError(f"gate {gate_id!r} was never opened")
        return RunRecord(
            scenario=spec.name,
            app=spec.app.name,
            engine="gate",
            makespan=1.0,
            wall_time_s=0.0,
            events=1,
            seed=spec.engine.seed,
            metrics={"gate_runs": float(self.runs[gate_id])},
        )


def _boom_engine(spec, registry) -> RunRecord:
    raise RuntimeError(f"engine exploded for {spec.name!r}")


@pytest.fixture
def gates() -> GateController:
    return GateController()


@pytest.fixture
def test_registry(gates: GateController) -> Registry:
    """Builtins plus the blocking ``gate`` and failing ``boom`` engines."""
    registry = install_builtins(Registry(name="service-tests"))
    registry.register("engine", "gate", gates.run, description="blocks on an event")
    registry.register("engine", "boom", _boom_engine, description="always raises")
    return registry


@pytest.fixture
def make_service(test_registry: Registry, gates: GateController):
    """Factory: boot an in-process service, return (thread, client).

    Defaults to the gated test registry on a 2-worker thread pool;
    keyword arguments override any :class:`ScenarioService` parameter.
    Every started service is closed (and its gates released, so no
    worker is left blocked) at teardown.
    """
    started: list[ServiceThread] = []

    def factory(**kwargs) -> tuple[ServiceThread, ServiceClient]:
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("mode", "thread")
        kwargs.setdefault("registry", test_registry)
        thread = ServiceThread(**kwargs).start()
        started.append(thread)
        return thread, ServiceClient(port=thread.port, timeout=60.0)

    yield factory
    gates.open_all()
    for thread in started:
        thread.close()


