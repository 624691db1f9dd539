"""The resident pool on its own: one warm process pool, liveness, teardown."""

from __future__ import annotations

import multiprocessing
import signal
import time

import pytest
from service_helpers import gate_spec, server_spec, strip_wall, wait_until

from repro.analysis import parallel
from repro.errors import ConfigurationError
from repro.scenario import run_scenario
from repro.scenario.spec import ScenarioSpec
from repro.service.pool import ResidentPool


def _spec(**kwargs) -> ScenarioSpec:
    return ScenarioSpec.from_dict(server_spec(**kwargs))


def test_one_warm_pool_serves_many_submissions():
    spec = _spec(seed=5)
    with ResidentPool(workers=2, mode="process") as pool:
        procs = pool._procs
        first = pool.submit(spec).future.result(timeout=60)
        second = pool.submit(spec).future.result(timeout=60)
        assert pool._procs is procs  # the same workers, not a new fork
        assert pool.executed == 2
    assert "raw" not in first
    assert strip_wall(first) == strip_wall(second)
    assert strip_wall(first) == strip_wall(run_scenario(spec).to_dict())


def test_each_job_announces_its_ticket_and_worker_pid():
    # A long heartbeat parks the monitor, so the announcement stays queued
    # until the test drains it.
    with ResidentPool(workers=1, mode="process", heartbeat=60.0) as pool:
        ticket = pool.submit(_spec())
        ticket.future.result(timeout=60)
        notes: list = []
        wait_until(lambda: notes.extend(pool._drain_pids()) or notes)
        ((tag, pid),) = notes
        assert tag == ticket.seq
        assert pid in {p.pid for p in pool._procs._pool}
        assert pool._is_live_worker(pid)
        assert not pool._is_live_worker(-1)


def test_worker_error_fails_the_ticket():
    bad = ScenarioSpec.from_dict(dict(server_spec(), engine={"name": "nope"}))
    with ResidentPool(workers=1, mode="process") as pool:
        ticket = pool.submit(bad)
        with pytest.raises(ConfigurationError, match="nope"):
            ticket.future.result(timeout=60)
        assert ticket.failure == "ConfigurationError"
        assert pool.active == 0
        # The worker survived its job's exception and serves the next one.
        assert pool.submit(_spec()).future.result(timeout=60)["makespan"] > 0


def test_active_counts_the_tickets_on_workers(test_registry, gates):
    with ResidentPool(workers=1, registry=test_registry) as pool:
        running = pool.submit(ScenarioSpec.from_dict(gate_spec("plug")))
        gates.wait_started("plug")
        queued = pool.submit(ScenarioSpec.from_dict(gate_spec("next")))
        assert (pool.active, pool.queue_depth) == (1, 1)
        gates.open_all()
        running.future.result(timeout=30)
        queued.future.result(timeout=30)
        # A ticket leaves the running set before its future settles.
        assert (pool.active, pool.executed) == (0, 2)


def _ignore_sigterm_and_sleep(flag_path: str) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    open(flag_path, "w").close()
    time.sleep(60)


def test_close_kills_a_worker_that_outlives_sigterm(tmp_path, monkeypatch):
    """``close`` is bounded: a worker that does not exit on the pool's
    SIGTERM (ignored here; swallowed by an inherited handler in the
    respawn race) is SIGKILLed after the grace period, not joined for as
    long as it cares to run."""
    monkeypatch.setattr(parallel, "_TERMINATE_GRACE_S", 0.2)
    pool = ResidentPool(workers=1, mode="process").start()
    flag = tmp_path / "started"
    pool._procs.apply_async(_ignore_sigterm_and_sleep, (str(flag),))
    wait_until(flag.exists, timeout=30.0)
    workers = list(pool._procs._pool)
    started = time.monotonic()
    pool.close()
    assert time.monotonic() - started < 20
    assert not any(p.is_alive() for p in workers)
    assert not set(workers) & set(multiprocessing.active_children())
