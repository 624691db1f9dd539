"""Chaos tests: the service survives worker death, deadlines, overload.

The end-to-end crash-safety contract (``docs/faults.md``): SIGKILLing a
process-mode pool worker mid-job must not take the service down — the
job is re-dispatched under its retry budget and completes with
``attempts > 1`` visible in ``GET /jobs/<id>`` and the crash counted in
``/stats``; a job over its ``?deadline`` budget fails with a 504; and a
client configured with retries rides out 429 backpressure.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest
from service_helpers import gate_spec, server_spec, wait_until

from repro.errors import ServiceError
from repro.service.client import ServiceClient


def _lu_spec(name: str, n: int = 1296, r: int = 162) -> dict:
    """A real sim-engine LU run: long enough to kill mid-flight."""
    return {
        "name": name,
        "app": {
            "name": "lu",
            "options": {"n": n, "r": r, "num_threads": 8, "num_nodes": 8},
        },
        "engine": {"name": "sim", "seed": 1},
    }


def _hasten(thread) -> None:
    """Tighten the pool's monitor cadence for test-speed crash detection.

    The monitor re-reads both knobs every tick, so this takes effect
    within one (old) heartbeat.
    """
    thread.service.pool.heartbeat = 0.05
    thread.service.pool.backoff = 0.05


class TestWorkerKill:
    def test_sigkilled_worker_job_retries_and_completes(self, make_service):
        thread, client = make_service(
            mode="process", registry=None, workers=2
        )
        _hasten(thread)
        attempts = 0
        for round_ in range(5):
            desc = client.submit(
                _lu_spec(f"chaos-kill-{round_}"), max_retries=3
            )
            job_id = desc["id"]
            job = thread.service.jobs.get(job_id)
            # The worker announces its pid at dispatch; the monitor tags
            # the ticket within a heartbeat.
            wait_until(
                lambda: job.ticket._pid is not None
                or job.state in ("done", "failed"),
                timeout=30.0,
            )
            pid = job.ticket._pid
            if pid is not None and job.state == "running":
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            wait_until(
                lambda: client.job(job_id)["state"] in ("done", "failed"),
                timeout=60.0,
            )
            final = client.job(job_id)
            assert final["state"] == "done", final.get("error")
            attempts = final["attempts"]
            if attempts > 1:
                break
        assert attempts > 1, "never caught a worker mid-job in 5 rounds"
        stats = client.stats()
        assert stats["faults"]["crashes"] >= 1
        assert stats["faults"]["retries"] >= 1
        # the service is still healthy and serves fresh work
        assert client.healthz()["status"] == "ok"
        record = client.run(server_spec(seed=9))
        assert record["engine"] == "server"

    def test_deadline_kills_worker_and_returns_504(self, make_service):
        thread, client = make_service(
            mode="process", registry=None, workers=1
        )
        _hasten(thread)
        with pytest.raises(ServiceError) as exc:
            client.run(
                _lu_spec("chaos-deadline", n=2592, r=162), deadline=0.3
            )
        assert exc.value.status == 504
        assert "deadline" in str(exc.value)
        wait_until(lambda: client.stats()["faults"]["deadline_kills"] >= 1)
        assert client.stats()["faults"]["deadline_kills"] >= 1
        # the killed worker's slot was reclaimed: new work still runs
        record = client.run(server_spec(seed=10))
        assert record["engine"] == "server"


class TestThreadDeadline:
    def test_stuck_thread_job_fails_with_504(self, make_service, gates):
        # Thread mode cannot kill the worker, but the ticket must still
        # fail past its deadline (the eventual result is discarded).
        thread, client = make_service(workers=1)
        _hasten(thread)
        desc = client.submit(gate_spec("stuck"), deadline=0.3)
        job_id = desc["id"]
        wait_until(lambda: client.job(job_id)["state"] == "failed")
        final = client.job(job_id)
        assert final["failure"] == "deadline"
        assert "deadline" in final["error"]
        gates.open("stuck")
        # no process was killed — the worker thread finishes harmlessly
        assert client.stats()["faults"]["deadline_kills"] == 0


class TestClientRetries:
    def test_client_rides_out_backpressure(self, make_service, gates):
        thread, client = make_service(workers=1, queue_limit=1)
        retrying = ServiceClient(
            port=thread.port, timeout=60.0, retries=5, backoff=0.1
        )
        # Saturate: one job running, one queued — the next POST is a 429.
        client.submit(gate_spec("plug"))
        gates.wait_started("plug")
        client.submit(gate_spec("fill"))

        result: dict = {}

        def blocked_run():
            result["record"] = retrying.run(server_spec(seed=7))

        runner = threading.Thread(target=blocked_run)
        runner.start()
        # The retrying client must hit backpressure at least once...
        wait_until(lambda: client.stats()["counters"]["rejected"] >= 1)
        # ...then succeed once the queue drains.
        gates.open_all()
        runner.join(timeout=30.0)
        assert not runner.is_alive()
        assert result["record"]["engine"] == "server"

    def test_zero_retries_fails_fast(self, make_service, gates):
        _, client = make_service(workers=1, queue_limit=1)
        client.submit(gate_spec("plug"))
        gates.wait_started("plug")
        client.submit(gate_spec("fill"))
        with pytest.raises(ServiceError) as exc:
            client.run(server_spec(seed=8))
        assert exc.value.status == 429
