"""HTTP contract of the scenario service: endpoints, records, lifecycle."""

from __future__ import annotations

import pytest
from service_helpers import gate_spec, server_spec, strip_wall, wait_until

from repro.errors import ServiceError
from repro.scenario import run_scenario
from repro.scenario.spec import ScenarioSpec


class TestEndpoints:
    def test_healthz(self, make_service):
        _, client = make_service()
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0.0

    def test_stats_shape(self, make_service):
        _, client = make_service()
        stats = client.stats()
        assert set(stats) == {
            "server", "queue", "counters", "cache", "latency", "faults",
        }
        assert stats["faults"] == {
            "crashes": 0, "retries": 0, "deadline_kills": 0,
        }
        assert stats["server"]["pool_mode"] == "thread"
        assert stats["server"]["workers"] == 2
        assert stats["queue"] == {"depth": 0, "active": 0, "inflight_jobs": 0}
        for counter in (
            "requests", "submitted", "deduplicated", "completed", "failed",
            "cancelled", "rejected", "invalid", "executed",
        ):
            assert stats["counters"][counter] == 0
        assert stats["latency"] == {"count": 0, "p50_s": None, "p99_s": None}
        assert set(stats["cache"]) == {
            "calibration_entries", "kernelbench_entries",
        }

    def test_unknown_path_404_and_bad_method_405(self, make_service):
        _, client = make_service()
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client._request("DELETE", "/healthz")
        assert exc.value.status == 405
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/run")
        assert exc.value.status == 405

    def test_unknown_job_404(self, make_service):
        _, client = make_service()
        with pytest.raises(ServiceError) as exc:
            client.job("j999999")
        assert exc.value.status == 404


class TestRunRecords:
    def test_record_matches_direct_run(self, make_service, test_registry):
        _, client = make_service()
        payload = server_spec(seed=5, policy="adaptive")
        direct = run_scenario(
            ScenarioSpec.from_dict(payload), test_registry
        ).to_dict()
        record = client.run(payload)
        assert strip_wall(record) == strip_wall(direct)
        # wall time is reported, just not comparable
        assert record["wall_time_s"] >= 0.0

    def test_spec_object_and_dict_accepted(self, make_service):
        _, client = make_service()
        payload = server_spec()
        from_dict = client.run(payload)
        from_spec = client.run(ScenarioSpec.from_dict(payload))
        assert strip_wall(from_dict) == strip_wall(from_spec)

    def test_latency_tracked(self, make_service):
        _, client = make_service()
        client.run(server_spec())
        latency = client.stats()["latency"]
        assert latency["count"] == 1
        assert latency["p50_s"] > 0.0
        assert latency["p99_s"] >= latency["p50_s"]


class TestJobLifecycle:
    def test_async_submit_and_poll(self, make_service, gates):
        _, client = make_service(workers=1)
        description = client.submit(gate_spec("poll"))
        job_id = description["id"]
        assert description["state"] in ("queued", "running")
        gates.wait_started("poll")
        assert client.job(job_id)["state"] == "running"
        gates.open("poll")
        wait_until(lambda: client.job(job_id)["state"] == "done")
        final = client.job(job_id)
        assert final["record"]["engine"] == "gate"
        assert final["latency_s"] > 0.0
        assert final["queued_s"] >= 0.0

    def test_blocking_run_reports_job_id(self, make_service):
        _, client = make_service()
        record, job_id = client.run_with_job(server_spec())
        assert job_id.startswith("j")
        described = client.job(job_id)
        assert described["state"] == "done"
        assert strip_wall(described["record"]) == strip_wall(record)

    def test_priority_order_single_worker(self, make_service, gates):
        _, client = make_service(workers=1)
        client.submit(gate_spec("plug"))
        gates.wait_started("plug")
        # Both queued behind the plug; the high-priority one must start
        # first once the worker frees up.
        client.submit(gate_spec("low"), priority=0)
        client.submit(gate_spec("high"), priority=10)
        gates.open("plug")
        assert gates.wait_started("high")
        assert not gates.started("low")
        gates.open("high")
        assert gates.wait_started("low")
        gates.open("low")

    def test_inflight_dedup_shares_one_execution(self, make_service, gates):
        _, client = make_service(workers=1)
        client.submit(gate_spec("plug"))
        gates.wait_started("plug")
        first = client.submit(gate_spec("dup"))
        second = client.submit(gate_spec("dup"))
        assert first["id"] == second["id"]
        assert second["waiters"] == 2
        stats = client.stats()
        assert stats["counters"]["deduplicated"] == 1
        gates.open_all()
        wait_until(lambda: client.job(first["id"])["state"] == "done")
        assert gates.runs["dup"] == 1

    def test_history_eviction(self, make_service):
        _, client = make_service(history_limit=2)
        ids = [
            client.run_with_job(server_spec(seed=seed))[1] for seed in (1, 2, 3)
        ]
        with pytest.raises(ServiceError) as exc:
            client.job(ids[0])
        assert exc.value.status == 404
        assert client.job(ids[2])["state"] == "done"
