"""Satellite 2: fault injection — bad payloads, overload, cancels, disconnects.

Every scenario here must leave the server alive and consistent: after
each injected fault the suite asserts ``/healthz`` still answers and a
normal request still round-trips.
"""

from __future__ import annotations

import json
import socket

import pytest
from service_helpers import gate_spec, server_spec, strip_wall, wait_until

from repro.errors import ServiceError


class TestMalformedPayloads:
    def test_invalid_json_body_is_400(self, make_service):
        _, client = make_service()
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/run", b"{not json", expect=(200,))
        assert exc.value.status == 400
        assert "not valid JSON" in exc.value.message
        assert client.stats()["counters"]["invalid"] == 1
        assert client.healthz()["status"] == "ok"

    def test_unknown_top_level_key_gets_loader_text(self, make_service):
        _, client = make_service()
        payload = server_spec()
        payload["bogus_section"] = {"x": 1}
        with pytest.raises(ServiceError) as exc:
            client.run(payload)
        assert exc.value.status == 400
        assert "unknown top-level spec keys ['bogus_section']" in exc.value.message

    def test_unknown_section_key_gets_loader_text(self, make_service):
        _, client = make_service()
        payload = server_spec()
        payload["engine"]["warp_factor"] = 9
        with pytest.raises(ServiceError) as exc:
            client.run(payload)
        assert exc.value.status == 400
        assert "unknown keys" in exc.value.message
        assert "warp_factor" in exc.value.message

    def test_invalid_value_gets_loader_text(self, make_service):
        _, client = make_service()
        payload = server_spec()
        payload["engine"]["mode"] = "sideways"
        with pytest.raises(ServiceError) as exc:
            client.run(payload)
        assert exc.value.status == 400
        assert "unknown engine.mode" in exc.value.message

    @pytest.mark.parametrize("bad", ["abc", 1.5, float("nan")])
    def test_bad_model_option_value_is_400_not_500(self, make_service, bad):
        """Model options are checked where the model is built, inside the
        job: a bad value is still the client's error, not a traceback."""
        pytest.importorskip("numpy")  # the job runs LU kernels' cost model
        _, client = make_service()
        payload = {
            "name": "bad-threshold",
            "app": {"name": "lu", "options": {
                "n": 192, "r": 48, "num_threads": 4, "num_nodes": 2}},
            "engine": {"name": "sim", "mode": "noalloc"},
            "netmodel": {"name": "maxmin",
                         "options": {"cascade_threshold": bad}},
        }
        with pytest.raises(ServiceError) as exc:
            client.run(payload)
        assert exc.value.status == 400
        assert "cascade_threshold must" in exc.value.message
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize(
        "section, key, bad, complaint",
        [
            ("cluster", "nodes", "16", "cluster.nodes must be of type int"),
            ("engine", "shards", 2.5, "engine.shards must be of type int"),
            ("engine", "seed", -1, "engine.seed must be >= 0, got -1"),
            ("cluster", "nodes_per_job", -3,
             "cluster.nodes_per_job must be >= 1, got -3"),
            ("cluster", "efficiency_floor", "x",
             "cluster.efficiency_floor must be of type int or float"),
        ],
    )
    def test_mistyped_scalar_is_400_not_500(
        self, make_service, section, key, bad, complaint
    ):
        _, client = make_service()
        payload = server_spec()
        payload[section][key] = bad
        with pytest.raises(ServiceError) as exc:
            client.run(payload)
        assert exc.value.status == 400
        assert complaint in exc.value.message
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("jobs", "abc"), ("jobs", 2.5), ("jobs", float("nan")),
            ("mean_interarrival", "x"), ("horizon", "soon"),
            ("max_nodes", "x"),
        ],
    )
    def test_bad_arrival_option_is_400_not_500(self, make_service, key, bad):
        """Arrival streams are lazy; their option checks must not be —
        ``jobs = NaN`` used to answer 200 with an empty run."""
        _, client = make_service()
        payload = server_spec()
        del payload["cluster"]["interarrival"], payload["cluster"]["jobs"]
        payload["cluster"]["arrivals"] = {
            "process": "poisson", "jobs": 4, key: bad
        }
        with pytest.raises(ServiceError) as exc:
            client.run(payload)
        assert exc.value.status == 400
        assert f"arrivals.{key} must be" in exc.value.message
        assert client.healthz()["status"] == "ok"

    def test_sharded_spec_runs_under_a_process_pool(self, make_service):
        """Pool workers are daemonic and may not fork: shards run on the
        worker's own thread, so the default pool serves a sharded spec."""
        payload = server_spec()
        payload["engine"]["shards"] = 2
        _, threaded = make_service()
        _, pooled = make_service(mode="process", registry=None, workers=1)
        assert strip_wall(pooled.run(payload)) == strip_wall(
            threaded.run(payload)
        )

    def test_validation_failures_do_not_create_jobs(self, make_service):
        _, client = make_service()
        for _ in range(3):
            with pytest.raises(ServiceError):
                client.run({"nonsense": True})
        counters = client.stats()["counters"]
        assert counters["invalid"] == 3
        assert counters["submitted"] == 0
        # ...and the server still runs real work afterwards.
        assert client.run(server_spec())["engine"] == "server"

    def test_engine_failure_is_500_with_message(self, make_service):
        _, client = make_service()
        payload = {"name": "kaboom", "app": {"name": "lu"},
                   "engine": {"name": "boom"}}
        with pytest.raises(ServiceError) as exc:
            client.run(payload)
        assert exc.value.status == 500
        assert "engine exploded for 'kaboom'" in exc.value.message
        counters = client.stats()["counters"]
        assert counters["failed"] == 1
        assert client.healthz()["status"] == "ok"


class TestBackpressure:
    def test_queue_full_answers_429(self, make_service, gates):
        _, client = make_service(workers=1, queue_limit=2)
        client.submit(gate_spec("plug"))
        gates.wait_started("plug")
        client.submit(gate_spec("q1"))
        client.submit(gate_spec("q2"))
        with pytest.raises(ServiceError) as exc:
            client.submit(gate_spec("q3"))
        assert exc.value.status == 429
        assert "queue is full" in exc.value.message
        counters = client.stats()["counters"]
        assert counters["rejected"] == 1
        # The rejected job left no trace: queued work drains normally.
        gates.open_all()
        wait_until(
            lambda: client.stats()["counters"]["completed"] == 3
        )
        assert client.stats()["queue"]["depth"] == 0

    def test_rejected_spec_can_be_resubmitted(self, make_service, gates):
        _, client = make_service(workers=1, queue_limit=1)
        client.submit(gate_spec("plug"))
        gates.wait_started("plug")
        client.submit(gate_spec("q1"))
        with pytest.raises(ServiceError) as exc:
            client.submit(gate_spec("retry-me"))
        assert exc.value.status == 429
        gates.open("plug")
        gates.open("q1")
        wait_until(lambda: client.stats()["queue"]["depth"] == 0)
        gates.open("retry-me")
        record = client.run(gate_spec("retry-me"))
        assert record["engine"] == "gate"


class TestCancellation:
    def test_cancel_queued_job(self, make_service, gates):
        _, client = make_service(workers=1)
        client.submit(gate_spec("plug"))
        gates.wait_started("plug")
        queued = client.submit(gate_spec("victim"))
        cancelled = client.cancel(queued["id"])
        assert cancelled["state"] == "cancelled"
        assert client.job(queued["id"])["state"] == "cancelled"
        gates.open_all()
        # The cancelled job never executes.
        wait_until(lambda: client.stats()["counters"]["completed"] == 1)
        assert gates.runs["victim"] == 0
        assert client.stats()["counters"]["cancelled"] == 1

    def test_cancel_running_job_is_409(self, make_service, gates):
        _, client = make_service(workers=1)
        running = client.submit(gate_spec("busy"))
        gates.wait_started("busy")
        with pytest.raises(ServiceError) as exc:
            client.cancel(running["id"])
        assert exc.value.status == 409
        assert "cannot be interrupted" in exc.value.message
        gates.open("busy")
        wait_until(lambda: client.job(running["id"])["state"] == "done")

    def test_cancel_finished_job_is_409(self, make_service):
        _, client = make_service()
        _, job_id = client.run_with_job(server_spec())
        with pytest.raises(ServiceError) as exc:
            client.cancel(job_id)
        assert exc.value.status == 409
        assert "already done" in exc.value.message

    def test_cancel_unknown_job_is_404(self, make_service):
        _, client = make_service()
        with pytest.raises(ServiceError) as exc:
            client.cancel("j424242")
        assert exc.value.status == 404

    def test_cancel_releases_deduplicated_waiters(self, make_service, gates):
        import threading

        _, client = make_service(workers=1)
        client.submit(gate_spec("plug"))
        gates.wait_started("plug")
        queued = client.submit(gate_spec("shared"))
        errors = []

        def blocked_waiter():
            try:
                client.run(gate_spec("shared"))
            except ServiceError as exc:
                errors.append(exc)

        waiter = threading.Thread(target=blocked_waiter)
        waiter.start()
        wait_until(lambda: client.job(queued["id"])["waiters"] == 2)
        client.cancel(queued["id"])
        waiter.join(timeout=15)
        assert not waiter.is_alive()
        assert len(errors) == 1 and errors[0].status == 409
        assert "cancelled" in errors[0].message
        gates.open_all()


class TestClientDisconnects:
    def _raw_socket(self, thread) -> socket.socket:
        return socket.create_connection(("127.0.0.1", thread.port), timeout=5)

    def test_disconnect_before_request_completes(self, make_service):
        thread, client = make_service()
        sock = self._raw_socket(thread)
        sock.sendall(b"POST /run HTTP/1.1\r\ncontent-length: 9999\r\n\r\n{")
        sock.close()  # body never arrives
        assert client.healthz()["status"] == "ok"
        assert client.run(server_spec())["engine"] == "server"

    def test_garbage_request_line(self, make_service):
        thread, client = make_service()
        sock = self._raw_socket(thread)
        sock.sendall(b"\x00\xffnonsense\r\n\r\n")
        sock.close()
        assert client.healthz()["status"] == "ok"

    def test_disconnect_while_waiting_does_not_kill_job(self, make_service, gates):
        thread, client = make_service(workers=1)
        body = json.dumps(gate_spec("abandoned")).encode()
        sock = self._raw_socket(thread)
        sock.sendall(
            b"POST /run HTTP/1.1\r\ncontent-length: %d\r\n\r\n%b"
            % (len(body), body)
        )
        gates.wait_started("abandoned")  # the job is really running
        sock.close()  # ...and its requester walks away
        gates.open("abandoned")
        # The job still completes and its record is served to others.
        wait_until(lambda: client.stats()["counters"]["completed"] == 1)
        assert gates.runs["abandoned"] == 1
        assert client.healthz()["status"] == "ok"
