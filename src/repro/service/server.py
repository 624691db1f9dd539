"""``repro serve``: the asyncio HTTP/JSON front end over the resident pool.

A deliberately small, stdlib-only HTTP/1.1 server
(:class:`ScenarioService`) that turns the declarative scenario API into a
long-lived simulation-as-a-service daemon: clients POST
:class:`~repro.scenario.spec.ScenarioSpec` payloads (the canonical dict
form, exactly what ``--record-json`` consumes on the way out) and receive
normalized :class:`~repro.scenario.runner.RunRecord` JSON.

Endpoints (all JSON; one request per connection, ``connection: close``):

* ``POST /run`` — validate the body through the unknown-key-rejecting
  loader (400 + loader text on failure), dedup against in-flight jobs by
  canonical key, enqueue on the resident pool (429 when the bounded queue
  is full).  Blocks until the record is ready by default;
  ``?wait=0`` returns 202 + the job description for polling, and
  ``?priority=N`` / ``?timeout=S`` tune scheduling and the wait bound.
  ``?deadline=S`` bounds each execution attempt's wall-clock seconds
  (504 + ``DeadlineExceededError`` past it) and ``?max_retries=N``
  overrides the pool's crash-retry budget (``docs/faults.md``).
  Every response carries the job id in an ``x-repro-job`` header.
* ``GET /jobs/<id>`` — job state (+ record once done, error if failed,
  ``attempts``/``failure`` once dispatched — ``attempts > 1`` means the
  job survived a worker crash).
* ``DELETE /jobs/<id>`` — cancel: 200 while queued, 409 once running or
  finished (running simulations cannot be interrupted).
* ``GET /healthz`` — liveness.
* ``GET /stats`` — queue depth, counters (dedup hits, backpressure
  rejections...), both persistent cache families, and p50/p99 job latency
  from a :class:`~repro.util.stats.StreamingQuantile`.

Threading model: all service state (the :class:`~repro.service.jobs.JobTable`,
the latency reservoir) is touched only on the event loop; pool completion
callbacks marshal in via ``call_soon_threadsafe``.  A client disconnect
mid-request never kills the job (other deduplicated waiters may share it)
and never kills the server — write failures are swallowed per connection.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Optional
from urllib.parse import parse_qs

from repro.analysis import benchcache, calibcache
from repro.errors import ConfigurationError, DeadlineExceededError
from repro.service import jobs as jobstates
from repro.service.jobs import Job, JobTable, canonical_spec, spec_key
from repro.service.pool import PoolSaturatedError, ResidentPool
from repro.util.stats import StreamingQuantile

#: Request guards: a scenario spec is small; anything bigger is abuse.
MAX_BODY_BYTES = 4 * 1024 * 1024
MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """Internal: an error response (status + message [+ headers])."""

    def __init__(
        self, status: int, message: str, headers: Optional[dict] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


class _Disconnect(Exception):
    """Internal: the client went away; close quietly."""


class ScenarioService:
    """The scenario service: HTTP front end + job table + resident pool.

    Construct, then ``await start(host, port)`` inside a running event
    loop (``port=0`` binds an ephemeral port, exposed as ``.port``).
    ``serve_forever()`` blocks until cancelled; ``close()`` is idempotent
    and releases the listener, the waiters, and the pool workers.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        queue_limit: int = 64,
        mode: str = "thread",
        registry: Any = None,
        history_limit: int = 256,
        latency_capacity: int = 512,
        max_retries: int = 1,
    ) -> None:
        self.pool = ResidentPool(
            workers=workers,
            queue_limit=queue_limit,
            mode=mode,
            registry=registry,
            max_retries=max_retries,
        )
        self.jobs = JobTable(history_limit=history_limit)
        self.latency = StreamingQuantile(latency_capacity)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_at = time.monotonic()

    # ----------------------------------------------------------- lifetime
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> "ScenarioService":
        """Bring up the pool and bind the listener (ephemeral at 0)."""
        self._loop = asyncio.get_running_loop()
        self.pool.start()
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        self.host = host
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def close(self) -> None:
        """Idempotent shutdown: listener, pool, then release any waiters."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        self.pool.close()
        for job in self.jobs.inflight():
            # Queued jobs were cancelled by the pool; running ones are
            # abandoned — either way the waiters must not hang.
            self.jobs.mark_cancelled(job)
            if job.done is not None:
                job.done.set()

    # ------------------------------------------------------ HTTP plumbing
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, payload, headers = 500, {"error": "internal error"}, {}
        try:
            method, path, query, body = await self._read_request(reader)
            status, payload, headers = await self._dispatch(method, path, query, body)
        except _HttpError as exc:
            status, payload, headers = exc.status, {"error": exc.message}, exc.headers
        except (_Disconnect, ConnectionError, asyncio.IncompleteReadError):
            self._close_writer(writer)
            return
        except asyncio.CancelledError:
            self._close_writer(writer)
            raise
        except Exception as exc:  # a handler bug must not kill the daemon
            status, payload, headers = 500, {"error": f"internal error: {exc!r}"}, {}
        try:
            body_bytes = json.dumps(payload, sort_keys=True).encode("utf-8")
            head_lines = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                "content-type: application/json",
                f"content-length: {len(body_bytes)}",
                "connection: close",
            ]
            head_lines += [f"{k}: {v}" for k, v in headers.items()]
            writer.write(("\r\n".join(head_lines) + "\r\n\r\n").encode("utf-8"))
            writer.write(body_bytes)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass  # client went away while we were answering; job lives on
        finally:
            self._close_writer(writer)

    @staticmethod
    def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except Exception:  # pragma: no cover - already-broken transport
            pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line:
            raise _Disconnect
        parts = request_line.decode("latin-1").split()
        if len(parts) < 3:
            raise _HttpError(400, "malformed HTTP request line")
        method = parts[0].upper()
        path, _, raw_query = parts[1].partition("?")
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, "too many request headers")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "invalid content-length") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length > 0 else b""
        query = {k: v[-1] for k, v in parse_qs(raw_query).items()}
        return method, path, query, body

    # ------------------------------------------------------------ routing
    async def _dispatch(self, method: str, path: str, query: dict, body: bytes):
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "healthz supports GET only")
            return 200, {"status": "ok", "uptime_s": self._uptime()}, {}
        if path == "/stats":
            if method != "GET":
                raise _HttpError(405, "stats supports GET only")
            return 200, self._stats(), {}
        if path == "/run":
            if method != "POST":
                raise _HttpError(405, "run supports POST only")
            return await self._handle_run(query, body)
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            if method == "GET":
                return 200, self._require_job(job_id).describe(), {}
            if method == "DELETE":
                return self._handle_cancel(job_id)
            raise _HttpError(405, "jobs supports GET and DELETE only")
        raise _HttpError(404, f"unknown path {path!r}")

    def _require_job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return job

    # ---------------------------------------------------------- POST /run
    async def _handle_run(self, query: dict, body: bytes):
        self.jobs.counters["requests"] += 1
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            self.jobs.counters["invalid"] += 1
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from None
        try:
            priority = int(query.get("priority", "0"))
            timeout = float(query["timeout"]) if "timeout" in query else None
            deadline = (
                float(query["deadline"]) if "deadline" in query else None
            )
            max_retries = (
                int(query["max_retries"]) if "max_retries" in query else None
            )
        except ValueError as exc:
            raise _HttpError(400, f"bad query parameter: {exc}") from None
        if deadline is not None and deadline <= 0:
            raise _HttpError(400, "deadline must be > 0 seconds")
        if max_retries is not None and max_retries < 0:
            raise _HttpError(400, "max_retries must be >= 0")
        wait = query.get("wait", "1").lower() not in ("0", "false", "no")
        try:
            spec = canonical_spec(payload)
        except ConfigurationError as exc:
            # The loader's own unknown-key/invalid-value message, verbatim.
            self.jobs.counters["invalid"] += 1
            raise _HttpError(400, str(exc)) from None
        key = spec_key(spec)
        job = self.jobs.attach(key)
        if job is None:
            job = self.jobs.create(spec, key, priority)
            job.done = asyncio.Event()
            try:
                # Deduplicated followers share the first request's
                # deadline/retry budget along with its result.
                job.ticket = self.pool.submit(
                    spec, priority, deadline=deadline, max_retries=max_retries
                )
            except PoolSaturatedError as exc:
                self.jobs.discard(job)
                self.jobs.counters["rejected"] += 1
                raise _HttpError(429, str(exc), {"retry-after": "1"}) from None
            job.ticket.future.add_done_callback(
                lambda fut, job=job: self._loop.call_soon_threadsafe(
                    self._job_finished, job, fut
                )
            )

        headers = {"x-repro-job": job.id}
        if not wait:
            return 202, job.describe(), headers
        try:
            await asyncio.wait_for(job.done.wait(), timeout)
        except asyncio.TimeoutError:
            raise _HttpError(
                504, f"job {job.id} still {job.state} after {timeout}s", headers
            ) from None
        if job.state == jobstates.DONE:
            return 200, job.record, headers
        if job.state == jobstates.CANCELLED:
            raise _HttpError(409, f"job {job.id} was cancelled", headers)
        raise _HttpError(job.error_status, job.error or "job failed", headers)

    def _job_finished(self, job: Job, fut) -> None:
        """Pool completion, marshalled onto the loop thread."""
        if job.state in jobstates.TERMINAL_STATES:
            return  # e.g. cancelled via DELETE before the callback landed
        if fut.cancelled():
            self.jobs.mark_cancelled(job)
        else:
            exc = fut.exception()
            if exc is None:
                self.jobs.mark_done(job, fut.result())
            else:
                if isinstance(exc, ConfigurationError):
                    status = 400
                elif isinstance(exc, DeadlineExceededError):
                    status = 504
                else:
                    status = 500
                self.jobs.mark_failed(job, str(exc), status)
            self.latency.add(job.latency_s)
        job.done.set()

    # ------------------------------------------------- DELETE /jobs/<id>
    def _handle_cancel(self, job_id: str):
        job = self._require_job(job_id)
        state = job.state
        if state in jobstates.TERMINAL_STATES:
            raise _HttpError(409, f"job {job.id} already {state}")
        if not self.pool.cancel(job.ticket):
            raise _HttpError(
                409,
                f"job {job.id} is running; running jobs cannot be interrupted",
            )
        self.jobs.mark_cancelled(job)
        job.done.set()
        return 200, job.describe(), {"x-repro-job": job.id}

    # ---------------------------------------------------------- GET /stats
    def _uptime(self) -> float:
        return time.monotonic() - self._started_at

    def _stats(self) -> dict:
        count = self.latency.count
        return {
            "server": {
                "uptime_s": self._uptime(),
                "pool_mode": self.pool.mode,
                "workers": self.pool.workers,
                "queue_limit": self.pool.queue_limit,
                "history_limit": self.jobs.history_limit,
            },
            "queue": {
                "depth": self.pool.queue_depth,
                "active": self.pool.active,
                "inflight_jobs": self.jobs.inflight_count,
            },
            "counters": {**self.jobs.counters, "executed": self.pool.executed},
            "faults": {
                "crashes": self.pool.crashes,
                "retries": self.pool.retries,
                "deadline_kills": self.pool.deadline_kills,
            },
            "cache": {
                "calibration_entries": len(calibcache.entries()),
                "kernelbench_entries": len(benchcache.entries()),
            },
            "latency": {
                "count": count,
                "p50_s": self.latency.quantile(50.0) if count else None,
                "p99_s": self.latency.quantile(99.0) if count else None,
            },
        }


class ServiceThread:
    """A :class:`ScenarioService` on its own event-loop thread.

    The reusable in-process harness the test fixtures and the load bench
    build on: ``start()`` binds an ephemeral port and returns once the
    service accepts connections; ``close()`` (idempotent) shuts the
    service, stops the loop and joins the thread.  Constructor kwargs are
    forwarded to :class:`ScenarioService`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **service_kwargs) -> None:
        self._host = host
        self._bind_port = port
        self.service = ScenarioService(**service_kwargs)
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None

    def start(self) -> "ServiceThread":
        import threading

        if self._loop is not None:
            return self
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.service.start(self._host, self._bind_port), self._loop
        ).result(timeout=30)
        self.port = self.service.port
        return self

    def close(self) -> None:
        loop, self._loop = self._loop, None
        if loop is None:
            return
        asyncio.run_coroutine_threadsafe(self.service.close(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=10)
        loop.close()

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
