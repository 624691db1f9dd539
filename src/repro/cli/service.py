"""The ``serve`` subcommand: run the scenario service as a daemon.

Boots a :class:`~repro.service.server.ScenarioService` on the requested
address and blocks until interrupted.  ``--port 0`` binds an ephemeral
port; combined with ``--port-file`` (the bound port is written there once
the listener is up) that is how test harnesses and CI boot a server
without racing for a fixed port.  See ``docs/service.md`` for the HTTP
contract the daemon exposes.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal


def add_serve_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``serve`` subcommand."""
    p = sub.add_parser(
        "serve",
        help="long-lived scenario service (HTTP/JSON over a resident pool)",
        description=(
            "Serve scenario executions over HTTP: POST spec JSON to /run, "
            "poll /jobs/<id>, watch /stats.  Identical in-flight requests "
            "are deduplicated into one execution; a bounded queue answers "
            "429 under overload."
        ),
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8421, help="bind port (0 = ephemeral)"
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="resident worker count (default: one per CPU)",
    )
    p.add_argument(
        "--queue-limit", type=int, default=64,
        help="max queued jobs before 429 backpressure",
    )
    p.add_argument(
        "--pool", choices=("thread", "process"), default="process",
        help="worker mode: persistent worker processes (true parallelism) "
             "or in-process threads (lower latency, GIL-bound)",
    )
    p.add_argument(
        "--history", type=int, default=256,
        help="finished jobs retained for /jobs/<id> polling",
    )
    p.add_argument(
        "--job-retries", type=int, default=1,
        help="default extra attempts after a worker crash (per job; "
             "clients override with POST /run?max_retries=N)",
    )
    p.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="write the bound port here once listening (for --port 0)",
    )
    p.set_defaults(func=cmd_serve)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the service until SIGINT/SIGTERM."""
    import asyncio

    return asyncio.run(_serve(args))


def _write_port_file(path: str, port: int) -> None:
    """Atomically publish the bound port: readers never see a partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(str(port))
    os.replace(tmp, path)


async def _serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import ScenarioService

    service = ScenarioService(
        workers=args.workers,
        queue_limit=args.queue_limit,
        mode=args.pool,
        history_limit=args.history,
        max_retries=args.job_retries,
    )
    await service.start(args.host, args.port)
    if args.port_file:
        # File I/O blocks the event loop (REP-C001): do it on a thread.
        await asyncio.to_thread(_write_port_file, args.port_file, service.port)
    print(
        f"repro serve: listening on {service.host}:{service.port} "
        f"({service.pool.mode} pool, {service.pool.workers} workers, "
        f"queue limit {service.pool.queue_limit})",
        flush=True,
    )

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):  # non-POSIX loops
            loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        await service.close()
    print("repro serve: shut down", flush=True)
    return 0
