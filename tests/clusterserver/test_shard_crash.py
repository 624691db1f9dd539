"""Crash safety of the process-mode shard protocol.

A SIGKILLed (or otherwise dead) shard worker must surface as a
diagnostic :class:`~repro.errors.ShardCrashError` — shard id, in-flight
command, exit code — within roughly one poll slice, never hang the
controller, and a worker that exits nonzero at teardown must be reported
rather than silently discarded (``docs/faults.md``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.clusterserver import EquipartitionScheduler, ShardedServer
from repro.clusterserver import sharded as sharded_mod
from repro.clusterserver.sharded import _ProcessShardHandle, _shard_worker
from repro.clusterserver.workload import synthetic_workload
from repro.errors import ShardCrashError


def _spawn(shard_id, jobs=3):
    """A live worker hosting ``jobs`` admitted jobs at two nodes each."""
    h = _ProcessShardHandle(multiprocessing.get_context(), shard_id)
    specs = synthetic_workload(jobs=jobs, seed=1, max_nodes=4)
    h.begin_apply(
        [(index, 2, 1.0) for index in range(jobs)],
        new_specs=list(enumerate(specs)),
    )
    h.finish_apply()
    return h


@pytest.fixture
def handle():
    h = _spawn(7)
    yield h
    if h._proc.is_alive():
        h._proc.terminate()
        h._proc.join(timeout=10.0)
    try:
        h._conn.close()
    except OSError:
        pass


class TestProcessHandle:
    def test_sigkill_surfaces_within_poll_timeout(self, handle):
        os.kill(handle._proc.pid, signal.SIGKILL)
        start = time.monotonic()
        with pytest.raises(ShardCrashError) as exc:
            handle.begin_advance(50.0)
            handle.finish_advance()
        elapsed = time.monotonic() - start
        assert exc.value.shard_id == 7
        assert exc.value.exitcode == -signal.SIGKILL
        assert exc.value.last_command == "run"
        assert "shard 7" in str(exc.value)
        assert "-9" in str(exc.value)
        # detection is poll-bounded, not reply-bounded
        assert elapsed < 5.0

    def test_silent_but_alive_worker_times_out(self, handle):
        # No command in flight: the worker is healthy but will never
        # speak.  A bounded _recv must give up with exitcode None.
        start = time.monotonic()
        with pytest.raises(ShardCrashError) as exc:
            handle._recv(timeout=0.3)
        assert time.monotonic() - start < 5.0
        assert exc.value.shard_id == 7
        assert exc.value.exitcode is None
        assert handle._proc.is_alive()

    def test_clean_shutdown_returns_stats(self, handle):
        handle.begin_advance(1000.0)
        handle.finish_advance()
        events, jobs_seen = handle.shutdown()
        assert events > 0
        assert jobs_seen == 3
        assert handle._proc.exitcode == 0

    def test_nonzero_exit_at_teardown_is_an_error(self, monkeypatch):
        # The worker answers the whole protocol correctly but its
        # process exits 3 — shutdown must report it, not swallow it.
        def dying_worker(conn, shard_id):
            _shard_worker(conn, shard_id)
            os._exit(3)

        monkeypatch.setattr(sharded_mod, "_shard_worker", dying_worker)
        h = _spawn(2)
        with pytest.raises(ShardCrashError) as exc:
            h.shutdown()
        assert exc.value.shard_id == 2
        assert exc.value.exitcode == 3
        assert exc.value.last_command == "finish"
        assert not h._proc.is_alive()


class TestServerEndToEnd:
    def test_mid_run_worker_death_propagates(self, monkeypatch):
        # Shard 1's worker dies on its first command; the controller
        # must raise the diagnostic error instead of hanging the run.
        def suicidal_worker(conn, shard_id):
            if shard_id == 1:
                conn.send(("ok", None))  # the idle-shard handshake
                conn.recv()
                os._exit(11)
            _shard_worker(conn, shard_id)

        monkeypatch.setattr(sharded_mod, "_shard_worker", suicidal_worker)
        server = ShardedServer(
            8, EquipartitionScheduler(), shards=2, mode="process"
        )
        with pytest.raises(ShardCrashError) as exc:
            server.run(synthetic_workload(jobs=6, seed=2, max_nodes=4))
        assert exc.value.shard_id == 1
        assert exc.value.exitcode == 11
