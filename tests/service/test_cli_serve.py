"""Satellite 5 (harness): boot ``repro serve`` as a real subprocess.

The same flow the CI ``service-smoke`` job runs: start the daemon on an
ephemeral port (``--port 0 --port-file``), drive it with
:class:`~repro.service.client.ServiceClient` over the repo's example
specs, assert records match direct in-process runs, force a dedup hit,
and shut it down with SIGTERM.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from service_helpers import server_spec, strip_wall, wait_until

from repro.errors import ServiceError
from repro.scenario import run_scenario
from repro.scenario.spec import ScenarioSpec
from repro.service.client import ServiceClient

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ["server_eager.toml", "server_sharded.toml", "lu_sim.toml"]


def _spawn_daemon(port_file, new_session=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--port-file", str(port_file),
            "--workers", "1", "--queue-limit", "64",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=new_session,
    )
    deadline = time.monotonic() + 60
    while not port_file.exists():
        if proc.poll() is not None:
            raise AssertionError(
                f"repro serve died during startup:\n{proc.stdout.read()}"
            )
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError("repro serve never wrote its port file")
        time.sleep(0.05)
    return proc, ServiceClient(port=int(port_file.read_text()), timeout=120.0)


@pytest.fixture
def serve_daemon(tmp_path):
    """A ``repro serve`` subprocess on an ephemeral port; yields a client."""
    proc, client = _spawn_daemon(tmp_path / "serve.port")
    try:
        yield proc, client
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=30)


def test_serve_subprocess_end_to_end(serve_daemon):
    proc, client = serve_daemon
    assert client.healthz()["status"] == "ok"

    # The example specs round-trip with records identical to direct runs.
    for example in EXAMPLES:
        spec = ScenarioSpec.from_file(REPO_ROOT / "examples" / example)
        direct = run_scenario(spec).to_dict()
        record = client.run(spec)
        assert strip_wall(record) == strip_wall(direct), example

    # Forced dedup: saturate the single worker with slow jobs, then
    # submit the same new spec twice — both must map to one job.
    # 150 jobs at mean_interarrival 5.0 keep each plug ~0.1s; larger streams can
    # hit seed-dependent pathological schedules in the server engine.
    for seed in (11, 12, 13):
        client.submit(server_spec(
            name="slow", seed=seed, jobs=150, mean_interarrival=5.0
        ))
    dup = server_spec(name="dup-me", seed=99)
    first = client.submit(dup)
    second = client.submit(dup)
    assert first["id"] == second["id"]
    stats = client.stats()
    assert stats["counters"]["deduplicated"] >= 1
    assert stats["server"]["pool_mode"] == "process"

    wait_until(
        lambda: client.job(first["id"])["state"] == "done", timeout=120
    )
    assert client.stats()["counters"]["failed"] == 0

    # Spec validation errors surface as 400s from the daemon too.
    with pytest.raises(ServiceError) as exc:
        client.run({"name": "bad", "nope": 1})
    assert exc.value.status == 400
    assert "unknown top-level spec keys" in exc.value.message

    # SIGTERM: clean, prompt shutdown.
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0
    assert "shut down" in proc.stdout.read()


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
def test_serve_group_sigterm_after_traffic(tmp_path):
    """Group-delivered SIGTERM (Ctrl-C, systemd, ``timeout``) shuts down.

    The signal reaches the pool workers too; they must ignore it and let
    the daemon terminate the pool, or ``Pool.join`` can hang on the
    worker-respawn race.  Traffic first, so the teardown happens with
    used queues — the regime where the hang reproduced.
    """
    proc, client = _spawn_daemon(tmp_path / "serve.port", new_session=True)
    try:
        spec = ScenarioSpec.from_file(REPO_ROOT / "examples" / "lu_sim.toml")
        client.run(spec)
        os.killpg(proc.pid, signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert "shut down" in proc.stdout.read()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
