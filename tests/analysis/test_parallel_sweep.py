"""Parallel sweep runner: serial/parallel equality, calibration cache."""

import signal
import time

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import (
    ParallelSweepRunner,
    cached_platform,
    clear_platform_cache,
)
from repro.analysis.prediction import validation_pair
from repro.errors import ConfigurationError
from repro.scenario import calibration_key


def _specs():
    """Three measured/predicted pairs over two calibration keys."""
    return [
        spec
        for i, (r, nodes) in enumerate([(48, 2), (96, 2), (48, 4)])
        for spec in validation_pair(
            f"c{i}", {"n": 192, "r": r, "num_threads": 4, "num_nodes": nodes}
        )
    ]


def test_parallel_sweep_equals_serial_spec_for_spec():
    specs = _specs()
    serial = ParallelSweepRunner(jobs=1).run_records(specs)
    parallel = ParallelSweepRunner(jobs=2).run_records(specs)
    assert len(serial) == len(parallel) == len(specs)
    for ser, par in zip(serial, parallel):
        assert (ser.scenario, ser.engine) == (par.scenario, par.engine)
        assert par.makespan == ser.makespan
        assert par.phases == ser.phases


def test_platform_cache_is_memoized():
    clear_platform_cache()
    key = calibration_key(_specs()[1])
    assert key == (2, 1)
    first = cached_platform(key)
    assert cached_platform(key) is first


def test_jobs_one_runs_in_process():
    runner = ParallelSweepRunner(jobs=1, persistent=True)
    measured, predicted = runner.run_records(_specs()[:2])
    assert runner._pool is None  # a forked pool would have stayed resident
    assert measured.makespan > 0
    # At small scale the models still agree reasonably.
    assert abs(predicted.makespan - measured.makespan) / measured.makespan < 0.5


def test_negative_jobs_rejected():
    with pytest.raises(ConfigurationError):
        ParallelSweepRunner(jobs=-1)


# --------------------------------------------------------------------------
# resident (persistent) pool lifetime: idempotent teardown, clean restart
# --------------------------------------------------------------------------


def _server_spec_dict(seed: int = 2) -> dict:
    return {
        "name": f"resident-{seed}",
        "app": {"name": "lu"},
        "engine": {"name": "server", "seed": seed},
        "cluster": {
            "nodes": 8,
            "policy": "fcfs",
            "arrivals": {
                "process": "poisson", "mean_interarrival": 10.0, "jobs": 4,
            },
        },
    }


def test_persistent_runner_reuses_one_pool_across_calls():
    from repro.scenario.spec import ScenarioSpec

    specs = [ScenarioSpec.from_dict(_server_spec_dict(s)) for s in (1, 2)]
    with ParallelSweepRunner(jobs=2, persistent=True) as runner:
        first = runner.run_records(specs)
        pool = runner._pool
        assert pool is not None
        second = runner.run_records(specs)
        assert runner._pool is pool  # same resident workers, not a new fork
    assert runner._pool is None  # context exit released them
    for a, b in zip(first, second):
        assert a.makespan == b.makespan


def test_one_shot_runner_still_tears_down_per_call():
    from repro.scenario.spec import ScenarioSpec

    runner = ParallelSweepRunner(jobs=2)
    runner.run_records([ScenarioSpec.from_dict(_server_spec_dict())])
    assert runner._pool is None


def test_close_and_join_are_idempotent_in_any_order():
    runner = ParallelSweepRunner(jobs=2, persistent=True)
    runner._ensure_pool()
    runner.close()
    runner.close()  # second close is a no-op
    runner.join()  # join after close is a no-op
    runner.close(terminate=True)
    assert runner._pool is None


def _ignore_sigterm_and_sleep(flag_path: str) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    open(flag_path, "w").close()
    time.sleep(60)


def test_terminate_kills_a_worker_that_outlives_sigterm(tmp_path, monkeypatch):
    """``close(terminate=True)`` is bounded: a worker that does not exit on
    the pool's SIGTERM (ignored here; swallowed by an inherited handler in
    the respawn race) is SIGKILLed after the grace period, not joined
    for as long as it cares to run."""
    monkeypatch.setattr(parallel, "_TERMINATE_GRACE_S", 0.2)
    runner = ParallelSweepRunner(jobs=1, persistent=True)
    pool = runner._ensure_pool()
    flag = tmp_path / "started"
    pool.apply_async(_ignore_sigterm_and_sleep, (str(flag),))
    deadline = time.monotonic() + 30
    while not flag.exists():
        assert time.monotonic() < deadline, "worker never started the task"
        time.sleep(0.01)
    workers = list(pool._pool)
    started = time.monotonic()
    runner.close(terminate=True)
    assert time.monotonic() - started < 20
    assert not any(p.is_alive() for p in workers)


def test_runner_restarts_cleanly_after_close():
    from repro.scenario.spec import ScenarioSpec

    spec = ScenarioSpec.from_dict(_server_spec_dict())
    runner = ParallelSweepRunner(jobs=2, persistent=True)
    before = runner.run_records([spec])
    runner.close()
    # In-process restart: the next call transparently forks a new pool.
    after = runner.run_records([spec])
    runner.close()
    assert before[0].makespan == after[0].makespan


def test_submit_record_resolves_to_wire_dict():
    runner = ParallelSweepRunner(jobs=1, persistent=True)
    try:
        result = runner.submit_record(_server_spec_dict())
        record = result.get(timeout=60)
        assert record["engine"] == "server"
        assert record["makespan"] > 0
        assert "raw" not in record
    finally:
        runner.close()


def test_submit_record_validates_dict_payloads_synchronously():
    runner = ParallelSweepRunner(jobs=1, persistent=True)
    try:
        with pytest.raises(ConfigurationError, match="unknown top-level"):
            runner.submit_record(dict(_server_spec_dict(), bogus_key=1))
    finally:
        runner.close()


def test_submit_record_propagates_worker_errors():
    runner = ParallelSweepRunner(jobs=1, persistent=True)
    try:
        # Valid spec shape, but the engine is not registered — the
        # failure happens on the worker and must come back through the
        # async result and the error callback.
        bad = dict(_server_spec_dict(), engine={"name": "not-an-engine"})
        errors = []
        result = runner.submit_record(bad, error_callback=errors.append)
        with pytest.raises(ConfigurationError, match="not-an-engine"):
            result.get(timeout=60)
        assert len(errors) == 1
    finally:
        runner.close()
