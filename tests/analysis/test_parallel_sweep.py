"""Parallel sweeps: serial/parallel equality, calibration cache, fail-fast."""

import multiprocessing
import time

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import (
    cached_platform,
    clear_platform_cache,
    run_records,
)
from repro.analysis.prediction import validation_pair
from repro.errors import ConfigurationError
from repro.scenario import calibration_key, run_scenario
from repro.scenario.spec import ScenarioSpec


def _specs():
    """Three measured/predicted pairs over two calibration keys."""
    return [
        spec
        for i, (r, nodes) in enumerate([(48, 2), (96, 2), (48, 4)])
        for spec in validation_pair(
            f"c{i}", {"n": 192, "r": r, "num_threads": 4, "num_nodes": nodes}
        )
    ]


def _server_spec(jobs: int = 4, nodes: int = 8, engine: str = "server"):
    return ScenarioSpec.from_dict({
        "name": f"{engine}-{jobs}",
        "app": {"name": "lu"},
        "engine": {"name": engine, "seed": 3},
        "cluster": {
            "nodes": nodes,
            "policy": "equipartition",
            "arrivals": {
                "process": "poisson", "mean_interarrival": 20.0, "jobs": jobs,
            },
        },
    })


def test_parallel_sweep_equals_serial_spec_for_spec():
    specs = _specs()
    serial = run_records(specs, jobs=1)
    parallel = run_records(specs, jobs=2)
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


def test_jobs_one_runs_in_process(monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("jobs=1 must not fork a pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_fork)
    measured, predicted = run_records(_specs()[:2], jobs=1)
    assert measured.makespan > 0
    # At small scale the models still agree reasonably.
    assert abs(predicted.makespan - measured.makespan) / measured.makespan < 0.5


def test_negative_jobs_rejected():
    with pytest.raises(ConfigurationError, match="jobs must be >= 0"):
        run_records([_server_spec()], jobs=-1)


def test_at_most_one_worker_per_spec(monkeypatch):
    sizes = []
    fork_pool = parallel.fork_pool

    def counting_fork_pool(processes, *args):
        sizes.append(processes)
        return fork_pool(processes, *args)

    monkeypatch.setattr(parallel, "fork_pool", counting_fork_pool)
    (record,) = run_records([_server_spec()], jobs=4)
    assert sizes == [1]
    assert record.makespan == run_scenario(_server_spec()).makespan


def test_sweep_leaves_no_worker_behind():
    before = set(multiprocessing.active_children())
    run_records([_server_spec(), _server_spec(jobs=6)], jobs=2)
    assert set(multiprocessing.active_children()) <= before


def test_failing_spec_surfaces_before_queued_specs_run():
    """The first failure ends the sweep: the specs still queued behind it
    are dropped with the pool, not run to completion before the raise."""
    slow = _server_spec(jobs=1200, nodes=128)
    run_scenario(slow)  # warm: the timing below is one spec's steady cost
    started = time.perf_counter()
    run_scenario(slow)
    serial_s = 48 * (time.perf_counter() - started)
    specs = [_server_spec(engine="not-an-engine")] + [slow] * 48
    before = set(multiprocessing.active_children())
    started = time.perf_counter()
    with pytest.raises(ConfigurationError, match="not-an-engine"):
        run_records(specs, jobs=2)
    assert time.perf_counter() - started < serial_s / 4
    assert set(multiprocessing.active_children()) <= before
