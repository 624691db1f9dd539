"""Parallel sweeps: serial/parallel equality, calibration cache, fail-fast."""

import multiprocessing
import os
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


#: How long a slow spec holds its worker in the fail-fast test: long past
#: the parent's reaction to the failure, so a worker freed by the failing
#: spec cannot start a second slow one before the pool is dropped.
_SLOW_SPEC_S = 2.0


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


def test_failing_spec_surfaces_before_queued_specs_run(monkeypatch, tmp_path):
    """The first failure ends the sweep: the specs still queued behind it
    are dropped with the pool, not run to completion before the raise.

    Every slow spec leaves a marker file as it starts (the forked workers
    inherit the patched ``run_scenario``) and then holds its worker for a
    while.  When the failure surfaces, each of the pool's two workers holds
    at most one slow spec, so no more than two may ever have started; a
    sweep that ran the queue out would start all 48.
    """
    import repro.scenario

    real_run = repro.scenario.run_scenario

    def counted_run(spec, *args, **kwargs):
        if spec.engine.name == "server":
            (tmp_path / f"started-{os.getpid()}-{time.monotonic_ns()}").touch()
            time.sleep(_SLOW_SPEC_S)
        return real_run(spec, *args, **kwargs)

    monkeypatch.setattr(repro.scenario, "run_scenario", counted_run)
    specs = [_server_spec(engine="not-an-engine")] + [_server_spec()] * 48
    before = set(multiprocessing.active_children())
    with pytest.raises(ConfigurationError, match="not-an-engine"):
        run_records(specs, jobs=2)
    assert len(list(tmp_path.iterdir())) <= 2
    assert set(multiprocessing.active_children()) <= before
