"""Arrival processes: determinism, stop conditions, trace replay."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.clusterserver.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
    trace_arrivals,
)
from repro.errors import ConfigurationError

PROCESSES = {
    "poisson": poisson_arrivals,
    "bursty": bursty_arrivals,
    "diurnal": diurnal_arrivals,
}


# -------------------------------------------------------------- generators
@pytest.mark.parametrize("name", sorted(PROCESSES))
def test_streams_are_deterministic_and_nondecreasing(name):
    make = PROCESSES[name]
    a = list(make(10.0, seed=42, jobs=50))
    b = list(make(10.0, seed=42, jobs=50))
    assert len(a) == 50
    assert [t for t, _ in a] == [t for t, _ in b]
    assert [s.name for _, s in a] == [s.name for _, s in b]
    times = [t for t, _ in a]
    assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
    assert all(t == s.arrival for t, s in a)


@pytest.mark.parametrize("name", sorted(PROCESSES))
def test_seed_changes_the_stream(name):
    make = PROCESSES[name]
    a = [t for t, _ in make(10.0, seed=1, jobs=20)]
    b = [t for t, _ in make(10.0, seed=2, jobs=20)]
    assert a != b


@pytest.mark.parametrize("name", sorted(PROCESSES))
def test_horizon_stop_condition(name):
    make = PROCESSES[name]
    items = list(make(5.0, seed=3, horizon=200.0))
    assert items, "horizon of 40 mean gaps should admit some jobs"
    assert all(t <= 200.0 for t, _ in items)


@pytest.mark.parametrize("name", sorted(PROCESSES))
def test_stop_condition_required(name):
    make = PROCESSES[name]
    with pytest.raises(ConfigurationError, match="stop condition"):
        next(make(10.0, seed=0))


def test_jobs_and_horizon_combine():
    # Whichever stop triggers first wins.
    few = list(poisson_arrivals(10.0, seed=5, jobs=5, horizon=1e9))
    assert len(few) == 5
    short = list(poisson_arrivals(10.0, seed=5, jobs=10**6, horizon=30.0))
    assert all(t <= 30.0 for t, _ in short)


def test_mixed_shape_draws_multiple_families():
    specs = [s for _, s in poisson_arrivals(5.0, shape="mixed", seed=9, jobs=60)]
    prefixes = {s.name[:2] for s in specs}
    assert prefixes == {"lu", "st", "rr"}


@pytest.mark.parametrize("name", sorted(PROCESSES))
def test_unknown_shape_rejected(name):
    # Checked where the stream is built, not at the engine's first next().
    with pytest.raises(ConfigurationError, match="unknown job shape 'cube'"):
        PROCESSES[name](10.0, shape="cube", seed=0, jobs=1)


def test_parameter_validation():
    with pytest.raises(ConfigurationError, match="mean_interarrival"):
        next(poisson_arrivals(0.0, jobs=1))
    with pytest.raises(ConfigurationError, match="burst_factor"):
        next(bursty_arrivals(10.0, burst_factor=0.5, jobs=1))
    with pytest.raises(ConfigurationError, match="amplitude"):
        next(diurnal_arrivals(10.0, amplitude=1.5, jobs=1))
    with pytest.raises(ConfigurationError, match="jobs"):
        next(poisson_arrivals(10.0, jobs=0))
    with pytest.raises(ConfigurationError, match="horizon"):
        next(poisson_arrivals(10.0, horizon=-1.0))


def test_bursty_bursts_faster_than_quiet():
    # A heavily bursting stream packs more arrivals into the same horizon
    # than its quiet-only counterpart.
    quiet = list(bursty_arrivals(
        20.0, burst_factor=1.0, seed=11, horizon=5000.0
    ))
    bursty = list(bursty_arrivals(
        20.0, burst_factor=16.0, mean_quiet=100.0, mean_burst=400.0,
        seed=11, horizon=5000.0,
    ))
    assert len(bursty) > len(quiet)


# ------------------------------------------------------------------- traces
def _write_trace(tmp_path, lines):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    return path


def test_trace_replay(tmp_path):
    path = _write_trace(tmp_path, [
        {"arrival": 0.0, "phase_work": [10.0, 5.0], "name": "a"},
        {"arrival": 2.5, "phase_work": [8.0], "max_nodes": 4},
    ])
    items = list(trace_arrivals(path))
    assert [t for t, _ in items] == [0.0, 2.5]
    assert items[0][1].name == "a"
    assert items[0][1].phase_work == (10.0, 5.0)
    assert items[1][1].max_nodes == 4


def test_trace_truncation(tmp_path):
    path = _write_trace(tmp_path, [
        {"arrival": float(i), "phase_work": [1.0]} for i in range(10)
    ])
    assert len(list(trace_arrivals(path, jobs=3))) == 3
    assert len(list(trace_arrivals(path, horizon=4.5))) == 5


def test_trace_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"arrival": 1.0, "phase_work": [1.0]}\nnot json\n')
    with pytest.raises(ConfigurationError, match="bad.jsonl:2"):
        list(trace_arrivals(path))

    path = _write_trace(tmp_path, [
        {"arrival": 5.0, "phase_work": [1.0]},
        {"arrival": 1.0, "phase_work": [1.0]},
    ])
    with pytest.raises(ConfigurationError, match="nondecreasing"):
        list(trace_arrivals(path))

    path = _write_trace(tmp_path, [{"arrival": 1.0}])
    with pytest.raises(ConfigurationError, match="phase_work"):
        list(trace_arrivals(path))


def test_trace_missing_file():
    with pytest.raises(ConfigurationError, match="cannot read"):
        list(trace_arrivals("/nonexistent/trace.jsonl"))


def test_streams_are_lazy():
    # Pulling 3 items from an unbounded-in-jobs stream must not exhaust
    # anything: laziness is the whole point of the open-system layer.
    stream = poisson_arrivals(1.0, seed=0, jobs=10**9)
    first = list(itertools.islice(stream, 3))
    assert len(first) == 3
