"""Counted per-event cost of a simulated run: Python frames and GC cycles.

Host timings of the hot loop move with the machine; these counts do not.
The tests run one small pipelined LU (n = 648, r = 54, eight nodes) after
a warm-up run — predicted on the ``sim`` engine, and measured on the
``testbed`` engine for the frame count — and pin what it costs against a
bound with headroom over today's figure.  A dense all-to-all churn on
the two water-filling networks holds the allocator half the same way.
"""

import gc
import random
import sys

import pytest

from repro.des.kernel import Kernel
from repro.netmodel.maxmin import MaxMinStarNetwork
from repro.netmodel.packet import PacketNetwork
from repro.netmodel.params import NetworkParams
from repro.scenario import ScenarioSpec, run_scenario

#: Python frames entered per simulated event.  The one-pass reallocation
#: measured 38.7 on CPython 3.11 (76.6 before it); Python 3.12 inlines
#: comprehensions, so it only counts fewer.
FRAMES_PER_EVENT_BOUND = 42.5

#: The same on the testbed engine (packet network, timeslice CPU): 44.9
#: frames per event over 5,652 events on CPython 3.11 since the max-min
#: allocator works per flow class (55.3 before it).
TESTBED_FRAMES_PER_EVENT_BOUND = 51.0

#: The same on the sharded cluster server: an adaptive ``lu`` Poisson
#: stream (64 nodes, 400 jobs, two shards, 2,985 events) measured 20.6
#: frames per event on CPython 3.11 once a decision is one pass over the
#: active jobs (43.8 while each rebuilt the policy's views).
SERVER_FRAMES_PER_EVENT_BOUND = 30.0

#: The same on the eager cluster server: an adaptive ``lu`` Poisson
#: stream (128 nodes, 400 jobs, ``shards = 1``, 3,394 events) measured
#: 22.2 frames per event on CPython 3.11 once an event is one pass over
#: the running jobs (103.0 while each job advanced, priced and timed its
#: phase end in calls of its own).
EAGER_SERVER_FRAMES_PER_EVENT_BOUND = 30.0

#: Frames per event of a dense churn — 128 concurrent flows all-to-all
#: over 12 nodes, each completion replaced until 200 more have run — per
#: water-filling model: 58.6 (``maxmin``) and 37.5 (``packet``) on
#: CPython 3.11 with flow classes, 245.6 and 151.6 per flow.
CHURN_FRAMES_PER_EVENT_BOUND = {"maxmin": 140.0, "packet": 90.0}

#: Objects the cyclic GC finds after one run.  What is left is the run's
#: own structure (graph, threads, merge instances: 1,727 on CPython 3.11);
#: per-step objects (closure, generator, execution, compute item) are no
#: longer held in a cycle, which had left 42,718.
GC_CYCLE_OBJECTS_BOUND = 2_500


def _lu_spec(engine: dict, n: int = 648) -> ScenarioSpec:
    options = {
        "n": n, "r": 54, "num_threads": 8, "num_nodes": 8,
        "pipelined": True, "flow_control": 16,
    }
    return ScenarioSpec.from_dict({
        "app": {"name": "lu", "options": options},
        "engine": engine,
    })


@pytest.fixture(scope="module")
def lu_spec():
    spec = _lu_spec({"name": "sim", "mode": "noalloc"})
    run_scenario(spec)  # warm-up: imports, caches, lazy registries
    return spec


def _frames_per_call(run) -> tuple[float, int]:
    """Python frames ``run()`` enters, per event it reports."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        events = run()
    finally:
        sys.setprofile(None)
    return calls / events, events


def _frames_per_event(spec: ScenarioSpec, min_events: int = 5_000) -> float:
    frames, events = _frames_per_call(lambda: run_scenario(spec).events)
    assert events > min_events
    return frames


def test_python_frames_per_simulated_event(lu_spec):
    assert _frames_per_event(lu_spec) < FRAMES_PER_EVENT_BOUND


def test_python_frames_per_testbed_event():
    engine = {"name": "testbed"}
    # A small warm-up (n = 108) loads what the counted run would import.
    run_scenario(_lu_spec(engine, n=108))
    frames = _frames_per_event(_lu_spec(engine))
    assert frames < TESTBED_FRAMES_PER_EVENT_BOUND


def _server_spec(
    shards: int, nodes: int, mean_interarrival: float, jobs: int = 400
) -> ScenarioSpec:
    return ScenarioSpec.from_dict({
        "app": {"name": "lu"},
        "engine": {"name": "server", "seed": 2, "shards": shards},
        "cluster": {
            "nodes": nodes,
            "policy": "adaptive",
            "arrivals": {
                "process": "poisson",
                "mean_interarrival": mean_interarrival,
                "jobs": jobs,
            },
        },
    })


def test_python_frames_per_sharded_server_event():
    spec = _server_spec(shards=2, nodes=64, mean_interarrival=4.0)
    run_scenario(spec)  # warm-up
    frames = _frames_per_event(spec, min_events=2_500)
    assert frames < SERVER_FRAMES_PER_EVENT_BOUND


def test_python_frames_per_eager_server_event():
    # A 40-job warm-up loads what the counted run would import.
    run_scenario(_server_spec(shards=1, nodes=128, mean_interarrival=5.0,
                              jobs=40))
    spec = _server_spec(shards=1, nodes=128, mean_interarrival=5.0)
    frames = _frames_per_event(spec, min_events=3_000)
    assert frames < EAGER_SERVER_FRAMES_PER_EVENT_BOUND


def _churn(model: str, flows: int, nodes: int, completions: int) -> int:
    """The perf ledger's dense churn driver; returns the events run."""
    kernel = Kernel()
    params = NetworkParams(latency=0.0, bandwidth=1e6)
    if model == "packet":
        network = PacketNetwork(kernel, params, seed=2)
    else:
        network = MaxMinStarNetwork(kernel, params)
    rng = random.Random(2)
    spawned = 0

    def submit() -> None:
        nonlocal spawned
        spawned += 1
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        network.submit(src, dst, rng.uniform(0.5e6, 1.5e6), on_done)

    def on_done(_transfer) -> None:
        if spawned < flows + completions:
            submit()

    for _ in range(flows):
        submit()
    kernel.run()
    return kernel.events_executed


@pytest.mark.parametrize("model", ["maxmin", "packet"])
def test_python_frames_per_dense_churn_event(model):
    _churn(model, 16, 4, 10)  # warm-up
    frames, events = _frames_per_call(lambda: _churn(model, 128, 12, 200))
    assert events > 300
    assert frames < CHURN_FRAMES_PER_EVENT_BOUND[model]


def test_a_run_leaves_little_for_the_cyclic_gc(lu_spec):
    gc.collect()
    gc.disable()
    try:
        run_scenario(lu_spec)
        found = gc.collect()
    finally:
        gc.enable()
    assert found < GC_CYCLE_OBJECTS_BOUND
