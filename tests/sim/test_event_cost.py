"""Counted per-event cost of a simulated run: Python frames and GC cycles.

Host timings of the hot loop move with the machine; these counts do not.
The tests run one small pipelined LU (n = 648, r = 54, eight nodes) after
a warm-up run — predicted on the ``sim`` engine, and measured on the
``testbed`` engine for the frame count — and pin what it costs against a
bound with headroom over today's figure.
"""

import gc
import sys

import pytest

from repro.scenario import ScenarioSpec, run_scenario

#: Python frames entered per simulated event.  The one-pass reallocation
#: measured 38.7 on CPython 3.11 (76.6 before it); Python 3.12 inlines
#: comprehensions, so it only counts fewer.
FRAMES_PER_EVENT_BOUND = 42.5

#: The same on the testbed engine (packet network, timeslice CPU): 55.3
#: frames per event over 5,652 events on CPython 3.11.
TESTBED_FRAMES_PER_EVENT_BOUND = 61.0

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


def _frames_per_event(spec: ScenarioSpec) -> float:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        record = run_scenario(spec)
    finally:
        sys.setprofile(None)
    assert record.events > 5_000
    return calls / record.events


def test_python_frames_per_simulated_event(lu_spec):
    assert _frames_per_event(lu_spec) < FRAMES_PER_EVENT_BOUND


def test_python_frames_per_testbed_event():
    engine = {"name": "testbed"}
    # A small warm-up (n = 108) loads what the counted run would import.
    run_scenario(_lu_spec(engine, n=108))
    frames = _frames_per_event(_lu_spec(engine))
    assert frames < TESTBED_FRAMES_PER_EVENT_BOUND


def test_a_run_leaves_little_for_the_cyclic_gc(lu_spec):
    gc.collect()
    gc.disable()
    try:
        run_scenario(lu_spec)
        found = gc.collect()
    finally:
        gc.enable()
    assert found < GC_CYCLE_OBJECTS_BOUND
