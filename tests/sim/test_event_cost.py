"""Counted per-event cost of a simulated run: Python frames and GC cycles.

Host timings of the hot loop move with the machine; these counts do not.
Both tests run one small pipelined LU prediction (n = 648, r = 54, eight
nodes) after a warm-up run, and pin what it costs against a bound with
headroom over today's figure.
"""

import gc
import sys

import pytest

from repro.scenario import ScenarioSpec, run_scenario

#: Python frames entered per simulated event.  The one-pass reallocation
#: measured 38.7 on CPython 3.11 (76.6 before it); Python 3.12 inlines
#: comprehensions, so it only counts fewer.
FRAMES_PER_EVENT_BOUND = 42.5

#: Objects the cyclic GC finds after one run.  What is left is the run's
#: own structure (graph, threads, merge instances: 1,727 on CPython 3.11);
#: per-step objects (closure, generator, execution, compute item) are no
#: longer held in a cycle, which had left 42,718.
GC_CYCLE_OBJECTS_BOUND = 2_500


@pytest.fixture(scope="module")
def lu_spec():
    options = {
        "n": 648, "r": 54, "num_threads": 8, "num_nodes": 8,
        "pipelined": True, "flow_control": 16,
    }
    spec = ScenarioSpec.from_dict({
        "app": {"name": "lu", "options": options},
        "engine": {"name": "sim", "mode": "noalloc"},
    })
    run_scenario(spec)  # warm-up: imports, caches, lazy registries
    return spec


def test_python_frames_per_simulated_event(lu_spec):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        record = run_scenario(lu_spec)
    finally:
        sys.setprofile(None)
    assert record.events > 5_000
    assert calls / record.events < FRAMES_PER_EVENT_BOUND


def test_a_run_leaves_little_for_the_cyclic_gc(lu_spec):
    gc.collect()
    gc.disable()
    try:
        run_scenario(lu_spec)
        found = gc.collect()
    finally:
        gc.enable()
    assert found < GC_CYCLE_OBJECTS_BOUND
