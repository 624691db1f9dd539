"""Scenario-native sweeps: one fan-out spanning engines and netmodels."""

import pytest

from repro.analysis.parallel import run_records
from repro.scenario import (
    AppSection,
    EngineSection,
    PlatformSection,
    ScenarioSpec,
    calibration_key,
)
from repro.scenario.spec import ModelSection

# Every scenario here runs a real app (LU kernels etc.) — numpy territory.
pytest.importorskip("numpy")

LU_OPTIONS = {"n": 192, "r": 48, "num_threads": 4, "num_nodes": 2}


def _cross_engine_specs() -> list[ScenarioSpec]:
    """Four specs spanning two engines and three netmodels."""
    app = AppSection("lu", dict(LU_OPTIONS))
    return [
        ScenarioSpec(
            name="sim-star", app=app,
            engine=EngineSection("sim", mode="noalloc"),
            netmodel=ModelSection("star"),
        ),
        ScenarioSpec(
            name="sim-maxmin", app=app,
            engine=EngineSection("sim", mode="noalloc"),
            netmodel=ModelSection("maxmin"),
        ),
        ScenarioSpec(
            name="sim-analytic", app=app,
            engine=EngineSection("sim", mode="noalloc"),
            netmodel=ModelSection("analytic"),
        ),
        ScenarioSpec(
            name="testbed-packet", app=app,
            engine=EngineSection("testbed", mode="noalloc", seed=1),
        ),
    ]


def test_one_sweep_spans_engines_and_netmodels():
    records = run_records(_cross_engine_specs(), jobs=1)
    assert [r.engine for r in records] == ["sim", "sim", "sim", "testbed"]
    assert all(r.makespan > 0 for r in records)
    # Contention models disagree with the contention-free baseline, so the
    # sweep really exercised distinct netmodels.
    star, maxmin, analytic, testbed = records
    assert analytic.makespan != star.makespan
    assert testbed.makespan != star.makespan


def _normalize_wall(record):
    """Zero the host-wall-clock fields (the only nondeterministic ones)."""
    import dataclasses

    metrics = {
        k: v
        for k, v in record.metrics.items()
        if k not in ("simulation_wall_time", "executor_wall_time")
    }
    return dataclasses.replace(record, wall_time_s=0.0, metrics=metrics)


def test_parallel_records_equal_serial():
    specs = _cross_engine_specs()
    serial = run_records(specs, jobs=1)
    parallel = run_records(specs, jobs=2)
    assert [_normalize_wall(r) for r in serial] == [
        _normalize_wall(r) for r in parallel
    ]


def test_calibration_key_only_for_calibrated_sim_specs():
    specs = _cross_engine_specs()
    assert all(calibration_key(s) is None for s in specs)
    calibrated = ScenarioSpec(
        name="cal",
        app=AppSection("lu", dict(LU_OPTIONS)),
        engine=EngineSection("sim", mode="noalloc", seed=7),
        platform=PlatformSection(calibrate=True),
    )
    assert calibration_key(calibrated) == (2, 7)


def test_empty_spec_list():
    assert run_records([], jobs=2) == []


def test_records_order_matches_specs_under_pool():
    specs = _cross_engine_specs()
    records = run_records(specs, jobs=3)
    assert [r.scenario for r in records] == [s.name for s in specs]
