"""Metrics, prediction studies, tables and the sweep harness."""

import numpy as np
import pytest

from repro.analysis.metrics import efficiency, relative_error, speedup
from repro.analysis.parallel import run_records
from repro.analysis.prediction import PredictionStudy, validation_pair
from repro.analysis.tables import ascii_table
from repro.errors import ConfigurationError


# ------------------------------------------------------------------ metrics
def test_speedup_and_efficiency():
    assert speedup(100.0, 25.0) == 4.0
    assert efficiency(100.0, 25.0, 8) == 0.5


def test_relative_error_signed():
    assert relative_error(105.0, 100.0) == pytest.approx(0.05)
    assert relative_error(95.0, 100.0) == pytest.approx(-0.05)


def test_metric_validation():
    with pytest.raises(ConfigurationError):
        speedup(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        relative_error(1.0, 0.0)


# ----------------------------------------------------------------- study
def test_prediction_study_summary():
    study = PredictionStudy()
    study.add("a", 100.0, 102.0)   # +2%
    study.add("b", 100.0, 95.0)    # -5%
    study.add("c", 100.0, 111.0)   # +11%
    summary = study.summary()
    assert summary["count"] == 3
    assert summary["within_4pct"] == pytest.approx(1 / 3)
    assert summary["within_6pct"] == pytest.approx(2 / 3)
    assert summary["within_12pct"] == 1.0
    assert summary["max_abs"] == pytest.approx(0.11)


def test_empty_study_is_nan():
    study = PredictionStudy()
    assert np.isnan(study.fraction_within(0.04))
    assert np.isnan(study.max_abs_error())


# ----------------------------------------------------------------- tables
def test_ascii_table_alignment():
    out = ascii_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


# ------------------------------------------------------------------ sweep
def _pairs():
    return [
        validation_pair(
            f"c{i}", {"n": 192, "r": r, "num_threads": 4, "num_nodes": 2}, seed=2
        )
        for i, r in enumerate((48, 96))
    ]


def test_validation_pair_is_a_measurement_and_its_prediction():
    (measured, predicted), _ = _pairs()
    assert (measured.engine.name, predicted.engine.name) == ("testbed", "sim")
    assert predicted.platform.calibrate and not measured.platform.calibrate
    assert measured.name == predicted.name == "c0"
    assert measured.app == predicted.app
    assert measured.engine.seed == predicted.engine.seed == 2
    assert measured.engine.mode == predicted.engine.mode == "noalloc"


def test_sweep_feeds_study():
    study = PredictionStudy()
    specs = [spec for pair in _pairs() for spec in pair]
    records = run_records(specs, jobs=1)
    for measured, predicted in zip(records[0::2], records[1::2]):
        study.add(measured.scenario, measured.makespan, predicted.makespan)
    assert len(study.records) == 2
    assert study.records[0].label == "c0"
    assert all(rec.measured > 0 and rec.predicted > 0 for rec in study.records)
    # At small scale the models still agree reasonably.
    assert study.max_abs_error() < 0.5
