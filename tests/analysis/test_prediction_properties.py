"""Prediction-study and metric invariants (hypothesis-driven)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import relative_error, speedup
from repro.analysis.prediction import PredictionStudy

positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


class TestMetricProperties:
    @given(positive)
    @settings(max_examples=30, deadline=None)
    def test_self_comparison_is_neutral(self, t):
        assert speedup(t, t) == pytest.approx(1.0)
        assert relative_error(t, t) == pytest.approx(0.0)

    @given(positive, positive)
    @settings(max_examples=50, deadline=None)
    def test_relative_error_sign(self, predicted, measured):
        err = relative_error(predicted, measured)
        if predicted > measured:
            assert err > 0
        elif predicted < measured:
            assert err < 0

    @given(positive, positive)
    @settings(max_examples=50, deadline=None)
    def test_speedup_antisymmetry(self, a, b):
        assert speedup(a, b) == pytest.approx(1.0 / speedup(b, a))


class TestPredictionStudy:
    def make_study(self, pairs):
        study = PredictionStudy()
        for i, (measured, predicted) in enumerate(pairs):
            study.add(f"case{i}", measured, predicted)
        return study

    def test_perfect_predictions(self):
        study = self.make_study([(10.0, 10.0), (5.0, 5.0)])
        assert study.fraction_within(0.01) == 1.0
        assert study.max_abs_error() == 0.0
        assert study.mean_abs_error() == 0.0

    def test_fraction_within_monotone_in_tolerance(self):
        study = self.make_study(
            [(100.0, 101.0), (100.0, 104.0), (100.0, 110.0), (100.0, 120.0)]
        )
        f = [study.fraction_within(tol) for tol in (0.02, 0.05, 0.15, 0.25)]
        assert f == sorted(f)
        assert f[0] == 0.25 and f[-1] == 1.0

    @given(
        st.lists(
            st.tuples(positive, st.floats(min_value=0.5, max_value=1.5)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_error_bounds_consistency(self, raw):
        study = self.make_study([(m, m * f) for m, f in raw])
        errors = np.abs(study.errors)
        assert study.max_abs_error() == pytest.approx(float(errors.max()))
        assert study.mean_abs_error() == pytest.approx(float(errors.mean()))
        assert study.fraction_within(study.max_abs_error() + 1e-12) == 1.0

    def test_summary_keys(self):
        study = self.make_study([(10.0, 9.5)])
        summary = study.summary()
        assert {"count", "mean_abs", "max_abs", "within_4pct"} <= set(summary)

    def test_paper_style_bands(self):
        """Reconstruct the Fig. 13 headline statistics from raw pairs."""
        rng = np.random.default_rng(0)
        pairs = [(100.0, 100.0 * (1 + 0.03 * rng.standard_normal()))
                 for _ in range(168)]
        study = self.make_study(pairs)
        # With sigma=3%, ±4% covers most, ±12% covers everything.
        assert study.fraction_within(0.04) > 0.6
        assert study.fraction_within(0.12) > 0.95
