"""Streaming statistics and percentiles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import OnlineStats, StreamingQuantile, percentile

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


def test_empty_stats_are_nan():
    acc = OnlineStats()
    assert math.isnan(acc.mean)
    assert math.isnan(acc.variance)
    assert acc.count == 0


@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_online_stats_match_numpy(xs):
    acc = OnlineStats()
    acc.extend(xs)
    assert acc.count == len(xs)
    assert acc.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-6)
    assert acc.minimum == min(xs)
    assert acc.maximum == max(xs)
    if len(xs) >= 2:
        assert acc.variance == pytest.approx(np.var(xs, ddof=1), rel=1e-6, abs=1e-4)


@given(st.lists(finite_floats, min_size=1, max_size=80), st.lists(finite_floats, min_size=1, max_size=80))
def test_merge_equals_combined(xs, ys):
    a = OnlineStats()
    a.extend(xs)
    b = OnlineStats()
    b.extend(ys)
    merged = a.merge(b)
    combined = OnlineStats()
    combined.extend(xs + ys)
    assert merged.count == combined.count
    assert merged.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-6)


def test_merge_with_empty_side_is_identity():
    xs = [3.0, 1.0, 4.0, 1.5]
    full = OnlineStats()
    full.extend(xs)
    empty = OnlineStats()
    for merged in (full.merge(empty), empty.merge(full)):
        assert merged.count == full.count
        assert merged.mean == full.mean
        assert merged.variance == pytest.approx(full.variance)
        assert merged.minimum == full.minimum
        assert merged.maximum == full.maximum
    both = empty.merge(OnlineStats())
    assert both.count == 0
    assert math.isnan(both.mean)


def test_merge_singleton_sides():
    a = OnlineStats()
    a.add(2.0)
    b = OnlineStats()
    b.add(6.0)
    merged = a.merge(b)
    assert merged.count == 2
    assert merged.mean == pytest.approx(4.0)
    assert merged.variance == pytest.approx(8.0)  # ddof=1
    assert merged.minimum == 2.0 and merged.maximum == 6.0
    # Singleton merged into a larger accumulator.
    big = OnlineStats()
    big.extend([1.0, 2.0, 3.0])
    grown = big.merge(a)
    ref = OnlineStats()
    ref.extend([1.0, 2.0, 3.0, 2.0])
    assert grown.count == 4
    assert grown.mean == pytest.approx(ref.mean)
    assert grown.variance == pytest.approx(ref.variance)


def test_percentile_linear_interpolation():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert percentile(xs, 50) == pytest.approx(2.5)
    assert percentile(xs, 25) == pytest.approx(1.75)
    # Exact order statistics need no interpolation.
    assert percentile(xs, 100 / 3) == pytest.approx(2.0)
    assert percentile([7.0], 99) == 7.0


def test_percentile_bounds_checked():
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0], -0.5)


def test_percentile_empty_is_nan():
    assert math.isnan(percentile([], 50))


# ---------------------------------------------------------- StreamingQuantile
@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_streaming_quantile_exact_below_capacity(xs):
    sq = StreamingQuantile(capacity=512)
    sq.extend(xs)
    assert sq.count == len(xs)
    for q in (0, 25, 50, 90, 99, 100):
        assert sq.quantile(q) == percentile(xs, q)


def test_streaming_quantile_empty_is_nan():
    assert math.isnan(StreamingQuantile().quantile(50))


def test_streaming_quantile_capacity_validated():
    with pytest.raises(ValueError):
        StreamingQuantile(capacity=0)


def test_streaming_quantile_deterministic_beyond_capacity():
    def run():
        sq = StreamingQuantile(capacity=64)
        sq.extend(float(i % 997) for i in range(5000))
        return sq.quantile(50), sq.quantile(99), sq.count

    assert run() == run()


def test_streaming_quantile_estimates_uniform_tail():
    # 0..9999 streamed through a small reservoir still lands near the
    # true percentiles — coarse bound, but catches gross bias.
    sq = StreamingQuantile(capacity=256)
    sq.extend(float(x) for x in range(10_000))
    assert sq.count == 10_000
    assert abs(sq.quantile(50) - 4999.5) < 1500
    assert abs(sq.quantile(99) - 9900.0) < 1500


@given(
    st.lists(finite_floats, min_size=1, max_size=100),
    st.lists(finite_floats, min_size=1, max_size=100),
)
def test_streaming_quantile_merge_exact_when_it_fits(xs, ys):
    a = StreamingQuantile(capacity=512)
    a.extend(xs)
    b = StreamingQuantile(capacity=512)
    b.extend(ys)
    merged = a.merge(b)
    assert merged.count == len(xs) + len(ys)
    for q in (0, 50, 100):
        assert merged.quantile(q) == percentile(xs + ys, q)


def test_streaming_quantile_merge_empty_side():
    a = StreamingQuantile()
    a.extend([1.0, 2.0, 3.0])
    merged = a.merge(StreamingQuantile())
    assert merged.count == 3
    assert merged.quantile(50) == 2.0


def test_streaming_quantile_merge_deterministic_and_bounded():
    def run():
        a = StreamingQuantile(capacity=64)
        a.extend(float(i) for i in range(1000))
        b = StreamingQuantile(capacity=64)
        b.extend(float(i) for i in range(5000, 5300))
        return a.merge(b)

    m1, m2 = run(), run()
    assert len(m1._buffer) <= m1.capacity
    assert m1.count == m2.count == 1300
    assert m1.quantile(50) == m2.quantile(50)
    assert m1.quantile(99) == m2.quantile(99)
    # Proportional contribution: the bigger side dominates the median.
    assert m1.quantile(50) < 5000.0
