"""Argument validation helpers."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.util.validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
    check_type,
)


def test_check_type_accepts_and_returns_value():
    assert check_type("x", 3, int) == 3
    assert check_type("x", "s", (int, str)) == "s"


def test_check_type_rejects_wrong_type():
    with pytest.raises(ConfigurationError, match="must be of type int"):
        check_type("x", "nope", int)


@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan, "abc", "1.5", True, None]
)
def test_check_finite_rejects_non_finite(bad):
    with pytest.raises(ConfigurationError):
        check_finite("x", bad)


def test_check_finite_accepts_numpy_scalars():
    np = pytest.importorskip("numpy")
    assert check_finite("x", np.float64(0.5)) == 0.5
    assert check_finite("x", np.int64(3)) == 3.0


def test_check_positive():
    assert check_positive("x", 0.5) == 0.5
    with pytest.raises(ConfigurationError):
        check_positive("x", 0.0)
    with pytest.raises(ConfigurationError):
        check_positive("x", -1.0)


def test_check_non_negative():
    assert check_non_negative("x", 0.0) == 0.0
    with pytest.raises(ConfigurationError):
        check_non_negative("x", -1e-9)


def test_check_in_range_inclusive_and_exclusive():
    assert check_in_range("x", 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ConfigurationError):
        check_in_range("x", 1.0, 0.0, 1.0, inclusive=False)
    with pytest.raises(ConfigurationError):
        check_in_range("x", 2.0, 0.0, 1.0)
