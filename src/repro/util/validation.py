"""Argument-validation helpers shared by the model constructors.

Each helper returns the validated value so it can be used inline::

    self.bandwidth = check_positive("bandwidth", bandwidth)
"""

from __future__ import annotations

import math
import numbers
from typing import Any, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


def check_type(name: str, value: Any, expected: type | tuple[type, ...]) -> Any:
    """Raise :class:`ConfigurationError` unless ``value`` is an ``expected`` instance.

    ``bool`` is an ``int`` subclass; it passes only where ``bool`` is expected.
    """
    types = expected if isinstance(expected, tuple) else (expected,)
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        exp = " or ".join(t.__name__ for t in types)
        raise ConfigurationError(
            f"{name} must be of type {exp}, got {type(value).__name__}"
        )
    return value


def check_finite(name: str, value: float) -> float:
    """Require a finite real number (``bool`` is not one, as in :func:`check_type`)."""
    # Exact int/float skip the slow ABC check; numpy scalars are Real too.
    if type(value) not in (int, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ConfigurationError(
            f"{name} must be a real number, got {type(value).__name__}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    """Require a strictly positive finite number."""
    value = check_finite(name, value)
    if value <= 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require a finite number >= 0."""
    value = check_finite(name, value)
    if value < 0.0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Require ``low <= value <= high`` (or strict bounds if ``inclusive=False``)."""
    value = check_finite(name, value)
    if inclusive:
        ok = low <= value <= high
        rel = "<="
    else:
        ok = low < value < high
        rel = "<"
    if not ok:
        raise ConfigurationError(
            f"{name} must satisfy {low} {rel} {name} {rel} {high}, got {value!r}"
        )
    return value
