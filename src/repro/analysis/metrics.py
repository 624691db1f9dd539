"""Scalar performance metrics used throughout the evaluation.

The paper's headline comparison metric: "we use the relative performance
improvement metric, defined as the execution time of the basic flow graph
(reference time) over the execution time of the program incorporating one
or several of the proposed variations." (section 8) — that ratio is
:func:`speedup` of the reference time over the variant time.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def speedup(serial_time: float, parallel_time: float) -> float:
    """Classic speedup ``T_1 / T_N``."""
    if parallel_time <= 0:
        raise ConfigurationError("parallel_time must be > 0")
    return serial_time / parallel_time


def efficiency(serial_time: float, parallel_time: float, nodes: int) -> float:
    """Parallel efficiency ``T_1 / (N * T_N)``."""
    if nodes <= 0:
        raise ConfigurationError("nodes must be > 0")
    return speedup(serial_time, parallel_time) / nodes


def relative_error(predicted: float, measured: float) -> float:
    """Signed prediction error ``(predicted - measured) / measured``."""
    if measured <= 0:
        raise ConfigurationError("measured must be > 0")
    return (predicted - measured) / measured
