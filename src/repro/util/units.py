"""Unit constants.

The whole package uses **seconds** for time and **bytes** for data sizes.
These constants make call sites self-documenting::

    NetworkParams(latency=80 * MICROSECOND, bandwidth=mbit_per_s(100))
"""

from __future__ import annotations

# --- data sizes (bytes) -----------------------------------------------------
KB: int = 1024
MB: int = 1024 * 1024
GB: int = 1024 * 1024 * 1024

# --- durations (seconds) ----------------------------------------------------
MICROSECOND: float = 1e-6


def mbit_per_s(mbits: float) -> float:
    """Convert a link speed in megabits/second to bytes/second.

    Uses the networking convention of 10^6 bits per megabit.
    """
    return mbits * 1e6 / 8.0
