"""Lightweight statistics helpers used by the analysis and testbed layers."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


class OnlineStats:
    """Streaming mean/variance accumulator (Welford's algorithm).

    Suitable for long simulations where storing every sample would defeat the
    memory savings of partial direct execution.
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, x: float) -> None:
        """Fold one sample into the accumulator."""
        x = float(x)
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    def extend(self, xs: Iterable[float]) -> None:
        """Fold many samples into the accumulator."""
        for x in xs:
            self.add(x)

    @property
    def count(self) -> int:
        """Number of samples folded in."""
        return self._n

    @property
    def mean(self) -> float:
        """Sample mean (NaN while empty)."""
        return self._mean if self._n else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self._n < 2:
            return math.nan
        return self._m2 / (self._n - 1)

    @property
    def minimum(self) -> float:
        """Smallest sample seen (NaN while empty)."""
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        """Largest sample seen (NaN while empty)."""
        return self._max if self._n else math.nan

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new accumulator equal to folding both sample sets."""
        out = OnlineStats()
        n = self._n + other._n
        if n == 0:
            return out
        delta = other._mean - self._mean
        out._n = n
        out._mean = self._mean + delta * (other._n / n)
        out._m2 = self._m2 + other._m2 + delta * delta * self._n * other._n / n
        out._min = min(self._min, other._min)
        out._max = max(self._max, other._max)
        return out


class StreamingQuantile:
    """Mergeable reservoir quantile estimator for unbounded streams.

    Holds at most ``capacity`` samples.  Below capacity the buffer *is*
    the sample set, so :meth:`quantile` equals :func:`percentile` of
    everything seen — exact.  Beyond capacity it switches to reservoir
    sampling (Algorithm R) driven by an internal 64-bit LCG, so the same
    insertion sequence always yields the same estimate: no global RNG
    state, fully deterministic, picklable.

    :meth:`merge` supports shard fan-in: two estimators combine into one
    whose buffer is either the exact concatenation (when it fits) or a
    deterministic evenly-spaced subsample of each side, sized
    proportionally to the observed counts.
    """

    _LCG_A = 6364136223846793005
    _LCG_C = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffer: list[float] = []
        self._count = 0
        self._state = 0x9E3779B97F4A7C15

    @property
    def count(self) -> int:
        """Number of samples offered to the estimator."""
        return self._count

    def add(self, x: float) -> None:
        """Offer one sample to the reservoir."""
        x = float(x)
        self._count += 1
        if len(self._buffer) < self.capacity:
            self._buffer.append(x)
            return
        self._state = (self._state * self._LCG_A + self._LCG_C) & self._MASK
        j = self._state % self._count
        if j < self.capacity:
            self._buffer[j] = x

    def extend(self, xs: Iterable[float]) -> None:
        """Offer many samples to the reservoir."""
        for x in xs:
            self.add(x)

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile estimate, ``q`` in [0, 100].

        Exact while fewer than ``capacity`` samples have been seen.
        """
        return percentile(self._buffer, q)

    def merge(self, other: "StreamingQuantile") -> "StreamingQuantile":
        """A new estimator summarizing both sample sets (deterministic).

        When the combined buffers fit in ``capacity`` the merge is exact
        (concatenation); otherwise each side contributes an evenly-spaced
        subsample of its sorted buffer, sized proportionally to its
        observed count.
        """
        out = StreamingQuantile(max(self.capacity, other.capacity))
        out._count = self._count + other._count
        out._state = (
            self._state * self._LCG_A + other._state
        ) & self._MASK
        if len(self._buffer) + len(other._buffer) <= out.capacity:
            out._buffer = list(self._buffer) + list(other._buffer)
            return out
        total = self._count + other._count
        k_self = min(
            len(self._buffer),
            max(0, round(out.capacity * self._count / total)),
        )
        k_other = min(len(other._buffer), out.capacity - k_self)
        k_self = min(len(self._buffer), out.capacity - k_other)
        out._buffer = self._subsample(k_self) + other._subsample(k_other)
        return out

    def _subsample(self, k: int) -> list[float]:
        """``k`` evenly-spaced order statistics of the sorted buffer."""
        data = sorted(self._buffer)
        if k >= len(data):
            return data
        return [data[int((i + 0.5) * len(data) / k)] for i in range(k)]


def percentile(xs: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``xs`` for ``q`` in [0, 100]."""
    if not xs:
        return math.nan
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    data = sorted(float(x) for x in xs)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac
