"""Dynamic efficiency: resource-utilization efficiency as a function of time.

The paper's central metric: "We introduce the concept of dynamic efficiency
which expresses the resource utilization efficiency as a function of time."
For the LU evaluation (Fig. 11) it is computed per iteration:

    efficiency(iter) = serial_work(iter) / (N_active(iter) * T(iter))

where ``serial_work`` is the total uncontended compute time of the
iteration's atomic steps (what one dedicated node would need), ``N_active``
the time-weighted number of allocated nodes during the iteration, and
``T`` its wall duration.  Removing underused nodes raises the efficiency of
subsequent iterations — exactly the effect of Fig. 11's "kill 4 after
iteration 1" curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.dps.runtime import RunResult
from repro.dps.trace import TraceLevel


@dataclass(frozen=True)
class PhaseEfficiency:
    """Efficiency of one phase (LU iteration) of a run."""

    label: str
    start: float
    end: float
    work: float
    mean_nodes: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def efficiency(self) -> float:
        """Serial work over (nodes x wall time); in [0, 1] for real runs."""
        denom = self.mean_nodes * self.duration
        return self.work / denom if denom > 0 else 0.0


def _mean_active_nodes(result: RunResult, start: float, end: float) -> float:
    """Time-weighted average allocation size over [start, end]."""
    if end <= start:
        return float(len(result.active_nodes_at(start)))
    timeline = result.allocation_timeline
    total = 0.0
    for i, (t, nodes) in enumerate(timeline):
        seg_start = max(start, t)
        seg_end = end if i + 1 >= len(timeline) else min(end, timeline[i + 1][0])
        if seg_end > seg_start:
            total += (seg_end - seg_start) * len(nodes)
    return total / (end - start)


def dynamic_efficiency(result: RunResult) -> list[PhaseEfficiency]:
    """Per-phase efficiency series of a run (the Fig. 11 quantity).

    Requires phases to have been marked (the LU app marks one per
    iteration) and at least SUMMARY tracing.
    """
    if result.trace.level < TraceLevel.SUMMARY:
        raise ValueError("dynamic efficiency needs SUMMARY or FULL tracing")
    series = []
    for label, start, end in result.phase_intervals():
        work = result.trace.phase_work.get(label, 0.0)
        series.append(
            PhaseEfficiency(
                label=label,
                start=start,
                end=end,
                work=work,
                mean_nodes=_mean_active_nodes(result, start, end),
            )
        )
    return series


def mean_efficiency(result: RunResult) -> float:
    """Whole-run efficiency: total work over integral of allocation size.

    This is the quantity a cluster operator wants to maximize; the paper
    argues dynamic deallocation raises it because freed nodes can serve
    other applications.  The integral runs over the whole makespan;
    ``RunRecord.mean_efficiency`` covers the marked phases only.
    """
    node_seconds = _mean_active_nodes(result, 0.0, result.makespan) * result.makespan
    if node_seconds <= 0:
        return 0.0
    return result.total_work / node_seconds


def utilization_timeline(
    result: RunResult, buckets: int = 100
) -> list[tuple[float, float]]:
    """Coarse (time, busy-fraction) series from a FULL trace.

    Busy fraction is compute work per allocated-node-second in each
    bucket.  Requires ``TraceLevel.FULL``.
    """
    if result.trace.level < TraceLevel.FULL:
        raise ValueError("utilization_timeline requires TraceLevel.FULL")
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    makespan = result.makespan
    if makespan <= 0:
        return []
    width = makespan / buckets
    work = [0.0] * buckets
    for step in result.trace.steps:
        # Spread the step's uncontended work uniformly over its span.
        span = max(step.duration, 1e-15)
        b0 = min(buckets - 1, int(step.start / width))
        b1 = min(buckets - 1, int(step.end / width))
        for b in range(b0, b1 + 1):
            lo = max(step.start, b * width)
            hi = min(step.end, (b + 1) * width)
            if hi > lo:
                work[b] += step.work * (hi - lo) / span
    series = []
    for b in range(buckets):
        t0, t1 = b * width, (b + 1) * width
        nodes = _mean_active_nodes(result, t0, t1)
        denom = nodes * width
        series.append((t0, work[b] / denom if denom > 0 else 0.0))
    return series
