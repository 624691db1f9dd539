"""Execution traces: atomic-step records and summary accounting.

"Each atomic step is recorded and stored into the simulator with a
measurement or an estimate of its duration." — paper, section 3.  The trace
is what the timing diagrams (paper Figs. 2 and 4), the utilization metrics
and the dynamic-efficiency computation are derived from.

Full traces of large runs are expensive, so three levels exist:

* ``NONE`` — only the makespan and counters,
* ``SUMMARY`` — per-node and per-phase busy-work accumulators (default),
* ``FULL`` — every atomic step and transfer, for timing diagrams and tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.dps.deployment import ThreadId


class TraceLevel(enum.IntEnum):
    """How much execution detail to retain."""

    NONE = 0
    SUMMARY = 1
    FULL = 2


@dataclass(frozen=True)
class StepRecord:
    """One compute atomic step, as executed."""

    vertex: str
    thread: ThreadId
    node: int
    kernel: str
    start: float
    end: float
    work: float  # uncontended duration; end-start >= work under contention
    phase: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def stretch(self) -> float:
        """Contended duration over uncontended work (>= 1)."""
        return self.duration / self.work if self.work > 0 else 1.0


@dataclass(frozen=True)
class TransferRecord:
    """One data-object transfer, as executed."""

    kind: str
    src_node: int
    dst_node: int
    size: float
    start: float
    end: float
    phase: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RuntimeTrace:
    """Accumulated execution record of one run."""

    level: TraceLevel = TraceLevel.SUMMARY
    steps: list[StepRecord] = field(default_factory=list)
    transfers: list[TransferRecord] = field(default_factory=list)
    node_work: dict[int, float] = field(default_factory=dict)
    phase_work: dict[str, float] = field(default_factory=dict)
    phase_node_work: dict[tuple[str, int], float] = field(default_factory=dict)
    step_count: int = 0
    transfer_count: int = 0
    transfer_bytes: float = 0.0
    local_deliveries: int = 0

    # ------------------------------------------------------------ recording
    def account_step(self, node: int, work: float, phase: Optional[str]) -> None:
        """Account one completed compute step, without keeping a record.

        What :meth:`record_step` does below ``FULL``; the runtime calls it
        directly there, so no :class:`StepRecord` is built.
        """
        self.step_count += 1
        if self.level >= TraceLevel.SUMMARY:
            node_work = self.node_work
            node_work[node] = node_work.get(node, 0.0) + work
            if phase is not None:
                self.phase_work[phase] = self.phase_work.get(phase, 0.0) + work
                key = (phase, node)
                self.phase_node_work[key] = (
                    self.phase_node_work.get(key, 0.0) + work
                )

    def record_step(self, record: StepRecord) -> None:
        """Account one completed compute step; keep it at ``FULL``."""
        self.account_step(record.node, record.work, record.phase)
        if self.level >= TraceLevel.FULL:
            self.steps.append(record)

    def account_transfer(self, size: float) -> None:
        """Account one completed inter-node transfer, without a record."""
        self.transfer_count += 1
        self.transfer_bytes += size

    def record_transfer(self, record: TransferRecord) -> None:
        """Account one completed inter-node transfer; keep it at ``FULL``."""
        self.account_transfer(record.size)
        if self.level >= TraceLevel.FULL:
            self.transfers.append(record)

    def record_local_delivery(self) -> None:
        """Count a same-node data-object delivery (bypasses the network)."""
        self.local_deliveries += 1

    # ------------------------------------------------------------- queries
    def total_work(self) -> float:
        """Total uncontended compute work across all nodes, in seconds."""
        return sum(self.node_work.values())

    def busy_fraction(self, node: int, makespan: float) -> float:
        """Fraction of the run the node spent computing (work basis)."""
        if makespan <= 0.0:
            return 0.0
        return self.node_work.get(node, 0.0) / makespan
