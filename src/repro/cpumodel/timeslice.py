"""Ground-truth CPU model for the virtual-cluster testbed.

Real operating systems do not share the CPU as an ideal fluid: timeslicing
costs context switches and cache refills, the network stack steals cycles in
bursts, and daemons inject noise.  This model layers those effects on top of
the even-share law so that the testbed's "measurements" deviate from the
simulator's predictions the way a real cluster deviates from the paper's
model:

* **multiprogramming overhead** — with ``n`` runnable steps, each receives
  ``available / n / (1 + csw_overhead * (n - 1))`` — the contended CPU
  delivers strictly less aggregate throughput than the fluid ideal;
* **nonlinear communication cost** — the per-transfer CPU cost uses a
  slightly different (convex) law than the simulator's concave one;
* **seeded OS noise** — every step's total work is inflated by a
  multiplicative lognormal factor, sampled once per step.

Rate allocation is *incremental*: the overheadful rate of a step
still depends only on its own host's available power and slice-group size,
so the per-host machinery of
:class:`~repro.cpumodel.base.NodeSlicedAllocator` applies unchanged — this
module contributes only the degraded rate law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cpumodel.base import (
    CompletionCallback,
    CpuModel,
    CpuTaskHandle,
    NodeSlicedAllocator,
)
from repro.cpumodel.commcost import CommCostModel, CommCostParams
from repro.des.fluid import FluidPool, FluidTask
from repro.des.kernel import Kernel
from repro.errors import SimulationError
from repro.util.rng import SeedSequenceFactory
from repro.util.validation import check_in_range, check_non_negative


@dataclass(frozen=True)
class TimesliceParams:
    """Fidelity knobs of the testbed CPU model."""

    csw_overhead: float = 0.008
    noise_sigma: float = 0.012
    recv_fraction: float = 0.125
    send_fraction: float = 0.052
    comm_superlinear: float = 1.03

    def __post_init__(self) -> None:
        check_non_negative("csw_overhead", self.csw_overhead)
        check_non_negative("noise_sigma", self.noise_sigma)
        check_in_range("recv_fraction", self.recv_fraction, 0.0, 1.0)
        check_in_range("send_fraction", self.send_fraction, 0.0, 1.0)
        check_in_range("comm_superlinear", self.comm_superlinear, 1.0, 2.0)


class _ConvexCommCost(CommCostModel):
    """Slightly superlinear per-transfer communication cost."""

    def __init__(self, ts: TimesliceParams) -> None:
        super().__init__(
            CommCostParams(
                recv_fraction=ts.recv_fraction,
                send_fraction=ts.send_fraction,
                marginal_decay=1.0,
                max_fraction=0.58,
            )
        )
        self._super = ts.comm_superlinear

    def consumed_power(self, incoming: int, outgoing: int) -> float:
        base = (
            self.params.recv_fraction * (max(0, incoming) ** self._super)
            + self.params.send_fraction * (max(0, outgoing) ** self._super)
        )
        return min(self.params.max_fraction, base)


class IncrementalTimesliceAllocator(NodeSlicedAllocator):
    """Overhead-degraded slice rates, recomputed only for changed hosts."""

    def __init__(
        self,
        model: "TimesliceCpuModel",
        csw_overhead: float,
        verify: bool = False,
    ) -> None:
        super().__init__(model, verify=verify)
        self._csw_overhead = csw_overhead

    def _group_rate(self, power: float, resident: int) -> float:
        degraded = power / (1.0 + self._csw_overhead * (resident - 1))
        return degraded / resident


class TimesliceCpuModel(CpuModel):
    """Noisy, overhead-laden CPU model used as ground truth by the testbed.

    ``verify_incremental=True`` shadows every incremental update with a full
    recompute and raises on divergence.
    """

    def __init__(
        self,
        kernel: Kernel,
        params: TimesliceParams | None = None,
        seed: int = 0,
        verify_incremental: bool = False,
    ) -> None:
        ts = params or TimesliceParams()
        super().__init__(kernel, _ConvexCommCost(ts))
        self.params = ts
        self._rng = SeedSequenceFactory(seed).rng("timeslice-cpu")
        self.allocator = IncrementalTimesliceAllocator(
            self, ts.csw_overhead, verify=verify_incremental
        )
        self._pool = FluidPool(kernel, self.allocator, name="timeslice-cpu")

    # ----------------------------------------------------------------- api
    def submit(
        self,
        node: int,
        work: float,
        on_complete: CompletionCallback,
        tag: Any = None,
    ) -> CpuTaskHandle:
        if work < 0.0:
            raise SimulationError(f"compute work must be >= 0, got {work!r}")
        handle = CpuTaskHandle(node, work, on_complete, tag)
        noise = 1.0
        if self.params.noise_sigma > 0.0 and work > 0.0:
            noise = float(
                self._rng.lognormal(mean=0.0, sigma=self.params.noise_sigma)
            )
        self._running[node] = self._running.get(node, 0) + 1
        self._pool.add(FluidTask(work * noise, self._step_done, handle))
        return handle
