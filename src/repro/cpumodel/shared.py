"""The paper's CPU model: even sharing of the remaining processing power.

"We also assume that the processing power not used for communications is
shared evenly among all running operations, and that no memory swapping
occurs." — section 4.

Each node's running compute steps drain through a single fluid pool whose
allocator gives every step on node ``i`` the rate::

    rate = available_power(i) / n_running(i)

where ``available_power`` comes from the communication cost model and the
attached network's concurrent-transfer counts.  A network change triggers a
rate recomputation, so overlapping communication slows computation exactly
as in the paper's model.

Rates are maintained *incrementally*: a step arriving or departing on node
``i`` can only change the rates of the other steps on node ``i``, and a
network change only re-rates steps on the nodes whose transfer counts
actually changed (the network passes those nodes along with its
notification).  Steps on untouched nodes keep their rates.  The slice-group
and power-cache machinery lives in
:class:`~repro.cpumodel.base.NodeSlicedAllocator`; this module contributes
only the even-share law.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cpumodel.base import (
    CompletionCallback,
    CpuModel,
    CpuTaskHandle,
    NodeSlicedAllocator,
)
from repro.cpumodel.commcost import CommCostModel
from repro.des.fluid import FluidPool, FluidTask
from repro.des.kernel import Kernel
from repro.errors import SimulationError


class IncrementalSharedCpuAllocator(NodeSlicedAllocator):
    """Even-share CPU rates, recomputed only for nodes that changed."""

    def _group_rate(self, power: float, resident: int) -> float:
        return power / resident


class SharedCpuModel(CpuModel):
    """Even-share fluid CPU model (the simulator's model).

    ``verify_incremental=True`` shadows every incremental update with a full
    recompute and raises on divergence.
    """

    def __init__(
        self,
        kernel: Kernel,
        comm_cost: CommCostModel | None = None,
        verify_incremental: bool = False,
    ) -> None:
        super().__init__(kernel, comm_cost)
        self.allocator = IncrementalSharedCpuAllocator(
            self, verify=verify_incremental
        )
        self._pool = FluidPool(kernel, self.allocator, name="shared-cpu")
        self._running: dict[int, int] = {}

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
        self._running[node] = self._running.get(node, 0) + 1
        fluid = FluidTask(work, self._step_done, tag=handle)
        handle.fluid = fluid
        self._pool.add(fluid)
        return handle

    def running_steps(self, node: int) -> int:
        return self._running.get(node, 0)

    # ------------------------------------------------------------ internals
    def _step_done(self, task: FluidTask) -> None:
        handle: CpuTaskHandle = task.tag
        self._running[handle.node] -= 1
        self._record_completion(handle.node, handle.work)
        handle.on_complete(handle)

    def _on_network_change(self, nodes: Optional[tuple[int, ...]] = None) -> None:
        self._pool.reallocate(hint=nodes)
