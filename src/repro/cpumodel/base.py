"""Abstract CPU-model interface.

A CPU model executes *compute atomic steps*: quantities of work expressed in
seconds-at-full-dedicated-power on the node's machine profile.  The model
decides how long a step really takes given everything else running on the
node (other operations, communication handling).

This module also hosts :class:`NodeSlicedAllocator`, the shared incremental
rate-allocation machinery for CPU models (see the allocator protocol in
:mod:`repro.des.fluid` and ``docs/allocator_protocol.md``): steps on one
host form a *slice group* whose rates depend only on that host's available
power and group size, so membership changes re-rate one group and network
refreshes re-rate only groups whose cached power actually moved.  Concrete
models subclass it and implement only the per-group rate law.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Collection, Optional, Sequence

from repro.cpumodel.commcost import CommCostModel
from repro.des.fluid import (
    FluidPool,
    FluidTask,
    HorizonStats,
    RateAllocator,
    assign_rate,
)
from repro.des.kernel import Kernel
from repro.netmodel.base import NetworkModel

CompletionCallback = Callable[["CpuTaskHandle"], None]


class CpuTaskHandle:
    """Handle to a compute step admitted to a CPU model."""

    __slots__ = ("node", "work", "on_complete", "tag")

    def __init__(
        self,
        node: int,
        work: float,
        on_complete: CompletionCallback,
        tag: Any = None,
    ) -> None:
        self.node = int(node)
        self.work = float(work)
        self.on_complete = on_complete
        self.tag = tag


class CpuModel(ABC):
    """Executes compute steps on virtual nodes, coupled to a network model.

    When a network model is attached, its concurrent-transfer counts reduce
    the processing power available to compute steps, per the paper's model.
    Steps drain through a :class:`~repro.des.fluid.FluidPool` the subclass
    builds in ``self._pool``, with a :class:`NodeSlicedAllocator`; the
    subclass contributes :meth:`submit` (how much work a step is).
    """

    _pool: FluidPool

    def __init__(self, kernel: Kernel, comm_cost: CommCostModel | None = None) -> None:
        self.kernel = kernel
        self.comm_cost = comm_cost or CommCostModel()
        self.network: Optional[NetworkModel] = None
        #: cumulative busy work completed per node (for utilization metrics)
        self.completed_work: dict[int, float] = {}
        #: compute steps currently running per node
        self._running: dict[int, int] = {}

    def attach_network(self, network: NetworkModel) -> None:
        """Couple to ``network``: transfer activity now consumes CPU power.

        The pool's refresh is the listener: the network names the nodes
        whose transfer counts changed, and the allocator re-rates the steps
        on those whose available power moved.
        """
        self.network = network
        network.add_listener(self._pool.reallocate)

    @property
    def horizon_stats(self) -> HorizonStats:
        """Completion-horizon counters of the backing pool."""
        return self._pool.horizon

    # ------------------------------------------------------------ subclass
    @abstractmethod
    def submit(
        self,
        node: int,
        work: float,
        on_complete: CompletionCallback,
        tag: Any = None,
    ) -> CpuTaskHandle:
        """Admit a compute step of ``work`` seconds-at-full-power on ``node``."""

    # ----------------------------------------------------------------- api
    def running_steps(self, node: int) -> int:
        """Number of compute steps currently running on ``node``."""
        return self._running.get(node, 0)

    # ------------------------------------------------------------- helpers
    def _step_done(self, task: FluidTask) -> None:
        """A step's work drained: account it, then run its callback."""
        handle: CpuTaskHandle = task.tag
        node = handle.node
        self._running[node] -= 1
        completed = self.completed_work
        completed[node] = completed.get(node, 0.0) + handle.work
        handle.on_complete(handle)

    def _node_power(self, node: int) -> float:
        """Power available for operations on ``node`` (0..1)."""
        network = self.network
        if network is None:
            return 1.0
        # The network's count tables, read directly: this runs at every
        # refresh of every hinted node.
        incoming, outgoing = network._incoming, network._outgoing
        return self.comm_cost.available_power(
            incoming[node] if node in incoming else 0,
            outgoing[node] if node in outgoing else 0,
        )


# --------------------------------------------------------------------------
# shared incremental-allocator machinery (per-host slice groups)
# --------------------------------------------------------------------------


class NodeSlicedAllocator(RateAllocator):
    """Per-host slice groups with cached available power.

    Every step on host ``i`` receives the same rate, a function of the
    host's available power and the number of resident steps only — so a
    membership change re-rates exactly the changed hosts' groups, and a
    network refresh re-rates only hosts whose cached power actually moved
    (the network passes the changed nodes as the ``hint``).  Steps carry
    :class:`CpuTaskHandle` tags; subclasses implement :meth:`_group_rate`
    — the per-step rate law.

    Complexity contract: a membership delta costs O(steps on the changed
    hosts); a refresh costs O(hinted hosts) index probes plus O(steps on
    hosts whose power moved) rate assignments; the full path is O(n).
    See ``docs/allocator_protocol.md``.

    Group membership uses insertion-ordered dicts (dict-as-set) so that
    iteration order — and with it any float accumulation a subclass might
    add — stays identical between runs regardless of hash seeds.
    """

    def __init__(self, model: "CpuModel", verify: bool = False) -> None:
        super().__init__(verify=verify)
        self._model = model
        self._node_tasks: dict[int, dict[FluidTask, None]] = {}
        self._power: dict[int, float] = {}

    # ---------------------------------------------------------------- hooks
    def _group_rate(self, power: float, resident: int) -> float:
        """Rate of each step on a host with ``resident`` runnable steps."""
        raise NotImplementedError

    # -------------------------------------------------------------- helpers
    def _rerate_node(self, node: int, power: float) -> int:
        """Rate ``node``'s group under ``power``; returns the steps touched."""
        steps = self._node_tasks[node]
        self._power[node] = power
        resident = len(steps)
        assign_rate(steps, self._group_rate(power, resident))
        return resident

    # ------------------------------------------------------------- allocator
    def _full(self, tasks: Collection[FluidTask]) -> None:
        # Rebuild the index and power cache from scratch: the full path must
        # not depend on incremental bookkeeping being in sync.
        self._node_tasks = {}
        for task in tasks:
            self._node_tasks.setdefault(task.tag.node, {})[task] = None
        self._power = {}
        for node in self._node_tasks:
            self._rerate_node(node, self._model._node_power(node))

    def _update(
        self,
        tasks: Collection[FluidTask],
        added: Sequence[FluidTask],
        removed: Sequence[FluidTask],
    ) -> None:
        node_tasks = self._node_tasks
        dirty_nodes: dict[int, None] = {}
        for task in removed:
            node = task.tag.node
            if node in node_tasks:
                members = node_tasks[node]
                if task in members:
                    del members[task]
                if not members:
                    del node_tasks[node]
            dirty_nodes[node] = None
        for task in added:
            node = task.tag.node
            if node in node_tasks:
                node_tasks[node][task] = None
            else:
                node_tasks[node] = {task: None}
            dirty_nodes[node] = None
        powers = self._power
        node_power = self._model._node_power
        computed = 0
        for node in dirty_nodes:
            # Recompute the node's power rather than trusting the cache: a
            # transfer-completion callback can submit work before the
            # network's change notification arrives, and the cached power
            # would be stale for that window.
            if node in node_tasks:
                computed += self._rerate_node(node, node_power(node))
            elif node in powers:
                del powers[node]
        self.stats.rates_computed += computed

    def _refresh(self, tasks: Collection[FluidTask], hint: Any = None) -> None:
        node_tasks = self._node_tasks
        powers = self._power
        node_power = self._model._node_power
        computed = 0
        for node in list(node_tasks) if hint is None else hint:
            if node not in node_tasks:
                if node in powers:
                    del powers[node]
                continue
            power = node_power(node)
            if node not in powers or power != powers[node]:
                computed += self._rerate_node(node, power)
        self.stats.rates_computed += computed
