"""The paper's contention model: equal bandwidth sharing on a star topology.

Assumptions, verbatim from section 4 of the paper:

* the network has a star topology — each node owns a full-duplex link to a
  central full-crossbar switch which is never a bottleneck;
* all incoming, respectively outgoing, data transfers of a node receive an
  equal share of the link bandwidth.

A transfer therefore progresses at::

    rate = min(B / n_out(src), B / n_in(dst))

where the counts include every transfer currently draining bytes.  Note this
is *not* max-min fair: when a transfer is limited by its destination's share,
the unused fraction of the source's share is **not** redistributed to the
source's other transfers.  The max-min variant lives in
:mod:`repro.netmodel.maxmin` for ablation benches.

Because there is no redistribution, an arriving or departing transfer can
only change the rates of transfers sharing one of its two links — the dirty
set is a single hop, no transitive cascade.
:class:`IncrementalEqualShareAllocator` exploits exactly that.

Latency is modelled as a fixed pre-drain delay of ``l`` (plus the per-object
software overhead) during which the transfer occupies no bandwidth, after
which ``s`` bytes drain through the fluid pool.
"""

from __future__ import annotations

from typing import Collection

from repro.des.fluid import FluidPool, FluidTask
from repro.des.kernel import Kernel
from repro.errors import SimulationError
from repro.netmodel.base import NetworkModel, StarFlowAllocator, Transfer
from repro.netmodel.params import NetworkParams

_INF = float("inf")


class IncrementalEqualShareAllocator(StarFlowAllocator):
    """Equal-share rates updated only for flows touching a changed node.

    The per-node indices and single-hop dirty-set computation live in
    :class:`~repro.netmodel.base.StarFlowAllocator`; this class contributes
    only the paper's rate law ``min(B / n_out(src), B / n_in(dst))``, read
    straight off each transfer's node indices.
    """

    # ------------------------------------------------------------- allocator
    def _full_rates(self, tasks: Collection[FluidTask]) -> None:
        self._update_rates(tasks, tasks)

    def _update_rates(
        self, dirty: Collection[FluidTask], tasks: Collection[FluidTask]
    ) -> int:
        capacity = self.capacity
        out_tasks, in_tasks = self._out_tasks, self._in_tasks
        # Each node's share is one division per update, not one per flow.
        out_shares: dict[int, float] = {}
        in_shares: dict[int, float] = {}
        for task in dirty:
            transfer = task.tag
            src, dst = transfer.src, transfer.dst
            if src in out_shares:
                out_share = out_shares[src]
            else:
                out_share = out_shares[src] = capacity / len(out_tasks[src])
            if dst in in_shares:
                in_share = in_shares[dst]
            else:
                in_share = in_shares[dst] = capacity / len(in_tasks[dst])
            # min(out_share, in_share), without the builtin call
            rate = in_share if in_share < out_share else out_share
            # ``task.rate = rate``: the setter's skip, sync and retime,
            # inlined (see :attr:`FluidTask.rate`).
            old = task._rate
            if rate == old and (rate == 0.0 or task._entry is not None):
                continue
            pool = task.pool
            if pool is None:
                task._rate = rate
                continue
            if not 0.0 <= rate < _INF:
                raise SimulationError(
                    f"pool {pool.name!r}: allocator set invalid rate {rate!r}"
                )
            now = pool.kernel._now
            if old > 0.0:
                dt = now - task._synced_at
                if dt > 0.0:
                    left = task._remaining - old * dt
                    task._remaining = left if left > 0.0 else 0.0
            task._synced_at = now
            task._rate = rate
            pool._retimed[task] = None
        return len(dirty)


class EqualShareStarNetwork(NetworkModel):
    """Fluid star-topology network with per-node equal bandwidth sharing.

    ``verify_incremental=True`` shadows incremental updates with a full
    recompute and raises on divergence.
    """

    def __init__(
        self,
        kernel: Kernel,
        params: NetworkParams,
        verify_incremental: bool = False,
    ) -> None:
        super().__init__(kernel, params)
        self.allocator = IncrementalEqualShareAllocator(
            params.bandwidth, verify=verify_incremental
        )
        self._pool = FluidPool(kernel, self.allocator, name="star-network")
        # Draining-transfer counts per node (latency-phase transfers are
        # tracked by the base class but hold no bandwidth).  Kept here, not
        # derived from the allocator index: the index is pruned at the next
        # allocator update, which runs *after* completion callbacks, while
        # these counts must already exclude the finished transfer inside
        # its own callback.
        self._drain_out: dict[int, int] = {}
        self._drain_in: dict[int, int] = {}

    # ------------------------------------------------------------ lifecycle
    def _begin_drain(self, transfer: Transfer) -> None:
        self._drain_out[transfer.src] = self._drain_out.get(transfer.src, 0) + 1
        self._drain_in[transfer.dst] = self._drain_in.get(transfer.dst, 0) + 1
        self._pool.add(FluidTask(transfer.size, self._drain_done, tag=transfer))

    def _drain_done(self, task: FluidTask) -> None:
        transfer: Transfer = task.tag
        self._drain_out[transfer.src] -= 1
        self._drain_in[transfer.dst] -= 1
        self._finish(transfer)

    # ------------------------------------------------------------- metrics
    def draining_outgoing(self, node: int) -> int:
        """Transfers currently draining bytes out of ``node``."""
        return self._drain_out.get(node, 0)

    def draining_incoming(self, node: int) -> int:
        """Transfers currently draining bytes into ``node``."""
        return self._drain_in.get(node, 0)
