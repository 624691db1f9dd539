"""Star network with a *finite* switch backplane.

The paper assumes "a central full crossbar switch which is never a
bottleneck".  Real entry-level switches of the era were oversubscribed:
their fabric could not carry every port at line rate simultaneously.
This model relaxes the paper's assumption to quantify it — per-node
equal-share rates are computed exactly as in
:class:`~repro.netmodel.star.EqualShareStarNetwork`, then scaled down
proportionally whenever their sum exceeds the backplane capacity.

With ``capacity = math.inf`` the model degrades to the paper's exactly;
the ``ablation`` section of ``benchmarks/fidelity.py`` sweeps the
oversubscription ratio (``capacity`` = nodes x bandwidth / ratio) to find
where the "never a bottleneck" assumption starts to matter for LU.

Rate allocation is *incremental*.  The per-node equal-share
base rates have single-hop dirty sets (no redistribution), and the shared
backplane couples every flow only through one scalar — the aggregate
demand.  :class:`IncrementalBackplaneAllocator` therefore maintains the
base rates incrementally plus a running demand total; while the fabric is
uncongested each membership change touches only the one-hop dirty set,
and when the scale factor moves, every flow is re-rated (the
shared-backplane component is the whole pool — unavoidable, and exactly
what the full recompute would do).
"""

from __future__ import annotations

import math
from typing import Collection

from repro.des.fluid import FluidPool, FluidTask
from repro.des.kernel import Kernel
from repro.errors import ConfigurationError
from repro.netmodel.base import NetworkModel, StarFlowAllocator
from repro.netmodel.params import NetworkParams

#: Incremental updates between exact recomputations of the demand total
#: (bounds float drift of the running sum; amortized O(n / interval)).
_REBASE_INTERVAL = 1024


class IncrementalBackplaneAllocator(StarFlowAllocator):
    """Equal-share base rates plus a shared-backplane scale factor.

    Maintains, incrementally, every flow's *base* rate (the paper's
    equal-share law) and the aggregate demand ``total = sum(base)``.  The
    assigned rate is ``base * scale`` with
    ``scale = min(1, backplane / total)``.  A membership change re-bases
    only the single-hop dirty set; all flows are re-rated only when the
    scale factor actually moves.  The running total is recomputed exactly
    every ``_REBASE_INTERVAL`` updates so float drift stays far below the
    verify tolerance.
    """

    def __init__(
        self, capacity: float, backplane: float, verify: bool = False
    ) -> None:
        super().__init__(capacity, verify=verify)
        self.backplane = float(backplane)
        self._base: dict[FluidTask, float] = {}
        self._total = 0.0
        self._scale = 1.0
        self._updates_since_rebase = 0

    # ---------------------------------------------------------------- helpers
    def _base_rate(self, task: FluidTask) -> float:
        return self._equal_share_rate(task)

    def _current_scale(self) -> float:
        if self._total > self.backplane:
            return self.backplane / self._total
        return 1.0

    # ------------------------------------------------------------- allocator
    def _full_rates(self, tasks: Collection[FluidTask]) -> None:
        self._base = {}
        total = 0.0
        for task in tasks:
            base = self._base_rate(task)
            self._base[task] = base
            total += base
        self._total = total
        self._updates_since_rebase = 0
        scale = self._current_scale()
        self._scale = scale
        for task in tasks:
            task.rate = self._base[task] * scale

    def _forget(self, task: FluidTask) -> None:
        base = self._base.pop(task, None)
        if base is not None:
            self._total -= base

    def _update_rates(
        self, dirty: Collection[FluidTask], tasks: Collection[FluidTask]
    ) -> int:
        for task in dirty:
            old = self._base.get(task, 0.0)
            base = self._base_rate(task)
            self._base[task] = base
            self._total += base - old
        self._updates_since_rebase += 1
        if self._updates_since_rebase >= _REBASE_INTERVAL:
            # Recompute the running sum exactly; O(n) amortized over the
            # interval, so the per-update cost stays sub-linear.
            self._total = math.fsum(self._base[t] for t in tasks)
            self._updates_since_rebase = 0
        scale = self._current_scale()
        if scale != self._scale:
            # The fabric's congestion level moved: the backplane couples
            # every flow, so every flow is re-rated.
            self._scale = scale
            for task in tasks:
                task.rate = self._base[task] * scale
            return len(tasks)
        for task in dirty:
            task.rate = self._base[task] * scale
        return len(dirty)


class BackplaneStarNetwork(NetworkModel):
    """Equal-share star whose switch fabric carries at most ``capacity`` B/s.

    Parameters
    ----------
    capacity:
        Aggregate backplane throughput in bytes/s.  ``math.inf`` recovers
        the paper's ideal crossbar.
    verify_incremental:
        Shadow every incremental update with a full recompute and raise on
        divergence (the equivalence-test mode).
    """

    def __init__(
        self,
        kernel: Kernel,
        params: NetworkParams,
        capacity: float = math.inf,
        verify_incremental: bool = False,
    ) -> None:
        super().__init__(kernel, params)
        if capacity <= 0:
            raise ConfigurationError(
                f"backplane capacity must be positive, got {capacity!r}"
            )
        self.capacity = float(capacity)
        self.allocator = IncrementalBackplaneAllocator(
            params.bandwidth, self.capacity, verify=verify_incremental
        )
        self._pool = FluidPool(kernel, self.allocator, name="backplane-network")

    # ------------------------------------------------------------- metrics
    def fabric_load(self) -> float:
        """Current aggregate drain rate as a fraction of capacity."""
        if math.isinf(self.capacity):
            return 0.0
        return min(1.0, sum(t.rate for t in self._pool.tasks) / self.capacity)
