"""Max-min fair variant of the star-topology contention model.

Identical to :class:`~repro.netmodel.star.EqualShareStarNetwork` except that
rates are computed by progressive filling (water-filling): bandwidth left
unused by transfers bottlenecked elsewhere is redistributed among the
remaining transfers on the same link.  This is how TCP flows on a switched
LAN approximately share capacity, so the ground-truth testbed builds on this
model while the paper's simulator uses the simpler equal-share law; the
difference between the two is one genuine source of prediction error, and
the ``ablation`` section of ``benchmarks/fidelity.py`` quantifies it.

Rate allocation is *incremental*: max-min rates decompose over
connected components of the bipartite flow/link graph, so when a flow
arrives or departs only the flows in its component — those sharing a link
with it directly or transitively through chained bottlenecks — can change
rate.  The component tracking (flow-class index, BFS, cascade fallback)
and the warm-started re-solve that kicks in when the component swallows
the pool live in :class:`~repro.netmodel.base.LinkComponentAllocator`; the
bottleneck-search solve itself lives in
:mod:`repro.netmodel.waterfill`.  See ``docs/performance.md`` for the
design and ``docs/allocator_protocol.md`` for the dirty-set contract.
"""

from __future__ import annotations

from repro.des.fluid import FluidPool
from repro.des.kernel import Kernel
from repro.netmodel.base import LinkComponentAllocator, NetworkModel
from repro.netmodel.params import NetworkParams
from repro.netmodel.waterfill import flow_links, maxmin_solve


def maxmin_rates(
    flows: list[tuple[int, int]], capacity: float
) -> list[float]:
    """Water-filling rate allocation on a star topology.

    A thin wrapper over :func:`repro.netmodel.waterfill.maxmin_solve` that
    returns only the rates — the reference solver the verify-mode shadow
    and the equivalence test-suites compare against.

    Parameters
    ----------
    flows:
        ``(src, dst)`` pairs; each node's egress and ingress are separate
        links of ``capacity`` bytes/s.
    capacity:
        Full-duplex link capacity in bytes/s.

    Returns
    -------
    list of rates, one per flow, in input order.

    Complexity: O((F + L) · log L) — the per-link residual capacities and
    unfrozen-flow counts are kept in a lazy min-heap keyed by fair share,
    so each saturation round costs O(links touched · log L) instead of the
    historical rescan of every flow per round.
    """
    return maxmin_solve(
        [(*flow_links(s, d), 1) for s, d in flows], capacity
    ).rates


class IncrementalMaxMinAllocator(LinkComponentAllocator):
    """Dirty-set-bounded water-filling for star-topology fluid tasks.

    Tasks must be tagged with objects exposing ``src``/``dst`` node ids
    (:class:`~repro.netmodel.base.Transfer` does).  On a membership change
    the allocator recomputes rates only for the connected component of the
    flow/link graph containing the changed flows; flows sharing no link —
    even transitively — keep their rates, which is exact because water
    filling decomposes over components.  When the component cascades past
    the threshold, the warm-started re-solve inherited from
    :class:`~repro.netmodel.base.LinkComponentAllocator` replays the
    previous solve's saturation prefix and re-solves only the suffix the
    delta touched.

    The entire behaviour — component BFS, warm start, fallback accounting —
    is the base class's; this subclass only documents the pairing with
    :class:`MaxMinStarNetwork`.
    """


class MaxMinStarNetwork(NetworkModel):
    """Star-topology fluid network with max-min fair bandwidth sharing.

    ``verify_incremental=True`` shadows every incremental update with a
    full solve and raises on divergence.
    """

    def __init__(
        self,
        kernel: Kernel,
        params: NetworkParams,
        verify_incremental: bool = False,
        cascade_threshold: float = 0.5,
    ) -> None:
        super().__init__(kernel, params)
        self.allocator = IncrementalMaxMinAllocator(
            params.bandwidth,
            cascade_threshold=cascade_threshold,
            verify=verify_incremental,
        )
        self._pool = FluidPool(kernel, self.allocator, name="maxmin-network")
