"""Abstract network-model interface shared by all implementations.

A network model accepts *transfers* (source node, destination node, size)
and invokes a completion callback when the last byte arrives.  It also
exposes per-node concurrent-transfer counts, which the CPU model consumes
("the consumed processing power depends on the number of outgoing and
incoming communications" — paper section 4), and notifies listeners whenever
those counts change.

This module also hosts the two shared incremental-allocator geometries of
the star topology (see the allocator protocol in :mod:`repro.des.fluid`):

* :class:`StarFlowAllocator` — per-node egress/ingress indices with
  *single-hop* dirty sets, for sharing laws without redistribution (the
  paper's equal-share law, the finite-backplane variant);
* :class:`LinkComponentAllocator` — a link → flow-class index over integer
  link ids plus BFS over connected components of the bipartite
  class/link graph, with a warm-started re-solve for cascades that
  swallow the pool (max-min water-filling, the packet-level testbed
  model).

Concrete models subclass one of these and implement only the rate law.
The dirty-set contract lives in ``docs/allocator_protocol.md`` (including
the warm-start invariants); the complexity story in
``docs/performance.md``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from abc import ABC
from typing import Any, Callable, Collection, Optional, Sequence

from repro.des.fluid import FluidTask, HorizonStats, RateAllocator, assign_scaled
from repro.des.kernel import Kernel
from repro.errors import SimulationError
from repro.netmodel.params import NetworkParams
from repro.netmodel.waterfill import Link, flow_links, maxmin_solve
from repro.util.validation import check_in_range, check_non_negative

_INF = float("inf")

#: Callback type invoked when a transfer completes.
CompletionCallback = Callable[["Transfer"], None]
#: Listener invoked whenever any node's concurrent-transfer counts change;
#: receives the nodes whose counts changed (or ``None`` for "unknown"), so
#: incremental CPU allocators can bound their rate refresh to those nodes.
ActivityListener = Callable[[Optional[tuple[int, ...]]], None]


class Transfer:
    """One data-object transfer moving through a network model."""

    __slots__ = (
        "transfer_id",
        "src",
        "dst",
        "size",
        "on_complete",
        "tag",
        "submitted_at",
        "completed_at",
    )

    _ids = itertools.count()

    def __init__(
        self,
        src: int,
        dst: int,
        size: float,
        on_complete: CompletionCallback,
        tag: Any = None,
    ) -> None:
        if src == dst:
            raise SimulationError(
                f"transfer source and destination are the same node ({src}); "
                "local deliveries must bypass the network model"
            )
        self.transfer_id = next(Transfer._ids)
        self.src = int(src)
        self.dst = int(dst)
        # An exact non-negative float is what every runtime transfer
        # carries; anything else goes through the full check.
        self.size = (
            size
            if size.__class__ is float and 0.0 <= size < _INF
            else check_non_negative("size", size)
        )
        self.on_complete = on_complete
        self.tag = tag
        self.submitted_at: float = math.nan
        self.completed_at: float = math.nan

    @property
    def elapsed(self) -> float:
        """Wall (simulated) duration of the transfer, NaN until complete."""
        return self.completed_at - self.submitted_at

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Transfer(#{self.transfer_id} {self.src}->{self.dst}, "
            f"size={self.size!r})"
        )


class NetworkModel(ABC):
    """Common bookkeeping for network models: counts, listeners, stats."""

    def __init__(self, kernel: Kernel, params: NetworkParams) -> None:
        self.kernel = kernel
        self.params = params
        self._outgoing: dict[int, int] = {}
        self._incoming: dict[int, int] = {}
        self._listeners: list[ActivityListener] = []
        #: total transfers completed (simulation-cost metric)
        self.completed_transfers = 0
        #: total bytes delivered
        self.delivered_bytes = 0.0

    # ----------------------------------------------------------------- api
    def submit(
        self,
        src: int,
        dst: int,
        size: float,
        on_complete: CompletionCallback,
        tag: Any = None,
    ) -> Transfer:
        """Admit a transfer; the callback fires when the last byte arrives."""
        transfer = Transfer(src, dst, size, on_complete, tag)
        transfer.submitted_at = self.kernel._now
        self._outgoing[src] = self._outgoing.get(src, 0) + 1
        self._incoming[dst] = self._incoming.get(dst, 0) + 1
        self._start(transfer)
        self._notify((src, dst))
        return transfer

    def concurrent_outgoing(self, node: int) -> int:
        """Number of in-flight transfers leaving ``node``."""
        return self._outgoing.get(node, 0)

    def concurrent_incoming(self, node: int) -> int:
        """Number of in-flight transfers arriving at ``node``."""
        return self._incoming.get(node, 0)

    def active_transfers(self) -> int:
        """Total number of in-flight transfers."""
        return sum(self._outgoing.values())

    def add_listener(self, listener: ActivityListener) -> None:
        """Subscribe to concurrency-count changes (CPU-model coupling)."""
        self._listeners.append(listener)

    @property
    def horizon_stats(self) -> Optional[HorizonStats]:
        """Completion-horizon counters of the backing pool.

        ``None`` for a model without one (the contention-free analytic
        network).
        """
        pool = getattr(self, "_pool", None)
        return None if pool is None else pool.horizon

    # ------------------------------------------------------------ lifecycle
    def _start(self, transfer: Transfer) -> None:
        """The paper's transfer law: wait the latency ``l`` holding no
        bandwidth, then drain; must eventually call :meth:`_finish`."""
        delay = self.params.effective_latency
        if delay > 0.0:
            self.kernel.schedule_at(
                transfer.submitted_at + delay, self._begin_drain, transfer
            )
        else:
            self._begin_drain(transfer)

    def _begin_drain(self, transfer: Transfer) -> None:
        """Hand the bytes to the contended drain (``self._pool``)."""
        self._pool.add(FluidTask(transfer.size, self._drain_done, tag=transfer))

    def _drain_done(self, task: FluidTask) -> None:
        self._finish(task.tag)

    # ------------------------------------------------------------ internals
    def _finish(self, transfer: Transfer) -> None:
        """Mark ``transfer`` complete and invoke its callback."""
        transfer.completed_at = self.kernel._now
        self._outgoing[transfer.src] -= 1
        self._incoming[transfer.dst] -= 1
        self.completed_transfers += 1
        self.delivered_bytes += transfer.size
        # Notify *before* the completion callback: the callback may submit
        # compute work, and the CPU model's cached per-node powers must
        # already reflect the decremented transfer counts when it does —
        # otherwise the stale window is observable (the verify-mode shadow
        # catches exactly this).
        self._notify((transfer.src, transfer.dst))
        transfer.on_complete(transfer)

    def _notify(self, nodes: Optional[tuple[int, ...]] = None) -> None:
        for listener in self._listeners:
            listener(nodes)


# --------------------------------------------------------------------------
# shared incremental-allocator machinery (star topology)
# --------------------------------------------------------------------------

__all__ = [
    "LinkComponentAllocator",
    "NetworkModel",
    "StarFlowAllocator",
    "Transfer",
]


class StarFlowAllocator(RateAllocator):
    """Per-node flow indices with single-hop dirty sets.

    For sharing laws *without* redistribution, an arriving or departing
    flow can only change the rates of flows sharing one of its two links —
    no transitive cascade.  This base maintains insertion-ordered per-node
    egress/ingress indices (dict-as-set: id-hashed set iteration would vary
    between runs and leak float nondeterminism into subclasses that
    accumulate over the dirty set) and computes that one-hop dirty set.

    Complexity contract: a membership delta costs O(dirty) — the flows
    sharing a link with the changed flows — plus whatever the subclass
    rate law adds; the full path is O(n).  See
    ``docs/allocator_protocol.md``.  Subclasses implement only the rate
    law:

    * :meth:`_full_rates` — assign every task's rate (full recompute);
    * :meth:`_update_rates` — assign rates for the dirty tasks, returning
      the number of per-task rate assignments actually performed.

    Tasks carry :class:`Transfer` tags: the indices read ``task.tag.src``
    and ``task.tag.dst``.
    """

    def __init__(self, capacity: float, verify: bool = False) -> None:
        super().__init__(verify=verify)
        self.capacity = capacity
        self._out_tasks: dict[int, dict[FluidTask, None]] = {}
        self._in_tasks: dict[int, dict[FluidTask, None]] = {}

    # ---------------------------------------------------------------- hooks
    def _full_rates(self, tasks: Collection[FluidTask]) -> None:
        """Assign a rate to every task (indices are freshly rebuilt)."""
        raise NotImplementedError

    def _update_rates(
        self, dirty: Collection[FluidTask], tasks: Collection[FluidTask]
    ) -> int:
        """Assign rates for the dirty set; return rates actually computed."""
        raise NotImplementedError

    # -------------------------------------------------------------- helpers
    def _equal_share_rate(self, task: FluidTask) -> float:
        """The paper's sharing law: ``min(B / n_out(src), B / n_in(dst))``."""
        transfer = task.tag
        out_share = self.capacity / len(self._out_tasks[transfer.src])
        in_share = self.capacity / len(self._in_tasks[transfer.dst])
        return min(out_share, in_share)

    def _rebuild_index(self, tasks: Collection[FluidTask]) -> None:
        self._out_tasks = {}
        self._in_tasks = {}
        for task in tasks:
            transfer = task.tag
            self._out_tasks.setdefault(transfer.src, {})[task] = None
            self._in_tasks.setdefault(transfer.dst, {})[task] = None

    # ------------------------------------------------------------- allocator
    def _full(self, tasks: Collection[FluidTask]) -> None:
        # Rebuild the per-node indices from scratch: the full path must not
        # depend on incremental bookkeeping being in sync.
        self._rebuild_index(tasks)
        self._full_rates(tasks)

    def _update(
        self,
        tasks: Collection[FluidTask],
        added: Sequence[FluidTask],
        removed: Sequence[FluidTask],
    ) -> None:
        # Index maintenance and the one-hop dirty set, without a call per
        # task: ``dirty |= members`` appends a link's flows in index order
        # and leaves flows already dirty where they are.
        out_tasks, in_tasks = self._out_tasks, self._in_tasks
        dirty: dict[FluidTask, None] = {}
        for task in removed:
            transfer = task.tag
            src, dst = transfer.src, transfer.dst
            if src in out_tasks:
                members = out_tasks[src]
                if task in members:
                    del members[task]
                if members:
                    dirty |= members
                else:
                    del out_tasks[src]
            if dst in in_tasks:
                members = in_tasks[dst]
                if task in members:
                    del members[task]
                if members:
                    dirty |= members
                else:
                    del in_tasks[dst]
        for task in added:
            transfer = task.tag
            src, dst = transfer.src, transfer.dst
            if src in out_tasks:
                out_tasks[src][task] = None
            else:
                out_tasks[src] = {task: None}
            if dst in in_tasks:
                in_tasks[dst][task] = None
            else:
                in_tasks[dst] = {task: None}
        for task in added:
            transfer = task.tag
            dirty |= out_tasks[transfer.src]
            dirty |= in_tasks[transfer.dst]
        # A task removed later in the batch may have entered ``dirty`` as a
        # neighbour of an earlier removal; it holds no rate any more.
        for task in removed:
            if task in dirty:
                del dirty[task]
        self.stats.rates_computed += self._update_rates(dirty, tasks)


#: Relative tolerance of the warm-start prefix check: an affected link
#: whose fair share undercuts a replayed round's share by more than this
#: invalidates the prefix from that round on.  Mathematically-equal shares
#: (ties) are accepted — the max-min fixed point is unique, so tie-order
#: differences cannot change the resulting rates.
_WARM_RTOL = 1e-9


class _FlowClass:
    """The live flows of one (source, destination) pair.

    They cross the same two links, so the solver freezes them together
    at one fair share.  ``flows`` maps each flow to its rate factor, in
    registration order; ``first`` is the registration number of the
    earliest live flow, the key that orders classes.  Hashes by identity.
    """

    __slots__ = ("out", "into", "flows", "first")

    def __init__(self, out: Link, into: Link, first: int) -> None:
        self.out = out
        self.into = into
        self.flows: dict[FluidTask, float] = {}
        self.first = first


#: Sort key of classes: the registration number of the earliest flow.
_first = operator.attrgetter("first")

#: One cached saturation round: bottleneck link, share, frozen classes.
_Round = tuple[Link, float, tuple[_FlowClass, ...]]


class _WarmSolution:
    """Cached saturation order of the last whole-pool water-filling solve.

    ``rounds`` mirrors :class:`repro.netmodel.waterfill.MaxMinSolution`
    rounds but references the live flow classes instead of class indices,
    so a later update can replay it against the current membership.
    ``capacity`` pins the link capacity the solve ran under — a capacity
    edit invalidates the cache.
    """

    __slots__ = ("capacity", "rounds")

    def __init__(self, capacity: float, rounds: list[_Round]) -> None:
        self.capacity = capacity
        self.rounds = rounds


def _merge_saturation_orders(a: list[_Round], b: list[_Round]) -> list[_Round]:
    """Merge two disjoint-component saturation orders by share.

    Both inputs are nondecreasing in share; for link-disjoint components a
    global water-filling solve processes exactly these rounds interleaved
    by share value, so the stable merge is itself a valid whole-pool
    saturation order (ties may order differently than a fresh solve, which
    is fine — the max-min fixed point is unique).
    """
    merged: list[_Round] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][1] <= b[j][1]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return merged


class LinkComponentAllocator(RateAllocator):
    """Link → flow-class index with BFS over connected components + warm start.

    For sharing laws where bandwidth unused by flows bottlenecked elsewhere
    is redistributed (max-min water-filling and its derivatives), a
    membership change cascades transitively through chained bottlenecks —
    but never past the connected component of the bipartite flow/link graph
    containing the changed flows.  This base groups the live flows of each
    (source, destination) pair into one *flow class* (they cross the same
    two links and always freeze together), keeps per-link state in lists
    indexed by integer link id (:func:`~repro.netmodel.waterfill.flow_links`),
    finds the affected component by BFS — O(component), or O(threshold)
    when it stops at the cascade threshold — and re-solves only that
    component.  Every walk, replay and solve runs per class; only the final
    assignment visits a class's flows.

    When the component cascades past ``cascade_threshold`` of the active
    flows — the dense-traffic regime where the whole pool is one giant
    component — the restricted solve would cost as much as a full one.
    Instead of always falling back, the allocator *warm-starts*: it caches
    the previous whole-pool solve's link saturation order and frozen-rate
    assignment, re-freezes the prefix of saturation rounds whose residual
    constraints are untouched by the delta, and re-solves only the suffix
    (see ``docs/performance.md`` for the validity argument and
    ``docs/allocator_protocol.md`` for the counter contract).  A successful
    warm start increments ``stats.warm_starts`` and counts only the suffix
    in ``stats.rates_computed``; when the prefix check fails (or no cache
    is available) the allocator falls back to the full solve and increments
    ``stats.full_fallbacks``.  Every counter counts flows, not classes.

    Subclasses provide the flow geometry and rate factor via :meth:`_flow`
    (e.g. the packet model's per-transfer throughput factor).  The
    water-filling solve itself is
    :func:`repro.netmodel.waterfill.maxmin_solve`.
    """

    def __init__(
        self,
        capacity: float,
        cascade_threshold: float = 0.5,
        verify: bool = False,
    ) -> None:
        super().__init__(verify=verify)
        self.capacity = capacity
        self.cascade_threshold = check_in_range(
            "cascade_threshold", cascade_threshold, 0.0, 1.0
        )
        self._warm: Optional[_WarmSolution] = None
        self._reset_index()

    def _reset_index(self) -> None:
        # Classes by link pair (lookup only: ordered passes sort by
        # ``first``), and each registered flow's class and registration
        # number — fixed while the flow is live.
        self._classes: dict[tuple[Link, Link], _FlowClass] = {}
        self._class_of: dict[FluidTask, tuple[_FlowClass, int]] = {}
        self._registered = 0
        # Per link id: live flow count, classes crossing it (insertion
        # order), and the stamp of the last walk that reached it.
        self._load: list[int] = []
        self._link_classes: list[dict[_FlowClass, None]] = []
        self._mark: list[int] = []
        self._walks = 0

    # ---------------------------------------------------------------- hooks
    def _flow(self, task: FluidTask) -> tuple[int, int, float]:
        """(source, destination, rate factor) of ``task``, read once at
        registration.  Its rate is its class's fair share times the
        factor — warm-start-exact, as the factor is per-task constant."""
        transfer = task.tag
        return transfer.src, transfer.dst, 1.0

    # -------------------------------------------------------------- helpers
    def _register(self, task: FluidTask) -> _FlowClass:
        """Index ``task`` under its class; returns the class."""
        src, dst, factor = self._flow(task)
        out, into = flow_links(src, dst)
        self._registered += 1
        cls = self._classes.get((out, into))
        if cls is None:
            if src < 0 or dst < 0:
                raise SimulationError(f"negative node id in {src} -> {dst}")
            grow = max(out, into) + 1 - len(self._load)
            if grow > 0:
                self._load += [0] * grow
                self._link_classes += [{} for _ in range(grow)]
                self._mark += [0] * grow
            cls = self._classes[out, into] = _FlowClass(
                out, into, self._registered
            )
            self._link_classes[out][cls] = None
            self._link_classes[into][cls] = None
        cls.flows[task] = factor
        self._class_of[task] = (cls, self._registered)
        self._load[out] += 1
        self._load[into] += 1
        return cls

    def _unregister(self, task: FluidTask) -> _FlowClass:
        """Drop ``task`` from the index; returns the class it was in."""
        cls, number = self._class_of.pop(task)
        flows = cls.flows
        del flows[task]
        self._load[cls.out] -= 1
        self._load[cls.into] -= 1
        if not flows:
            del self._classes[cls.out, cls.into]
            del self._link_classes[cls.out][cls]
            del self._link_classes[cls.into][cls]
        elif number == cls.first:
            cls.first = self._class_of[next(iter(flows))][1]
        return cls

    def _ordered_classes(self) -> list[_FlowClass]:
        """Every live class, by the registration of its earliest flow —
        the order in which a per-flow solve first meets each link."""
        return sorted(self._classes.values(), key=_first)

    def _component(
        self, seed_links: Sequence[Link], limit: float = math.inf
    ) -> Optional[list[_FlowClass]]:
        """Classes reachable from ``seed_links`` in the class/link graph.

        A popped link visits its classes by ``first``, so the solver meets
        every link where a per-flow walk would have.  ``None`` once the
        loads of the reached egress links — a lower bound of the
        component's flow count, exact when the walk ends — pass ``limit``.
        Stamps the component's links ``self._walks`` in ``_mark``.
        O(min(component, limit)).
        """
        load = self._load
        link_classes = self._link_classes
        mark = self._mark
        self._walks += 2
        seen = self._walks - 1
        done = self._walks
        frontier = []
        flows = 0
        for link in seed_links:
            if link < len(mark) and mark[link] != seen:
                mark[link] = seen
                frontier.append(link)
                if link & 1:
                    flows += load[link]
        if flows > limit:
            return None
        found: list[_FlowClass] = []
        while frontier:
            link = frontier.pop()
            mark[link] = done
            classes: Collection[_FlowClass] = link_classes[link]
            if len(classes) > 1:
                classes = sorted(classes, key=_first)
            for cls in classes:
                other = cls.into if link & 1 else cls.out
                state = mark[other]
                if state == done:
                    continue  # visited when ``other`` was popped
                found.append(cls)
                if state != seen:
                    mark[other] = seen
                    frontier.append(other)
                    if other & 1:
                        flows += load[other]
                        if flows > limit:
                            return None
        return found

    def _fill(
        self,
        classes: list[_FlowClass],
        residual: Optional[list[float]] = None,
    ) -> list[_Round]:
        """Water-fill ``classes``, assign every flow its rate, and return
        the saturation order over class objects."""
        solution = maxmin_solve(
            [(cls.out, cls.into, len(cls.flows)) for cls in classes],
            self.capacity,
            residual,
        )
        assign_scaled(
            [(cls.flows, share) for cls, share in zip(classes, solution.rates)]
        )
        return [
            (link, share, tuple(map(classes.__getitem__, indices)))
            for link, share, indices in solution.rounds
        ]

    def _solve_all(self) -> None:
        """Whole-pool solve; caches the saturation order for warm starts."""
        self._warm = _WarmSolution(
            self.capacity, self._fill(self._ordered_classes())
        )

    def _warm_solve(self, affected: list[Link]) -> bool:
        """Re-solve after a cascade by replaying the cached saturation order.

        The delta (added/removed flows) directly perturbs only the links in
        ``affected``; every other link's residual capacity and unfrozen-flow
        count replay identically until the first round whose bottleneck is
        an affected link or whose share an affected link undercuts.  The
        prefix of rounds before that point re-freezes byte-identically (the
        frozen flows keep their rates — no reassignment, no horizon-heap
        work), and only the remaining classes are re-solved against the
        prefix's residual capacities.

        Returns ``True`` on success (rates assigned, cache refreshed);
        ``False`` when no usable prefix exists — the caller then performs
        the accounted full fallback.  Cost: O(prefix classes + rounds ·
        log |affected|) for the replay plus a suffix-sized bottleneck
        search.

        An undercut does not end the prefix: the undercutting link *is*
        the true next bottleneck (its fair share is below the round's
        share, every unaffected link's share is at or above it, and it is
        the minimum among the affected links), so a new round freezing
        its unfrozen classes at that share is inserted into the order and
        the replay continues.  The links of the just-frozen classes join
        the affected set — their residuals changed — so later rounds they
        bottleneck still break the prefix.
        Each insertion is exact and bounded by the link's membership;
        ``stats.warm_inserts`` counts them.  This is what lets a flow
        added to an already-solved component warm-start even when its
        link undercuts the very first cached round.
        """
        prefix, frozen, consumed = self._replay_insert(affected)
        if not prefix:
            return False
        suffix = [cls for cls in self._ordered_classes() if cls not in frozen]
        self.stats.warm_starts += 1
        self.stats.rates_computed += sum([len(cls.flows) for cls in suffix])
        suffix_rounds: list[_Round] = []
        if suffix:
            capacity = self.capacity
            suffix_rounds = self._fill(
                suffix,
                [
                    rest if (rest := capacity - used) > 0.0 else 0.0
                    for used in consumed
                ],
            )
        # Prefix shares are <= every suffix share (the suffix starts at the
        # break point's residual state), so the concatenation is itself a
        # valid saturation order for the current membership — reusable by
        # the next warm start.
        self._warm = _WarmSolution(self.capacity, prefix + suffix_rounds)
        return True

    def _replay_insert(
        self, affected: list[Link]
    ) -> tuple[list[_Round], set[_FlowClass], list[float]]:
        """Replay with bounded insertion of undercutting affected links.

        Affected links live in a lazy min-heap keyed by their current
        fair share; entries carry the (count, consumed) state they were
        computed from and are discarded when the link has moved on, so
        each cached round costs O(1) amortized instead of O(|affected|).
        An entry below the round's share triggers an insertion; the
        links its frozen classes touch join the affected set (their
        residuals changed) with their own heap entries.  A cached round
        whose bottleneck is affected is skipped when insertions already
        froze its whole membership, and breaks the prefix otherwise (its
        share rose — only a drop is provably the next bottleneck).

        Returns the prefix, the classes it froze, and the capacity each
        link id consumed, summed flow by flow in round order.
        """
        capacity = self.capacity
        load = self._load
        size = len(load)
        # Unfrozen flows per *affected* link (``None``: not affected).
        counts: list[Optional[int]] = [None] * size
        consumed = [0.0] * size
        # Frozen-flow tallies per link (all links, not just affected) so a
        # link entering the affected set mid-replay can derive its current
        # unfrozen count without scanning its membership.
        frozen_on = [0] * size
        frozen: set[_FlowClass] = set()
        prefix: list[_Round] = []
        for link in affected:
            counts[link] = load[link]
        # Lazy share heap over the affected links: (share, tie key, count,
        # consumed, link); an entry is valid iff its state matches the
        # link's.  The tie key orders every ingress before every egress,
        # each by node id.
        heap = [
            (capacity / count, (link & 1) << 40 | link >> 1, count, 0.0, link)
            for link in affected
            if (count := load[link])
        ]
        heapq.heapify(heap)
        for entry in self._warm.rounds:
            bottleneck, share, round_classes = entry
            threshold = share * (1.0 - _WARM_RTOL)
            while True:
                # The minimum-share affected link, if it undercuts this
                # round; lazily discard entries whose link moved on.
                while heap and heap[0][0] < threshold:
                    _, _, count, used, link = heap[0]
                    if counts[link] == count and consumed[link] == used:
                        break
                    heapq.heappop(heap)  # stale
                if heap and heap[0][0] < threshold:
                    # Insert the undercutting link as the next round: its
                    # fair share is below this round's share, every
                    # unaffected unfrozen link sits at or above the round's
                    # share, and affected links sit at or above it by heap
                    # minimality — so freezing its unfrozen classes at its
                    # fair share is exactly what the full solve would do
                    # next.  The links they touch join the affected set.
                    at, _, _, _, shared = heapq.heappop(heap)
                    classes = [
                        cls
                        for cls in self._link_classes[shared]
                        if cls not in frozen
                    ]
                    if not classes:  # pragma: no cover - count drift guard
                        counts[shared] = 0
                        continue
                    join = True
                elif counts[bottleneck] is None:
                    # Accept the round.  Every class it froze is still live
                    # and unchanged: a changed class's links are both
                    # affected, so the round that froze it ends or skips
                    # here; a class frozen by an inserted round crosses
                    # only affected links, whose later rounds do the same.
                    shared, at, classes = bottleneck, share, round_classes
                    join = False
                elif counts[bottleneck]:
                    # The bottleneck's fair share did not strictly drop (no
                    # undercut): for removals it *rose*, so the cached share
                    # and frozen-class set are stale and unaffected links
                    # may saturate first — end the prefix.
                    return prefix, frozen, consumed
                else:
                    # Insertions (or removals) left this round's bottleneck
                    # nothing to freeze — skip it.
                    break
                # Freeze: classes on one link differ in their other end, so
                # each link is tallied and pushed once.  k flows add their
                # share one by one, never k times it at once — the float
                # path of the per-flow sum.
                tallies = []
                flows = 0
                for cls in classes:
                    frozen.add(cls)
                    k = len(cls.flows)
                    flows += k
                    tallies.append((cls.into if shared & 1 else cls.out, k))
                tallies.append((shared, flows))
                for link, k in tallies:
                    used = consumed[link]
                    for _ in range(k):
                        used += at
                    consumed[link] = used
                    count = counts[link]
                    if count is None and join:
                        # Its residual changed: it joins the affected set
                        # at its current unfrozen count.
                        count = load[link] - frozen_on[link]
                    frozen_on[link] += k
                    if count is not None:
                        count = counts[link] = count - k
                        if count:
                            fair = (capacity - used) / count
                            tie = (link & 1) << 40 | link >> 1
                            heapq.heappush(heap, (fair, tie, count, used, link))
                if not join:
                    prefix.append(entry)
                    break
                assign_scaled([(cls.flows, at) for cls in classes])
                prefix.append((shared, at, tuple(classes)))
                self.stats.warm_inserts += 1
                self.stats.rates_computed += flows
                # Re-check this same cached round against the grown
                # affected set before deciding its fate.
        return prefix, frozen, consumed

    # ------------------------------------------------------------- allocator
    def _full(self, tasks: Collection[FluidTask]) -> None:
        """Rebuild the class index and solve everything from scratch.

        The full path must not depend on incremental bookkeeping being in
        sync (verify mode and fallbacks run it mid-stream); it refreshes
        the warm-start cache as a side effect.  O(n + (C + L) · log L).
        """
        self._reset_index()
        for task in tasks:
            self._register(task)
        self._solve_all()

    def _update(
        self,
        tasks: Collection[FluidTask],
        added: Sequence[FluidTask],
        removed: Sequence[FluidTask],
    ) -> None:
        """Dirty-set update: component re-solve, warm start, or fallback.

        Dirty set = the connected component of the changed flows.  Below
        the cascade threshold the component is re-solved at full capacity
        (exact, because components are closed under water-filling) and the
        warm cache — a whole-pool saturation order — is *repaired in
        place*: the dirty component's rounds are replaced by the new
        component solve's rounds, share-merged into the untouched rest
        (``stats.warm_merges``).  At or past the threshold the
        warm-started re-solve is attempted first; only when its prefix
        check fails does the allocator pay the full solve, counted in
        ``stats.full_fallbacks``.
        """
        # Ordered dedup (not a set): the seeds' order is the walk's.
        seeds: dict[Link, None] = {}
        for task in removed:
            cls = self._unregister(task)
            seeds[cls.out] = seeds[cls.into] = None
        for task in added:
            cls = self._register(task)
            seeds[cls.out] = seeds[cls.into] = None
        if not tasks:
            # The cached saturation order references flows that are gone;
            # nothing valid can be replayed from it.
            self._warm = None
            return
        seed_links = list(seeds)
        dirty = self._component(
            seed_links, self.cascade_threshold * len(tasks)
        )
        warm = self._warm
        fresh = warm is not None and warm.capacity == self.capacity
        if dirty is None:
            # The cascade reaches most of the pool; the restricted solve
            # would cost as much as the full one.  Replay the previous
            # solve's saturation prefix when one is cached and valid.
            if fresh and self._warm_solve(seed_links):
                return
            self.stats.full_fallbacks += 1
            self.stats.rates_computed += len(tasks)
            self._solve_all()
            return
        # Component-restricted re-solve.  The cached whole-pool saturation
        # order is *not* invalidated wholesale: components are closed under
        # water-filling (disjoint links), so every cached round outside the
        # dirty component replays identically in a fresh whole-pool solve.
        # Dropping only the dirty component's rounds and merging the
        # component's new saturation order back in (by share, keeping the
        # order nondecreasing) leaves a valid whole-pool order for the next
        # warm start — counted in ``stats.warm_merges``.
        self.stats.rates_computed += sum([len(cls.flows) for cls in dirty])
        new_rounds = self._fill(dirty)
        if fresh:
            # The walk stamped the component's links — every link of a
            # dirty class plus the seeds (covering removed flows).  A
            # round's frozen classes all cross its bottleneck, so a round
            # references a dirty (or removed) flow iff its bottleneck lies
            # in the component.
            mark, stamp = self._mark, self._walks
            kept = [entry for entry in warm.rounds if mark[entry[0]] != stamp]
            self._warm = _WarmSolution(
                self.capacity, _merge_saturation_orders(kept, new_rounds)
            )
            self.stats.warm_merges += 1
        else:
            self._warm = None
