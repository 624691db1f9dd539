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
* :class:`LinkComponentAllocator` — a link → flows index plus BFS over
  connected components of the bipartite flow/link graph, with a
  warm-started re-solve for cascades that swallow the pool (max-min
  water-filling, the packet-level testbed model).

Concrete models subclass one of these and implement only the rate law.
The dirty-set contract lives in ``docs/allocator_protocol.md`` (including
the warm-start invariants); the complexity story in
``docs/performance.md``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from abc import ABC
from typing import Any, Callable, Collection, Optional, Sequence

from repro.des.fluid import FluidTask, HorizonStats, RateAllocator
from repro.des.kernel import Kernel
from repro.errors import SimulationError
from repro.netmodel.params import NetworkParams
from repro.netmodel.waterfill import (
    Link,
    MaxMinSolution,
    flow_links,
    maxmin_solve,
)
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


class _WarmSolution:
    """Cached saturation order of the last whole-pool water-filling solve.

    ``rounds`` mirrors :class:`repro.netmodel.waterfill.MaxMinSolution`
    rounds but references the live :class:`FluidTask` objects instead of
    flow indices, so a later update can replay it against the current
    membership.  ``capacity`` pins the link capacity the solve ran under —
    a capacity edit invalidates the cache.
    """

    __slots__ = ("capacity", "rounds")

    def __init__(
        self,
        capacity: float,
        rounds: list[tuple[Link, float, tuple[FluidTask, ...]]],
    ) -> None:
        self.capacity = capacity
        self.rounds = rounds


def _merge_saturation_orders(
    a: list[tuple[Link, float, tuple[FluidTask, ...]]],
    b: list[tuple[Link, float, tuple[FluidTask, ...]]],
) -> list[tuple[Link, float, tuple[FluidTask, ...]]]:
    """Merge two disjoint-component saturation orders by share.

    Both inputs are nondecreasing in share; for link-disjoint components a
    global water-filling solve processes exactly these rounds interleaved
    by share value, so the stable merge is itself a valid whole-pool
    saturation order (ties may order differently than a fresh solve, which
    is fine — the max-min fixed point is unique).
    """
    merged: list[tuple[Link, float, tuple[FluidTask, ...]]] = []
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
    """Link → flows index with BFS over connected components + warm start.

    For sharing laws where bandwidth unused by flows bottlenecked elsewhere
    is redistributed (max-min water-filling and its derivatives), a
    membership change cascades transitively through chained bottlenecks —
    but never past the connected component of the bipartite flow/link graph
    containing the changed flows.  This base maintains the link index (and
    each flow's link pair, built once at registration), finds the affected
    component by BFS — O(component), or O(threshold) when it stops at the
    cascade threshold — and re-solves only that component.

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
    ``stats.full_fallbacks``.

    Subclasses provide the flow geometry via :meth:`_flow` and the rate
    application via :meth:`_apply_rate` (e.g. the packet model multiplies
    in its per-transfer throughput factor).  The water-filling solve itself
    is :func:`repro.netmodel.waterfill.maxmin_solve`.
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
        # Insertion-ordered (dict-as-set): set iteration over id-hashed
        # tasks or str-hashed links would vary between process runs and
        # leak float nondeterminism into the solve order.
        self._link_tasks: dict[Link, dict[FluidTask, None]] = {}
        # Each registered flow's (egress, ingress) link pair, derived from
        # :meth:`_flow` once at registration: a flow's links cannot change
        # under the cached saturation order, and no hot loop re-derives
        # them.  Holds exactly the registered flows.
        self._task_links: dict[FluidTask, tuple[Link, Link]] = {}
        self._warm: Optional[_WarmSolution] = None

    # ---------------------------------------------------------------- hooks
    def _flow(self, task: FluidTask) -> tuple[int, int]:
        """(source, destination) node ids of ``task``; read once, when the
        task registers."""
        transfer = task.tag
        return transfer.src, transfer.dst

    def _apply_rate(self, task: FluidTask, rate: float) -> None:
        """Apply a fair ``rate`` to ``task`` (subclass hook).

        The warm-start machinery reasons about *fair* rates; subclasses
        layering a per-task factor on top (e.g. the packet model's seeded
        throughput factor) override this to fold the factor in — which
        stays warm-start-exact because the factor is per-task constant.
        """
        task.rate = rate

    def _solve(self, tasks: Sequence[FluidTask]) -> Optional[MaxMinSolution]:
        """Water-fill ``tasks`` (a component, or everything) at full capacity.

        Returns the :class:`~repro.netmodel.waterfill.MaxMinSolution` so
        whole-pool solves can cache the saturation order for warm starts.
        Overriding this with a non-water-filling law is allowed but should
        return ``None`` (disabling warm starts) unless the override
        produces a valid saturation order.
        """
        task_links = self._task_links
        solution = maxmin_solve([task_links[t] for t in tasks], self.capacity)
        for task, rate in zip(tasks, solution.rates):
            self._apply_rate(task, rate)
        return solution

    # -------------------------------------------------------------- helpers
    def _register(self, task: FluidTask) -> tuple[Link, Link]:
        """Index ``task`` under its two links; returns the cached pair."""
        pair = self._task_links[task] = flow_links(*self._flow(task))
        for link in pair:
            self._link_tasks.setdefault(link, {})[task] = None
        return pair

    def _unregister(self, task: FluidTask) -> tuple[Link, Link]:
        """Drop ``task`` from the index; returns the pair it was under."""
        pair = self._task_links.pop(task)
        for link in pair:
            members = self._link_tasks[link]
            del members[task]
            if not members:
                del self._link_tasks[link]
        return pair

    def _component(
        self, seed_links: Sequence[Link], limit: float = math.inf
    ) -> Optional[list[FluidTask]]:
        """Flows reachable from ``seed_links`` in the flow/link graph.

        O(min(component, limit)) — the BFS never leaves the connected
        component containing the seeds, and returns ``None`` as soon as
        the component holds more than ``limit`` flows (a cascade past the
        threshold reads only that fact, never the flows).
        """
        link_tasks = self._link_tasks
        task_links = self._task_links
        dirty: dict[FluidTask, None] = {}
        frontier = [link for link in seed_links if link in link_tasks]
        seen_links = set(seed_links)
        while frontier:
            for task in link_tasks[frontier.pop()]:
                if task in dirty:
                    continue
                dirty[task] = None
                for other in task_links[task]:
                    if other not in seen_links:
                        seen_links.add(other)
                        frontier.append(other)
            if len(dirty) > limit:
                return None
        return list(dirty)

    def _solve_all(self, tasks: list[FluidTask]) -> None:
        """Whole-pool solve; caches the saturation order for warm starts."""
        solution = self._solve(tasks)
        if solution is not None:
            self._warm = _WarmSolution(
                self.capacity,
                [
                    (link, share, tuple(tasks[i] for i in indices))
                    for link, share, indices in solution.rounds
                ],
            )
        else:
            self._warm = None

    def _warm_solve(
        self, tasks: Collection[FluidTask], affected: list[Link]
    ) -> bool:
        """Re-solve after a cascade by replaying the cached saturation order.

        The delta (added/removed flows) directly perturbs only the links in
        ``affected``; every other link's residual capacity and unfrozen-flow
        count replay identically until the first round whose bottleneck is
        an affected link or whose share an affected link undercuts.  The
        prefix of rounds before that point re-freezes byte-identically (the
        frozen tasks keep their rates — no reassignment, no horizon-heap
        work), and only the remaining flows are re-solved against the
        prefix's residual capacities.

        Returns ``True`` on success (rates assigned, cache refreshed);
        ``False`` when no usable prefix exists — the caller then performs
        the accounted full fallback.  Cost: O(prefix flows + rounds ·
        |affected|) for the replay plus a suffix-sized bottleneck search.

        An undercut does not end the prefix: the undercutting link *is*
        the true next bottleneck (its fair share is below the round's
        share, every unaffected link's share is at or above it, and it is
        the minimum among the affected links), so a new round freezing
        its unfrozen flows at that share is inserted into the order and
        the replay continues.  The links of the just-frozen flows join
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
        suffix = [task for task in tasks if task not in frozen]
        self.stats.warm_starts += 1
        self.stats.rates_computed += len(suffix)
        suffix_rounds: list[tuple[Link, float, tuple[FluidTask, ...]]] = []
        if suffix:
            residual = {
                link: max(0.0, self.capacity - used)
                for link, used in consumed.items()
            }
            task_links = self._task_links
            solution = maxmin_solve(
                [task_links[t] for t in suffix], self.capacity, residual=residual
            )
            for task, rate in zip(suffix, solution.rates):
                self._apply_rate(task, rate)
            suffix_rounds = [
                (link, share, tuple(suffix[i] for i in indices))
                for link, share, indices in solution.rounds
            ]
        # Prefix shares are <= every suffix share (the suffix starts at the
        # break point's residual state), so the concatenation is itself a
        # valid saturation order for the current membership — reusable by
        # the next warm start.
        self._warm = _WarmSolution(self.capacity, prefix + suffix_rounds)
        return True

    def _replay_insert(
        self, affected: list[Link]
    ) -> tuple[
        list[tuple[Link, float, tuple[FluidTask, ...]]],
        dict[FluidTask, None],
        dict[Link, float],
    ]:
        """Replay with bounded insertion of undercutting affected links.

        Affected links live in a lazy min-heap keyed by their current
        fair share; entries carry the (count, consumed) state they were
        computed from and are discarded when the link has moved on, so
        each cached round costs O(1) amortized instead of O(|affected|).
        An entry below the round's share triggers an insertion; the
        links its frozen flows touch join the affected set (their
        residuals changed) with their own heap entries.  A cached round
        whose bottleneck is affected is skipped when insertions already
        froze its whole membership, and breaks the prefix otherwise (its
        share rose — only a drop is provably the next bottleneck).
        """
        warm = self._warm
        capacity = self.capacity
        task_links = self._task_links
        affected_set = set(affected)
        counts = {
            link: len(self._link_tasks.get(link, ())) for link in affected
        }
        consumed: dict[Link, float] = {}
        # Frozen-flow tallies per link (all links, not just affected) so a
        # link entering the affected set mid-replay can derive its current
        # unfrozen count without scanning its membership.
        frozen_on: dict[Link, int] = {}
        frozen: dict[FluidTask, None] = {}
        prefix: list[tuple[Link, float, tuple[FluidTask, ...]]] = []
        # Lazy share heap over the affected links: (share, link, count,
        # consumed); an entry is valid iff its state matches the link's.
        heap: list[tuple[float, Link, int, float]] = []

        def push(link: Link) -> None:
            count = counts[link]
            if count > 0:
                used = consumed.get(link, 0.0)
                heapq.heappush(heap, ((capacity - used) / count, link, count, used))

        for link in counts:
            push(link)
        broke = False
        for entry in warm.rounds:
            bottleneck, share, round_tasks = entry
            threshold = share * (1.0 - _WARM_RTOL)
            accept = True
            while True:
                # The minimum-share affected link, if it undercuts this
                # round; lazily discard entries whose link moved on.
                insert_link: Optional[Link] = None
                insert_share = 0.0
                while heap and heap[0][0] < threshold:
                    s_top, link, count, used = heap[0]
                    if counts[link] != count or consumed.get(link, 0.0) != used:
                        heapq.heappop(heap)  # stale
                        continue
                    insert_link, insert_share = link, s_top
                    break
                if insert_link is None:
                    if bottleneck in affected_set:
                        if counts[bottleneck] == 0:
                            # Every member of this round's bottleneck is
                            # already frozen (by inserted rounds) or
                            # removed; the round would freeze nothing —
                            # skip it.
                            accept = False
                            break
                        # The bottleneck's fair share did not strictly
                        # drop (no undercut): for removals it *rose*, so
                        # the cached share and frozen-flow set are stale
                        # and unfrozen unaffected links may saturate
                        # first — end the prefix.
                        broke = True
                        break
                    break
                # Insert the undercutting link as the next round: its fair
                # share is below this round's share, every unaffected
                # unfrozen link sits at or above the round's share, and
                # affected links sit at or above it by heap minimality —
                # so freezing its unfrozen flows at its fair share is
                # exactly what the full solve would do next.
                heapq.heappop(heap)
                members = [
                    task
                    for task in self._link_tasks.get(insert_link, ())
                    if task not in frozen
                ]
                if not members:  # pragma: no cover - count drift guard
                    counts[insert_link] = 0
                    continue
                touched: dict[Link, None] = {}
                for task in members:
                    frozen[task] = None
                    self._apply_rate(task, insert_share)
                    for link in task_links[task]:
                        consumed[link] = consumed.get(link, 0.0) + insert_share
                        if link not in counts:
                            # The link's residual changed: it joins the
                            # affected set at its current unfrozen count.
                            counts[link] = len(
                                self._link_tasks.get(link, ())
                            ) - frozen_on.get(link, 0)
                            affected_set.add(link)
                        counts[link] -= 1
                        frozen_on[link] = frozen_on.get(link, 0) + 1
                        touched[link] = None
                for link in touched:
                    push(link)
                prefix.append((insert_link, insert_share, tuple(members)))
                self.stats.warm_inserts += 1
                self.stats.rates_computed += len(members)
                # Re-check this same cached round against the grown
                # affected set before deciding its fate.
            if broke:
                break
            if not accept:
                continue
            # Accept the round.  Every frozen task is still present and
            # unfrozen: a removed task's links are both affected, so the
            # round that froze it broke above; a task frozen by an
            # inserted round crosses only links in the affected set,
            # whose later cached rounds are skipped or break.
            touched_counts: dict[Link, None] = {}
            for task in round_tasks:
                frozen[task] = None
                for link in task_links[task]:
                    consumed[link] = consumed.get(link, 0.0) + share
                    if link in counts:
                        counts[link] -= 1
                        touched_counts[link] = None
                    frozen_on[link] = frozen_on.get(link, 0) + 1
            for link in touched_counts:
                push(link)
            prefix.append(entry)
        return prefix, frozen, consumed

    # ------------------------------------------------------------- allocator
    def _full(self, tasks: Collection[FluidTask]) -> None:
        """Rebuild the link index and solve everything from scratch.

        The full path must not depend on incremental bookkeeping being in
        sync (verify mode and fallbacks run it mid-stream); it refreshes
        the warm-start cache as a side effect.  O((n + L) · log L).
        """
        self._link_tasks = {}
        self._task_links = {}
        for task in tasks:
            self._register(task)
        self._solve_all(list(tasks))

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
        # Ordered dedup (not a set) for the determinism reason above.
        seed_links: dict[Link, None] = {}
        for task in removed:
            for link in self._unregister(task):
                seed_links[link] = None
        for task in added:
            for link in self._register(task):
                seed_links[link] = None
        if not tasks:
            # The cached saturation order references flows that are gone;
            # nothing valid can be replayed from it.
            self._warm = None
            return
        dirty = self._component(
            list(seed_links), self.cascade_threshold * len(tasks)
        )
        if dirty is None:
            # The cascade reaches most of the pool; the restricted solve
            # would cost as much as the full one.  Replay the previous
            # solve's saturation prefix when one is cached and valid.
            if (
                self._warm is not None
                and self._warm.capacity == self.capacity
                and self._warm_solve(tasks, list(seed_links))
            ):
                return
            self.stats.full_fallbacks += 1
            self.stats.rates_computed += len(tasks)
            self._solve_all(list(tasks))
            return
        # Component-restricted re-solve.  The cached whole-pool saturation
        # order is *not* invalidated wholesale: components are closed under
        # water-filling (disjoint links), so every cached round outside the
        # dirty component replays identically in a fresh whole-pool solve.
        # Dropping only the dirty component's rounds and merging the
        # component's new saturation order back in (by share, keeping the
        # order nondecreasing) leaves a valid whole-pool order for the next
        # warm start — counted in ``stats.warm_merges``.
        self.stats.rates_computed += len(dirty)
        solution = self._solve(dirty)
        if (
            self._warm is not None
            and self._warm.capacity == self.capacity
            and solution is not None
        ):
            # The dirty component's links: every link of a dirty task plus
            # the seeds (covers removed tasks, whose links seeded the BFS).
            comp_links = set(seed_links)
            for task in dirty:
                comp_links.update(self._task_links[task])
            # A round's frozen flows all use its bottleneck link, so a
            # round references a dirty (or removed) task iff its
            # bottleneck lies in the component's link set.
            kept = [
                entry
                for entry in self._warm.rounds
                if entry[0] not in comp_links
            ]
            new_rounds = [
                (link, share, tuple(dirty[i] for i in indices))
                for link, share, indices in solution.rounds
            ]
            self._warm = _WarmSolution(
                self.capacity, _merge_saturation_orders(kept, new_rounds)
            )
            self.stats.warm_merges += 1
        else:
            self._warm = None
