"""Bottleneck-search water-filling core for star-topology max-min fairness.

This module is the shared solver underneath
:class:`repro.netmodel.base.LinkComponentAllocator` and
:func:`repro.netmodel.maxmin.maxmin_rates`.  It lives in its own module so
the allocator base (``netmodel/base.py``) and the model front-ends
(``netmodel/maxmin.py``, ``netmodel/packet.py``) can both import it without
a cycle.

The classic water-filling loop re-scans every link (and every flow on it)
per saturation round — O(rounds · L · F/L) = O(F · rounds) total.
:func:`maxmin_solve` instead keeps per-link residual capacity and
unfrozen-flow counts in a lazy min-heap keyed by the link's current fair
share, so each saturation round costs O(links touched · log L):

* every link holds one *live* heap entry (identified by the link's
  unfrozen-flow count, which strictly falls on every touch);
* freezing a round's flows updates the residual/count of each touched
  link and pushes one fresh entry per touched link (the superseded entry
  is discarded lazily when it surfaces at the top);
* each flow freezes exactly once and touches exactly two links, so the
  whole solve costs O((F + L) · log L).

Besides the rates, the solver returns the *saturation order* — the
sequence of ``(link, share, frozen flows)`` rounds — which is exactly the
state the warm-started re-solver in
:class:`repro.netmodel.base.LinkComponentAllocator` caches and replays
(see ``docs/performance.md``).

Determinism: heap ties break on link registration order (first registered
wins), reproducing the tie-break of the historical scan-based loop, and no
id- or str-hash iteration order reaches any float accumulation — the same
workload produces bit-identical rates under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import SimulationError

#: A link of the star topology: egress ("out") or ingress ("in") of a node.
Link = tuple[str, int]

#: One saturation round: the bottleneck link, the fair share it froze at,
#: and the indices of the flows frozen in that round (input order).
SaturationRound = tuple[Link, float, tuple[int, ...]]

#: Slack of the "no link over capacity" invariant: relative rounding of
#: the summed rates, plus an absolute term for near-zero capacities.
CAPACITY_RTOL = 1e-9
CAPACITY_ATOL = 1e-12


def flow_links(src: int, dst: int) -> tuple[Link, Link]:
    """The two star-topology links a ``src -> dst`` flow crosses."""
    return ("out", src), ("in", dst)


@dataclass(frozen=True)
class MaxMinSolution:
    """Result of one water-filling solve.

    ``rounds`` lists the bottleneck events in saturation (non-decreasing
    share) order; replaying them on identical residual state reproduces
    ``rates`` exactly, which is what the warm-started re-solver relies on.
    """

    #: per-flow max-min fair rates, in input order
    rates: list[float]
    #: saturation order: ``(link, share, frozen flow indices)`` per round
    rounds: list[SaturationRound]


def maxmin_solve(
    flows: Sequence[tuple[Link, Link]],
    capacity: float,
    residual: Mapping[Link, float] | None = None,
) -> MaxMinSolution:
    """Max-min fair rates on a star topology by bottleneck search.

    Parameters
    ----------
    flows:
        Each flow's two links, as :func:`flow_links` builds them (callers
        that keep flows alive cache the pair instead of re-deriving it
        per solve); each link has ``capacity`` bytes/s.
    capacity:
        Full-duplex link capacity in bytes/s.
    residual:
        Optional per-link starting capacities overriding ``capacity`` —
        the warm-started re-solver passes the capacities left over after
        re-freezing a valid saturation prefix.  Links absent from the
        mapping start at ``capacity``.

    Complexity: O((F + L) · log L) for F flows over L distinct links —
    each flow freezes exactly once, each freeze touches its one other
    link, and each touch costs one heap push (stale entries are skipped
    lazily: a link's unfrozen count strictly falls on every touch, so an
    entry is live iff it carries the current count).
    """
    n = len(flows)
    rates = [0.0] * n
    rounds: list[SaturationRound] = []
    if n == 0:
        return MaxMinSolution(rates, rounds)
    # Insertion-ordered link registry (dict): registration order doubles
    # as the deterministic heap tie-breaker, matching the
    # first-registered-wins tie-break of the historical scan loop.  Member
    # lists stay whole (ascending flow index) for the capacity check.
    members: dict[Link, list[int]] = {}
    for i, pair in enumerate(flows):
        for link in pair:
            group = members.get(link)
            if group is None:
                members[link] = [i]
            else:
                group.append(i)
    if residual is None:
        cap = dict.fromkeys(members, capacity)
    else:
        cap = {link: residual.get(link, capacity) for link in members}
    initial_cap = cap.copy()
    order: dict[Link, int] = {}
    left: dict[Link, int] = {}
    heap: list[tuple[float, int, int, Link]] = []
    for k, (link, group) in enumerate(members.items()):
        order[link] = k
        left[link] = count = len(group)
        heap.append((cap[link] / count, k, count, link))
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    frozen_flag = [False] * n
    while heap:
        share, _, count, link = pop(heap)
        if left[link] != count:
            continue  # superseded by a fresher entry, or fully frozen
        left[link] = 0
        share = max(0.0, share)
        frozen = tuple([i for i in members[link] if not frozen_flag[i]])
        touched: dict[Link, None] = {}
        for i in frozen:
            rates[i] = share
            frozen_flag[i] = True
            # The bottleneck's own residual is never read again; only the
            # flow's other link moves.
            a, b = flows[i]
            other = b if a == link else a
            left[other] -= 1
            # Clamp: repeated subtraction can drift a hair below zero
            # under float error, and a negative residual would later
            # surface as a negative fair share — an invalid rate.
            rest = cap[other] - share
            cap[other] = rest if rest > 0.0 else 0.0
            touched[other] = None
        rounds.append((link, share, frozen))
        for other in touched:
            count = left[other]
            if count:
                push(heap, (cap[other] / count, order[other], count, other))
    # Invariant: no link carries more than its starting capacity (modulo
    # rounding).  O(F) — one pass over the flow/link incidences, summed
    # in flow order.
    for link, group in members.items():
        load = 0.0
        for i in group:
            load += rates[i]
        limit = initial_cap[link]
        if load > limit * (1.0 + CAPACITY_RTOL) + CAPACITY_ATOL:
            raise SimulationError(
                f"max-min allocation over capacity on link {link!r}: "
                f"{load!r} > {limit!r}"
            )
    return MaxMinSolution(rates, rounds)
