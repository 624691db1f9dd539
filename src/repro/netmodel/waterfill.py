"""Bottleneck-search water-filling core for star-topology max-min fairness.

This module is the shared solver underneath
:class:`repro.netmodel.base.LinkComponentAllocator` and
:func:`repro.netmodel.maxmin.maxmin_rates`.  It lives in its own module so
the allocator base (``netmodel/base.py``) and the model front-ends
(``netmodel/maxmin.py``, ``netmodel/packet.py``) can both import it without
a cycle.

Links are integer ids (:func:`flow_links`), and the solver works per
*flow class*: all flows of one (source, destination) pair, given as
``(egress id, ingress id, count)``.  They cross the same two links, so
they always freeze in the same round at the same share.

The classic water-filling loop re-scans every link (and every flow on it)
per saturation round — O(rounds · L · F/L) = O(F · rounds) total.
:func:`maxmin_solve` instead keeps per-link residual capacity and
unfrozen-flow counts in a lazy min-heap keyed by the link's current fair
share, so each saturation round costs O(links touched · log L):

* every link holds one *live* heap entry (identified by the link's
  unfrozen-flow count, which strictly falls on every touch);
* freezing a round's classes updates the residual/count of each touched
  link and pushes one fresh entry per touched link (the superseded entry
  is discarded lazily when it surfaces at the top);
* each class freezes exactly once and touches exactly two links, so the
  whole solve costs O(F + (C + L) · log L) for F flows in C classes.

Besides the rates, the solver returns the *saturation order* — the
sequence of ``(link, share, frozen classes)`` rounds — which is exactly the
state the warm-started re-solver in
:class:`repro.netmodel.base.LinkComponentAllocator` caches and replays
(see ``docs/performance.md``).

Bit-exactness with the per-flow solve: a class of ``k`` flows subtracts
(and, in the capacity check, adds) its share ``k`` times in sequence,
never ``k · share`` once; and heap ties break on link first-appearance
order, which a caller listing classes by their earliest flow shares with
the per-flow list.  No hash iteration order reaches any float
accumulation, so rates are bit-identical under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import SimulationError

#: A star-topology link: ``2 * node`` (ingress) or ``2 * node + 1`` (egress).
Link = int

#: One flow class: egress link, ingress link, number of flows.
FlowClass = tuple[Link, Link, int]

#: One saturation round: the bottleneck link, the fair share it froze at,
#: and the indices of the classes frozen in that round (input order).
SaturationRound = tuple[Link, float, tuple[int, ...]]

#: Slack of the "no link over capacity" invariant: relative rounding of
#: the summed rates, plus an absolute term for near-zero capacities.
CAPACITY_RTOL = 1e-9
CAPACITY_ATOL = 1e-12


def flow_links(src: int, dst: int) -> tuple[Link, Link]:
    """The (egress, ingress) link ids a ``src -> dst`` flow crosses."""
    return 2 * src + 1, 2 * dst


@dataclass(frozen=True)
class MaxMinSolution:
    """Result of one water-filling solve.

    ``rounds`` lists the bottleneck events in saturation (non-decreasing
    share) order; replaying them on identical residual state reproduces
    ``rates`` exactly, which is what the warm-started re-solver relies on.
    """

    #: the max-min fair rate of each class's flows, in input order
    rates: list[float]
    #: saturation order: ``(link, share, frozen class indices)`` per round
    rounds: list[SaturationRound]


def maxmin_solve(
    classes: Sequence[FlowClass],
    capacity: float,
    residual: Optional[Sequence[float]] = None,
) -> MaxMinSolution:
    """Max-min fair rates on a star topology by bottleneck search.

    Parameters
    ----------
    classes:
        ``(egress id, ingress id, count)`` per flow class, as
        :func:`flow_links` numbers the links; each link has ``capacity``
        bytes/s.
    capacity:
        Full-duplex link capacity in bytes/s.
    residual:
        Optional starting capacities indexed by link id, overriding
        ``capacity`` — the warm-started re-solver passes the capacities
        left over after re-freezing a valid saturation prefix.

    Complexity: O(F + (C + L) · log L) for F flows in C classes over L
    distinct links — each class freezes exactly once, each freeze touches
    its one other link, and each touch costs one heap push (stale entries
    are skipped lazily: a link's unfrozen count strictly falls on every
    touch, so an entry is live iff it carries the current count).
    """
    n = len(classes)
    rates = [0.0] * n
    rounds: list[SaturationRound] = []
    if n == 0:
        return MaxMinSolution(rates, rounds)
    # Links get dense slots in first-appearance order (egress before
    # ingress within a class); the slot doubles as the deterministic heap
    # tie-breaker.  A slot's members are its classes (ascending index),
    # each with the slot of its other link.
    slot_of: dict[Link, int] = {}
    members: list[list[tuple[int, int]]] = []
    left: list[int] = []
    for i, (out, into, count) in enumerate(classes):
        a = slot_of.get(out)
        if a is None:
            a = slot_of[out] = len(members)
            members.append([])
            left.append(0)
        b = slot_of.get(into)
        if b is None:
            b = slot_of[into] = len(members)
            members.append([])
            left.append(0)
        members[a].append((i, b))
        members[b].append((i, a))
        left[a] += count
        left[b] += count
    links = list(slot_of)
    if residual is None:
        initial = [capacity] * len(links)
    else:
        initial = [residual[link] for link in links]
    cap = initial.copy()
    # Capacity used per slot, summed flow by flow as classes freeze.
    used = [0.0] * len(links)
    heap = [(cap[k] / count, k, count) for k, count in enumerate(left)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    frozen_flag = [False] * n
    while heap:
        share, k, count = pop(heap)
        if left[k] != count:
            continue  # superseded by a fresher entry, or fully frozen
        left[k] = 0
        share = share if share > 0.0 else 0.0
        frozen = []
        here = used[k]
        # The bottleneck's own residual is never read again; only each
        # class's other link moves.  Classes on one link differ in their
        # other end, so every other link is touched once per round.
        for i, other in members[k]:
            if frozen_flag[i]:
                continue
            frozen_flag[i] = True
            frozen.append(i)
            rates[i] = share
            flows = classes[i][2]
            # One subtraction (and addition) per flow.  Clamp: repeated
            # subtraction can drift a hair below zero under float error,
            # and a negative residual would later surface as a negative
            # fair share — an invalid rate.
            rest = cap[other]
            there = used[other]
            for _ in range(flows):
                rest -= share
                there += share
                here += share
            cap[other] = rest if rest > 0.0 else 0.0
            used[other] = there
            count = left[other] = left[other] - flows
            if count:
                push(heap, (cap[other] / count, other, count))
        used[k] = here
        rounds.append((links[k], share, tuple(frozen)))
    # Invariant: no link carries more than its starting capacity (modulo
    # rounding).
    for k, limit in enumerate(initial):
        if used[k] > limit * (1.0 + CAPACITY_RTOL) + CAPACITY_ATOL:
            raise SimulationError(
                f"max-min allocation over capacity on link {links[k]!r}: "
                f"{used[k]!r} > {limit!r}"
            )
    return MaxMinSolution(rates, rounds)
