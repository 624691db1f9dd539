"""Conservative epoch synchronization over shard-local kernels.

Partitioned (sharded) simulation of one scenario runs K independent
:class:`~repro.des.kernel.Kernel` instances and advances them in lockstep
*epochs*.  The scheme is classic conservative parallel DES specialized to
fluid models:

* between two global decision points every shard's rates are
  piecewise-constant, so each shard can name the earliest time it may
  produce something the barrier must act on — its *completion bound*;
  events before it are shard-local and run inside the epoch;
* the controller therefore computes the epoch bound as the minimum
  completion bound across shards, advances every shard with
  ``kernel.run(until=bound)`` (shards without a due event just move their
  clock), and invokes a barrier callback that replays the scenario's
  global decisions (e.g. the cluster scheduler's reallocation) before the
  next epoch begins.

A shard is anything with ``next_completion_bound()`` (a lower bound on
the time of its next barrier-relevant result, or ``None`` when it has
none — it must reflect every update the barrier callback applied) and
``run_until(bound)`` (advance to the bound, return the shard's report for
the epoch, which the controller hands to the barrier callback unread).
Shards run on the calling thread, one after another: an epoch carries
about three events on the cluster server's stream, too little to
overlap (``docs/sharding.md`` has the measurement).

The cluster-server binding of this machinery (job shards, scheduler
replay, the determinism contract) lives in
:mod:`repro.clusterserver.sharded` and is documented in
``docs/sharding.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence


@dataclass
class EpochStats:
    """Work counters of one epoch-controller run."""

    #: epochs executed (== barriers reached)
    epochs: int = 0
    #: wall seconds spent advancing shards to their epoch bounds
    barrier_wait_s: float = 0.0

    def reset(self) -> None:
        self.epochs = 0
        self.barrier_wait_s = 0.0


class EpochController:
    """Advance a set of shards epoch-by-epoch until no completion remains.

    ``on_barrier(bound, reports)`` runs after every epoch with the epoch
    bound (the global minimum completion bound, now every shard's clock)
    and the per-shard reports in shard order.  It applies the scenario's
    global decisions and returns ``False`` to stop early.

    The loop ends when no shard has a completion bound left —
    a scenario that still holds unfinished work at that point is starved,
    which the caller detects from its own state.
    """

    def __init__(self, shards: Sequence[Any]) -> None:
        self.shards = list(shards)
        self.stats = EpochStats()

    def run(
        self,
        on_barrier: Callable[[float, list[Any]], bool],
        lookahead: Optional[Callable[[], Optional[float]]] = None,
    ) -> None:
        """Run epochs until every shard drains or the callback stops.

        ``lookahead``, when given, supplies an additional controller-side
        bound each epoch — e.g. the next pending arrival of an open
        workload stream (:mod:`repro.clusterserver.arrivals`), which no
        shard kernel knows about.  It is folded into the epoch bound like
        another shard: the epoch never advances past it, so the barrier
        callback observes the event exactly on time.  Returning ``None``
        means no pending controller event.
        """
        shards = self.shards
        while True:
            bound: Optional[float] = None
            for shard in shards:
                t = shard.next_completion_bound()
                if t is not None and (bound is None or t < bound):
                    bound = t
            if lookahead is not None:
                t = lookahead()
                if t is not None and (bound is None or t < bound):
                    bound = t
            if bound is None:
                return
            t0 = time.perf_counter()
            reports = [shard.run_until(bound) for shard in shards]
            self.stats.barrier_wait_s += time.perf_counter() - t0
            self.stats.epochs += 1
            if not on_barrier(bound, reports):
                return
