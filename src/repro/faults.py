"""Deterministic failure injection: fault plans, kinds, and replay.

The paper's machinery handles *planned* resource loss — scripted
``RemoveThreads`` schedules that the DPS runtime migrates around, spelled
as a spec's ``events`` list.  This module makes **unplanned** loss on the
cluster server a first-class, declarative, deterministic input.  A
:class:`FaultPlan` describes node crashes, transient brown-outs, degraded
(slow) nodes and job kills as plain data, and the cluster-server engines
replay it at their decision points.

Determinism contract (see ``docs/faults.md``):

* A plan is **seed-deterministic**: events may leave their target node
  unspecified (``node = -1``), in which case :meth:`FaultPlan.resolve`
  draws it from a stdlib :class:`random.Random` keyed by the plan seed and
  the event index — no numpy dependency, identical on every platform.
* Fault events are replayed **at epoch barriers** exactly like scheduler
  reallocations, so a sharded run's result (including the fault trace) is
  bit-identical for every shard count K.
* A crashed node's assignment is computed by a deterministic contiguous
  block rule over the sorted list of up nodes, in job-index order — pure
  controller-side integer arithmetic, identical across engines.

Semantics of a crash hitting a running job: the job loses its **current
phase** (work since the last phase boundary, counted in ``lost_work``) and
is re-dispatched by the scheduler under a bounded per-job retry budget
(``max_retries``); a job that exhausts the budget is failed and removed.
Restarting at the phase boundary keeps the post-fault state an exact
constant (the full phase work), which is what lets the eager and sharded
engines agree after a fault.

Fault kinds are registry-pluggable (``registry.register("fault", ...)``
with a :class:`FaultKind`): a custom kind validates its event and compiles
it to the same primitive timeline vocabulary (``down``/``up``/``slow``/
``unslow``/``kill``) the built-ins use, so the engines need no knowledge
of it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.util.validation import check_options

#: Primitive timeline operations the engines understand.
OP_DOWN = "down"        # arg: node index (node leaves the up-set)
OP_UP = "up"            # arg: node index (node returns)
OP_SLOW = "slow"        # arg: (node index, rate factor in (0, 1])
OP_UNSLOW = "unslow"    # arg: node index
OP_KILL = "kill"        # arg: job index


@dataclass(frozen=True)
class FaultEvent:
    """One declared fault: a kind plus the generic parameter fields.

    The fields are a spec's fault-event vocabulary, typed by their
    annotations; custom kinds reinterpret them rather than inventing new
    ones, so the spec section validates without a registry in scope.
    ``-1`` means "unset" for the integer fields (``node = -1`` on a
    node-targeting kind means *draw one deterministically from the plan
    seed*).  ``at`` is simulation time.
    """

    kind: str
    at: float = -1.0
    node: int = -1
    job: int = -1
    duration: float = 0.0
    factor: float = 1.0

    def to_dict(self) -> dict[str, Any]:
        """Canonical dict: ``kind`` plus every non-default field."""
        out: dict[str, Any] = {"kind": self.kind}
        for f in _PARAMETER_FIELDS:
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out


#: The parameter fields in canonical key order: floats, then ints.
_PARAMETER_FIELDS = sorted(
    fields(FaultEvent)[1:], key=lambda f: f.type != "float"
)


def normalize_fault_event(raw: Any) -> dict[str, Any]:
    """Structurally validate and canonicalize one raw fault-event table.

    Registry-free (usable from spec parsing): checks the table against
    :class:`FaultEvent`'s fields and turns ints into floats where a float
    is declared; per-kind semantic validation happens when the plan is
    built (:meth:`FaultPlan.from_section`).
    """
    if not isinstance(raw, Mapping):
        raise ConfigurationError(
            f"a fault event must be a table/dict, got {type(raw).__name__}"
        )
    if "after" in raw:
        raise ConfigurationError(
            "fault event key 'after' was removed; a DPS run loses threads "
            "through its 'events' list, e.g. events = [\"1,3@2\"]"
        )
    check_options("faults.events", raw, FaultEvent)
    if not raw["kind"]:
        raise ConfigurationError("faults.events.kind must be non-empty")
    out: dict[str, Any] = {"kind": raw["kind"]}
    for f in _PARAMETER_FIELDS:
        if f.name in raw:
            value = raw[f.name]
            out[f.name] = float(value) if f.type == "float" else value
    return out


def event_from_dict(payload: Any) -> FaultEvent:
    """A :class:`FaultEvent` from a raw event table (normalized first)."""
    return FaultEvent(**normalize_fault_event(payload))


# --------------------------------------------------------------------------
# fault kinds (the pluggable axis)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultKind:
    """One registrable fault kind: validation plus timeline compilation.

    Parameters
    ----------
    name:
        Registry name (``crash``, ``brownout``...).
    validate:
        ``event -> None``; raises :class:`ConfigurationError` on events
        that are structurally fine but semantically invalid for this kind.
    timeline:
        ``event -> sequence of (time, op, arg)`` primitive operations
        (:data:`OP_DOWN` and friends) for the cluster-server engines.
    targets_node:
        Whether ``node = -1`` should resolve to a seed-drawn node.
    description:
        One-line summary for ``repro scenarios list``.
    """

    name: str
    validate: Callable[[FaultEvent], None]
    timeline: Callable[[FaultEvent], Sequence[tuple]]
    targets_node: bool = False
    description: str = ""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


def _validate_crash(ev: FaultEvent) -> None:
    _require(ev.at >= 0.0, "crash fault needs 'at' (server time)")


def _timeline_crash(ev: FaultEvent) -> Sequence[tuple]:
    return ((ev.at, OP_DOWN, ev.node),)


def _validate_brownout(ev: FaultEvent) -> None:
    _require(ev.at >= 0.0, "brownout fault needs 'at' (server time)")
    _require(ev.duration > 0.0, "brownout fault needs a positive 'duration'")


def _timeline_brownout(ev: FaultEvent) -> Sequence[tuple]:
    return ((ev.at, OP_DOWN, ev.node), (ev.at + ev.duration, OP_UP, ev.node))


def _validate_degrade(ev: FaultEvent) -> None:
    _require(ev.at >= 0.0, "degrade fault needs 'at' (server time)")
    _require(
        0.0 < ev.factor <= 1.0,
        f"degrade fault needs 'factor' in (0, 1], got {ev.factor!r}",
    )
    _require(ev.duration >= 0.0, "degrade 'duration' must be >= 0 (0: permanent)")


def _timeline_degrade(ev: FaultEvent) -> Sequence[tuple]:
    entries = [(ev.at, OP_SLOW, (ev.node, ev.factor))]
    if ev.duration > 0.0:
        entries.append((ev.at + ev.duration, OP_UNSLOW, ev.node))
    return entries


def _validate_killjob(ev: FaultEvent) -> None:
    _require(ev.at >= 0.0, "killjob fault needs 'at' (server time)")
    _require(ev.job >= 0, "killjob fault needs 'job' (a job index)")


def _timeline_killjob(ev: FaultEvent) -> Sequence[tuple]:
    return ((ev.at, OP_KILL, ev.job),)


#: The built-in fault kinds, keyed by name.  The default registry mirrors
#: these under kind ``"fault"``; spec-load-time validation falls back to
#: this table so a builtin kind's mistakes surface before any engine runs.
BUILTIN_FAULT_KINDS: dict[str, FaultKind] = {
    k.name: k
    for k in (
        FaultKind(
            name="crash",
            validate=_validate_crash,
            timeline=_timeline_crash,
            targets_node=True,
            description="node leaves permanently at time 'at'",
        ),
        FaultKind(
            name="brownout",
            validate=_validate_brownout,
            timeline=_timeline_brownout,
            targets_node=True,
            description="node drops out at 'at' and returns 'duration' later",
        ),
        FaultKind(
            name="degrade",
            validate=_validate_degrade,
            timeline=_timeline_degrade,
            targets_node=True,
            description=(
                "node runs at rate 'factor' from 'at' for 'duration' "
                "(0: permanently)"
            ),
        ),
        FaultKind(
            name="killjob",
            validate=_validate_killjob,
            timeline=_timeline_killjob,
            description="job 'job' loses its current phase at time 'at'",
        ),
    )
}


def resolve_fault_kind(name: str, registry: Any = None) -> FaultKind:
    """Look a kind up in ``registry`` (kind ``"fault"``) or the built-ins."""
    if registry is not None:
        kind = registry.resolve("fault", name)
    else:
        try:
            kind = BUILTIN_FAULT_KINDS[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown fault kind {name!r}; choose from "
                f"{sorted(BUILTIN_FAULT_KINDS)}"
            ) from None
    if not isinstance(kind, FaultKind):
        raise ConfigurationError(
            f"fault kind {name!r} must be a FaultKind, "
            f"got {type(kind).__name__}"
        )
    return kind


# --------------------------------------------------------------------------
# the plan
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seed-deterministic failure schedule.

    ``max_retries`` is the per-job restart budget: a job may lose its
    phase and be re-dispatched at most this many times before it is
    failed outright.  ``seed`` keys the deterministic resolution of
    unspecified (``-1``) target nodes.
    """

    events: tuple[FaultEvent, ...] = ()
    max_retries: int = 2
    seed: int = 0

    @classmethod
    def from_section(
        cls, section: Any, engine_seed: int, registry: Any = None
    ) -> "FaultPlan":
        """Build and kind-validate a plan from a spec's ``[faults]`` section.

        ``section.seed == -1`` (the default) inherits ``engine_seed`` so a
        spec's single seed governs workload and faults alike.
        """
        events = []
        for payload in section.events:
            ev = event_from_dict(payload)
            resolve_fault_kind(ev.kind, registry).validate(ev)
            events.append(ev)
        seed = section.seed if section.seed >= 0 else engine_seed
        return cls(
            events=tuple(events),
            max_retries=section.max_retries,
            seed=seed,
        )

    def resolve(self, total_nodes: int, registry: Any = None) -> "FaultPlan":
        """Draw every unspecified target node deterministically.

        Event ``i`` with ``node = -1`` on a node-targeting kind receives
        ``random.Random(f"{seed}:{i}:{kind}").randrange(total_nodes)`` —
        stdlib-deterministic, so the resolved plan (and hence the fault
        trace) is a pure function of (plan, total_nodes).
        """
        if total_nodes < 1:
            raise ConfigurationError("total_nodes must be >= 1")
        resolved = []
        for i, ev in enumerate(self.events):
            kind = resolve_fault_kind(ev.kind, registry)
            node = ev.node
            if kind.targets_node:
                if node == -1:
                    node = random.Random(
                        f"{self.seed}:{i}:{ev.kind}"
                    ).randrange(total_nodes)
                elif not 0 <= node < total_nodes:
                    raise ConfigurationError(
                        f"fault event {i} targets node {node}, but the "
                        f"cluster has nodes 0..{total_nodes - 1}"
                    )
            resolved.append(replace(ev, node=node))
        return FaultPlan(
            events=tuple(resolved),
            max_retries=self.max_retries,
            seed=self.seed,
        )

    def compile(
        self, total_nodes: int, registry: Any = None
    ) -> "CompiledFaultPlan":
        """Resolve targets and flatten the plan into a primitive timeline."""
        if self.max_retries < 0:
            raise ConfigurationError("faults.max_retries must be >= 0")
        plan = self.resolve(total_nodes, registry)
        entries = []
        for ev in plan.events:
            kind = resolve_fault_kind(ev.kind, registry)
            kind.validate(ev)
            for t, op, arg in kind.timeline(ev):
                if t < 0.0:
                    raise ConfigurationError(
                        f"fault kind {ev.kind!r} produced a negative "
                        f"timeline entry at t={t!r}"
                    )
                entries.append((t, len(entries), op, arg))
        entries.sort()
        return CompiledFaultPlan(
            total_nodes=total_nodes,
            max_retries=plan.max_retries,
            entries=tuple(entries),
            events=plan.events,
        )


@dataclass(frozen=True)
class CompiledFaultPlan:
    """A resolved plan flattened to sorted ``(t, seq, op, arg)`` entries.

    Stateless and reusable: each engine run builds a fresh
    :class:`FaultRuntime` around it.  ``total_nodes`` records the cluster
    size the targets were resolved against; the engines refuse a mismatch.
    """

    total_nodes: int
    max_retries: int
    entries: tuple[tuple, ...] = ()
    events: tuple[FaultEvent, ...] = ()


# --------------------------------------------------------------------------
# the runtime (shared by the eager and sharded cluster-server engines)
# --------------------------------------------------------------------------


class FaultRuntime:
    """Replays a compiled plan against one engine run.

    Owns the node up-set, the degraded-node factors, the per-job retry
    budget and the fault trace.  Both cluster-server engines drive it with
    the same call sequence at their decision points, and everything in
    here is plain controller-side arithmetic — no shard or kernel state —
    which is what keeps fault replay bit-identical for every shard count.
    """

    def __init__(self, compiled: CompiledFaultPlan, total_nodes: int) -> None:
        if compiled.total_nodes != total_nodes:
            raise ConfigurationError(
                f"fault plan was compiled for {compiled.total_nodes} nodes "
                f"but the cluster has {total_nodes}"
            )
        self.total_nodes = total_nodes
        self.max_retries = compiled.max_retries
        self._timeline: deque = deque(compiled.entries)
        #: nodes currently out of service
        self.down: set[int] = set()
        #: node -> rate factor of currently degraded nodes
        self.slow: dict[int, float] = {}
        #: total job restarts granted
        self.retries = 0
        #: work units lost to restarts (partial phases thrown away)
        self.lost_work = 0.0
        #: jobs failed after exhausting the retry budget
        self.failed_jobs = 0
        #: applied fault operations, in replay order (JSON-clean dicts)
        self.trace: list[dict] = []
        self._job_restarts: dict[int, int] = {}
        self._ever_slowed = False

    # ------------------------------------------------------------- queries
    def next_time(self) -> Optional[float]:
        """Earliest pending fault time — the engines' lookahead bound."""
        return self._timeline[0][0] if self._timeline else None

    def capacity(self, total_nodes: int) -> int:
        """Effective node count after outages."""
        return total_nodes - len(self.down)

    @property
    def factors_live(self) -> bool:
        """Whether per-job rate factors must be (re)computed.

        Stays False until the first degrade fires, so fault plans without
        degrades never pay the per-allocation factor pass.
        """
        return self._ever_slowed

    # ------------------------------------------------------------ assignment
    def _up_nodes(self) -> list[int]:
        return [n for n in range(self.total_nodes) if n not in self.down]

    def _holder(
        self, node: int, ordered: Sequence[tuple[int, int]]
    ) -> int:
        """The job holding ``node`` under the contiguous-block rule.

        ``ordered`` is the running set as sorted ``(job index, nodes)``
        pairs; running jobs take contiguous blocks of the sorted up-node
        list in index order.  Returns -1 when the node is unassigned.
        """
        up = self._up_nodes()
        pos = 0
        for idx, nodes in ordered:
            if nodes > 0:
                if node in up[pos:pos + nodes]:
                    return idx
                pos += nodes
        return -1

    def rate_factors(
        self, ordered: Sequence[tuple[int, int]]
    ) -> dict[int, float]:
        """Per-job rate factors under the current degraded-node set.

        Same contiguous-block assignment as :meth:`_holder`; a job's
        factor is the mean of its nodes' factors (degraded nodes
        contribute ``slow[node]``, healthy ones 1.0).  Pure float
        arithmetic in a fixed order — engine- and K-independent.
        """
        factors: dict[int, float] = {}
        up = self._up_nodes()
        pos = 0
        for idx, nodes in ordered:
            if nodes <= 0:
                factors[idx] = 1.0
                continue
            total = 0.0
            for node in up[pos:pos + nodes]:
                total += self.slow.get(node, 1.0)
            pos += nodes
            factors[idx] = total / nodes
        return factors

    # --------------------------------------------------------------- replay
    def fire(
        self, now: float, ordered: Sequence[tuple[int, int]]
    ) -> tuple[bool, list[tuple[int, dict]]]:
        """Apply every fault due at or before ``now``.

        ``ordered`` is the running set as sorted ``(job index, nodes)``
        pairs *before* any fault of this batch is applied — both engines
        replay the whole batch against the same pre-fault grants.
        Returns ``(fired, victims)``: whether anything fired, and the
        victim job indices with their (mutable) trace entries, in firing
        order.  The caller settles each victim via :meth:`record_loss`.
        """
        fired = False
        victims: list[tuple[int, dict]] = []
        while self._timeline and self._timeline[0][0] <= now:
            t, _seq, op, arg = self._timeline.popleft()
            fired = True
            entry: dict[str, Any] = {"t": t, "op": op}
            if op == OP_DOWN:
                entry["node"] = arg
                if arg in self.down:
                    entry["outcome"] = "noop"
                else:
                    victim = self._holder(arg, ordered)
                    self.down.add(arg)
                    if len(self.down) >= self.total_nodes:
                        raise ConfigurationError(
                            "fault plan takes every node down at "
                            f"t={t}; the workload cannot finish"
                        )
                    entry["job"] = victim
                    if victim >= 0:
                        victims.append((victim, entry))
                    else:
                        entry["outcome"] = "idle"
            elif op == OP_UP:
                entry["node"] = arg
                self.down.discard(arg)
            elif op == OP_SLOW:
                node, factor = arg
                entry["node"] = node
                entry["factor"] = factor
                self.slow[node] = factor
                self._ever_slowed = True
            elif op == OP_UNSLOW:
                entry["node"] = arg
                self.slow.pop(arg, None)
            elif op == OP_KILL:
                entry["job"] = arg
                if any(idx == arg for idx, _nodes in ordered):
                    victims.append((arg, entry))
                else:
                    entry["outcome"] = "absent"
            else:  # pragma: no cover - compile() emits known ops only
                raise ConfigurationError(f"unknown fault op {op!r}")
            self.trace.append(entry)
        return fired, victims

    def record_loss(self, idx: int, lost: float, entry: dict) -> str:
        """Account one victim's lost phase; decide retry vs. fail.

        ``lost`` is the work discarded (progress into the current phase,
        computed by the engine).  Returns ``"retry"`` while the job's
        budget lasts, ``"fail"`` once exhausted.
        """
        self.lost_work += lost
        n = self._job_restarts.get(idx, 0) + 1
        self._job_restarts[idx] = n
        entry["lost"] = lost
        entry["restarts"] = n
        if n > self.max_retries:
            self.failed_jobs += 1
            entry["outcome"] = "failed"
            return "fail"
        self.retries += 1
        entry["outcome"] = "retry"
        return "retry"
