"""The DPS runtime: direct execution of flow graphs over a backend.

This module reconstructs the execution machinery of the paper's sections 2
and 3.  The runtime *actually executes* framework and application code —
routing functions, split/merge instance management, flow control, dynamic
allocation — while delegating the passage of time to an
:class:`~repro.dps.backend.ExecutionBackend` (the simulator's models or the
testbed's).  Operation bodies are generators; every yielded item ends an
*atomic step*, mirroring the paper's suspension of DPS execution threads
("an atomic step starts when another atomic step is completed, and ends
when a data object is posted or when an operation is suspended or
terminates").

Concurrency semantics:

* exactly one operation executes per DPS thread at a time,
* distinct DPS threads overlap freely (the CPU model arbitrates nodes),
* a suspended operation (merge waiting for data objects, flow-control
  block) releases its thread; compute steps hold it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.dps.backend import ExecutionBackend
from repro.dps.data_objects import DataObject, Frame
from repro.dps.deployment import Deployment, ThreadId
from repro.dps.flow_control import CreditAccount
from repro.dps.flowgraph import Edge, FlowGraph, Vertex, VertexKind
from repro.dps.malleability import (
    Migration,
    MigrationPlanner,
    round_robin_planner,
)
from repro.dps.operations import (
    Compute,
    OperationContext,
    Post,
    RemoveThreads,
)
from repro.dps.routing import Broadcast
from repro.dps.serializer import CountingSerializer
from repro.dps.threads import DPSThread, ThreadManager
from repro.dps.trace import RuntimeTrace, StepRecord, TraceLevel, TransferRecord
from repro.errors import (
    DeadlockError,
    FlowGraphError,
    MalleabilityError,
    SimulationError,
)

class DurationProvider:
    """Interface: turn a :class:`Compute` item into (seconds, result).

    Concrete providers live in :mod:`repro.sim.providers` (direct
    execution, partial direct execution) and
    :mod:`repro.testbed.executor` (ground truth).
    """

    def evaluate(self, compute: Compute, ctx: OperationContext) -> tuple[float, Any]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# internal execution bookkeeping
# --------------------------------------------------------------------------


class _Emitter:
    """Frame-emission state of a split or paired-stream instance."""

    __slots__ = ("sid", "posted", "done", "account")

    _sids = itertools.count(1)

    def __init__(self, account: Optional[CreditAccount]) -> None:
        self.sid = next(_Emitter._sids)
        self.posted = 0
        self.done = False
        self.account = account


class _MergeInstance:
    """One split-merge (or stream) instance: accumulator plus progress."""

    __slots__ = (
        "vertex",
        "key",
        "thread",
        "op",
        "ctx",
        "state",
        "received",
        "expected",
        "parent_frames",
        "emitter",
        "finish_requested",
        "finalizing",
        "finished",
    )

    def __init__(
        self,
        vertex: Vertex,
        key: Any,
        thread: DPSThread,
        op: Any,
        ctx: "_RtContext",
        parent_frames: tuple[Frame, ...],
        emitter: Optional[_Emitter],
    ) -> None:
        self.vertex = vertex
        self.key = key
        self.thread = thread
        self.op = op
        self.ctx = ctx
        self.state = op.initial_state(ctx)
        self.received = 0
        self.expected: Optional[int] = None
        self.parent_frames = parent_frames
        self.emitter = emitter
        self.finish_requested = False
        self.finalizing = False
        self.finished = False


class _Execution:
    """A running generator: one operation body being driven."""

    __slots__ = (
        "gen",
        "ctx",
        "vertex",
        "thread",
        "frames_in",
        "emitter",
        "instance",
        "trigger_obj",
        "role",
        "pending_post",
    )

    def __init__(
        self,
        gen: Any,
        ctx: "_RtContext",
        vertex: Vertex,
        thread: DPSThread,
        frames_in: tuple[Frame, ...],
        role: str,
        emitter: Optional[_Emitter] = None,
        instance: Optional[_MergeInstance] = None,
        trigger_obj: Optional[DataObject] = None,
    ) -> None:
        self.gen = gen
        self.ctx = ctx
        self.vertex = vertex
        self.thread = thread
        self.frames_in = frames_in
        self.emitter = emitter
        self.instance = instance
        self.trigger_obj = trigger_obj
        self.role = role  # "run" | "combine" | "finalize"
        self.pending_post: Optional[Post] = None


class _RtContext(OperationContext):
    """Concrete operation context bound to the runtime."""

    def __init__(self, runtime: "Runtime", thread: DPSThread, vertex: Vertex) -> None:
        self._runtime = runtime
        self._thread = thread
        self._vertex = vertex
        self._instance: Optional[_MergeInstance] = None
        self.thread_group = thread.tid.group
        self.thread_index = thread.tid.index
        self.node = thread.node

    def group_size(self, group: str) -> int:
        return len(self._runtime.live_threads(group))

    def live_indices(self, group: str) -> tuple[int, ...]:
        return tuple(t.tid.index for t in self._runtime.live_threads(group))

    @property
    def thread_state(self) -> dict:
        return self._thread.state

    def mark_phase(self, label: str) -> None:
        self._runtime.mark_phase(label)

    def finish_instance(self) -> None:
        if self._instance is None:
            raise FlowGraphError(
                "finish_instance() called outside a keyed stream instance"
            )
        self._instance.finish_requested = True

    @property
    def now(self) -> float:
        return self._runtime._kernel._now


@dataclass
class RunResult:
    """Outcome of one runtime execution."""

    makespan: float
    trace: RuntimeTrace
    phases: list[tuple[float, str]]
    allocation_timeline: list[tuple[float, frozenset[int]]]
    events_executed: int

    # ------------------------------------------------------------- queries
    def phase_intervals(self) -> list[tuple[str, float, float]]:
        """(label, start, end) for each marked phase, in order."""
        intervals = []
        for i, (start, label) in enumerate(self.phases):
            end = self.phases[i + 1][0] if i + 1 < len(self.phases) else self.makespan
            intervals.append((label, start, end))
        return intervals

    def active_nodes_at(self, time: float) -> frozenset[int]:
        """The node allocation in force at simulation time ``time``."""
        current = self.allocation_timeline[0][1]
        for t, nodes in self.allocation_timeline:
            if t <= time:
                current = nodes
            else:
                break
        return current

    @property
    def total_work(self) -> float:
        """Total uncontended compute work executed, in seconds."""
        return self.trace.total_work()


class Runtime:
    """Executes a flow graph over a backend (the DPS runtime + simulator glue).

    Parameters
    ----------
    graph:
        The validated application flow graph.
    deployment:
        Thread-group to node mapping.
    backend:
        Binds compute steps and transfers to CPU/network models.
    provider:
        Duration provider implementing (partial) direct execution.
    serializer:
        Data-object sizing (defaults to the counting serializer).
    trace_level:
        How much execution detail to retain.
    migration_planner:
        Application hook mapping removed-thread state to survivors.
    """

    def __init__(
        self,
        graph: FlowGraph,
        deployment: Deployment,
        backend: ExecutionBackend,
        provider: DurationProvider,
        serializer: Optional[CountingSerializer] = None,
        trace_level: TraceLevel = TraceLevel.SUMMARY,
        migration_planner: Optional[MigrationPlanner] = None,
    ) -> None:
        graph.validate()
        deployment.validate_against(graph.groups())
        self.graph = graph
        self.deployment = deployment
        self.backend = backend
        # The clock, read as ``self._kernel._now`` on the per-step paths.
        self._kernel = backend.kernel
        self.provider = provider
        self.serializer = serializer or CountingSerializer()
        self.trace = RuntimeTrace(level=trace_level)
        # Below FULL the trace only accounts: no per-step record is built.
        self._keep_records = trace_level >= TraceLevel.FULL
        self.migration_planner = migration_planner or round_robin_planner()

        # Thread managers per used node ("same deployment scheme as the
        # real execution" — one application instance per node).
        self.managers: dict[int, ThreadManager] = {}
        self._threads: dict[ThreadId, DPSThread] = {}
        self._live: dict[str, list[DPSThread]] = {}
        for tid in deployment.threads():
            node = deployment.node_of(tid)
            manager = self.managers.setdefault(node, ThreadManager(node))
            thread = manager.create(tid)
            self._threads[tid] = thread
            self._live.setdefault(tid.group, []).append(thread)
        for threads in self._live.values():
            threads.sort(key=lambda t: t.tid.index)

        # Split pairing: split/stream name -> closing vertex name.
        self._closer_of: dict[str, str] = {}
        for vertex in graph.vertices.values():
            if vertex.closes is not None:
                self._closer_of[vertex.closes] = vertex.name

        # Merge instances: (vertex name, key) -> instance.
        self._instances: dict[tuple[str, Any], _MergeInstance] = {}
        # Expected counts announced before the instance exists.
        self._pending_expected: dict[tuple[str, Any], int] = {}
        # Keys of instances that already completed (late-arrival detection).
        self._completed_instances: set[tuple[str, Any]] = set()
        # Every credit account ever created (deadlock diagnostics).
        self._accounts: list[CreditAccount] = []
        # (source vertex, Post.to) -> what :meth:`_route` resolves.
        self._routes: dict[
            tuple[str, Optional[str]], tuple[Edge, list[DPSThread], bool]
        ] = {}

        # Phases and allocation history.
        self.phases: list[tuple[float, str]] = []
        self._current_phase: Optional[str] = None
        initial_nodes = frozenset(deployment.used_nodes())
        self.allocation_timeline: list[tuple[float, frozenset[int]]] = [
            (0.0, initial_nodes)
        ]
        self._started = False
        self._finished = False

    # ------------------------------------------------------------- queries
    def live_threads(self, group: str) -> list[DPSThread]:
        """Live threads of ``group``, ordered by thread index."""
        try:
            return self._live[group]
        except KeyError:
            raise FlowGraphError(f"unknown thread group {group!r}") from None

    def thread(self, tid: ThreadId) -> DPSThread:
        """Look up a deployed thread."""
        return self._threads[tid]

    def mark_phase(self, label: str) -> None:
        """Record a phase boundary at the current simulation time."""
        self.phases.append((self._kernel._now, label))
        self._current_phase = label

    # ----------------------------------------------------------- bootstrap
    def inject(
        self, vertex_name: str, obj: DataObject, thread_index: int = 0
    ) -> None:
        """Deliver a root data object to ``vertex_name`` at time zero."""
        if self._started:
            raise SimulationError("inject() must be called before run()")
        vertex = self._vertex(vertex_name)
        live = self.live_threads(vertex.group)
        thread = live[thread_index % len(live)]
        kernel = self.backend.kernel
        kernel.schedule_at(kernel.now, self._deliver, vertex_name, obj, thread)

    def run(self, until: Optional[float] = None) -> RunResult:
        """Execute to completion and return the result.

        Raises :class:`DeadlockError` when the event queue drains while
        merge instances are still waiting for data objects.
        """
        if self._started:
            raise SimulationError("runtime already ran")
        self._started = True
        self.backend.kernel.run(until=until)
        self._finished = True
        if until is None:
            self._check_deadlock()
        return RunResult(
            makespan=self.backend.now,
            trace=self.trace,
            phases=list(self.phases),
            allocation_timeline=list(self.allocation_timeline),
            events_executed=self.backend.kernel.events_executed,
        )

    # ------------------------------------------------------------ delivery
    def _vertex(self, name: str) -> Vertex:
        try:
            return self.graph.vertices[name]
        except KeyError:
            raise FlowGraphError(f"unknown vertex {name!r}") from None

    def _deliver(self, vertex_name: str, obj: DataObject, thread: DPSThread) -> None:
        if not thread.alive:
            thread.ensure_alive()  # raises
        thread.queue.append((vertex_name, obj))
        self._kick(thread)

    def _kick(self, thread: DPSThread) -> None:
        """Let an idle thread consume its ready list, then its queue."""
        while thread.current is None and (thread.ready or thread.queue):
            if thread.ready:
                execution, value = thread.ready.popleft()
                thread.current = execution
                self._drive(execution, value)
            else:
                vertex_name, obj = thread.queue.popleft()
                thread.processed_objects += 1
                self._dispatch(thread, vertex_name, obj)

    def _dispatch(self, thread: DPSThread, vertex_name: str, obj: DataObject) -> None:
        vertices = self.graph.vertices
        vertex = (
            vertices[vertex_name]
            if vertex_name in vertices
            else self._vertex(vertex_name)  # raises
        )
        kind = vertex.kind
        if kind in (VertexKind.LEAF, VertexKind.SPLIT):
            ctx = _RtContext(self, thread, vertex)
            op = vertex.factory()
            emitter = None
            if kind is VertexKind.SPLIT:
                emitter = _Emitter(self._new_account(vertex))
            execution = _Execution(
                op.run(ctx, obj), ctx, vertex, thread, obj.frames, "run",
                emitter, None, obj,
            )
            thread.current = execution
            self._drive(execution, None)
            return
        # Merge-like vertices: find or create the instance, run combine.
        instance = self._instance_for(vertex, obj, thread)
        if instance.finished:
            raise FlowGraphError(
                f"vertex {vertex.name!r}: data object {obj.kind!r} arrived "
                "after the instance completed"
            )
        if (
            instance.expected is not None
            and instance.received >= instance.expected
            and vertex.kind is not VertexKind.KEYED_STREAM
        ):
            raise FlowGraphError(
                f"merge {vertex.name!r} received more data objects than its "
                f"split posted (expected {instance.expected})"
            )
        gen = instance.op.combine(instance.ctx, instance.state, obj)
        if gen is None:
            self._after_combine(instance, obj)
            return
        execution = _Execution(
            gen, instance.ctx, vertex, thread, obj.frames, "combine",
            instance.emitter, instance, obj,
        )
        thread.current = execution
        self._drive(execution, None)

    def _instance_for(
        self, vertex: Vertex, obj: DataObject, thread: DPSThread
    ) -> _MergeInstance:
        if vertex.kind is VertexKind.KEYED_STREAM:
            probe_op = vertex.factory()
            key = ("keyed", probe_op.instance_key(obj))
            parent_frames: tuple[Frame, ...] = ()
        else:
            frame = obj.top_frame
            if frame is None:
                raise FlowGraphError(
                    f"merge {vertex.name!r} received root object {obj.kind!r} "
                    "that never went through the paired split"
                )
            key = ("frame", frame.sid)
            parent_frames = obj.frames[:-1]
        full_key = (vertex.name, key)
        # Frame-paired instances are strict: the split announced exactly how
        # many objects exist, so a late arrival is an application bug.
        # Keyed streams manage their own lifecycle; a new object for a
        # completed key legitimately starts a fresh instance.
        if key[0] == "frame" and full_key in self._completed_instances:
            raise FlowGraphError(
                f"vertex {vertex.name!r}: data object {obj.kind!r} arrived "
                "after its instance completed (an upstream operation posted "
                "more objects than the split announced)"
            )
        instance = self._instances.get(full_key)
        if instance is None:
            ctx = _RtContext(self, thread, vertex)
            op = vertex.factory()
            emitter = None
            if vertex.kind in (VertexKind.STREAM, VertexKind.KEYED_STREAM):
                emitter = _Emitter(self._new_account(vertex))
            instance = _MergeInstance(
                vertex, key, thread, op, ctx, parent_frames, emitter
            )
            ctx._instance = instance
            pending = self._pending_expected.pop(full_key, None)
            if pending is not None:
                instance.expected = pending
            self._instances[full_key] = instance
        elif instance.thread is not thread:
            raise FlowGraphError(
                f"merge {vertex.name!r} instance received objects on two "
                f"different threads ({instance.thread.tid} and {thread.tid}); "
                "the routing function must be instance-consistent"
            )
        return instance

    # --------------------------------------------------------------- drive
    def _drive(self, execution: _Execution, send_value: Any) -> None:
        """Advance a generator until it suspends or completes."""
        thread = execution.thread
        while True:
            try:
                item = execution.gen.send(send_value)
            except StopIteration:
                thread.current = None
                self._on_execution_done(execution)
                self._kick(thread)
                return
            if isinstance(item, Compute):
                seconds, result = self.provider.evaluate(item, execution.ctx)
                self._submit_compute(execution, item, seconds, result)
                return  # compute holds the thread; resumes in _compute_done
            if isinstance(item, Post):
                if self._post(execution, item):
                    return  # flow-control block released the thread
                send_value = None
                continue
            if isinstance(item, RemoveThreads):
                self._start_removal(execution, item)
                return  # resumes when migration completes
            raise SimulationError(
                f"operation at vertex {execution.vertex.name!r} yielded an "
                f"unsupported item: {item!r}"
            )

    def _submit_compute(
        self, execution: _Execution, item: Compute, seconds: float, result: Any
    ) -> None:
        kernel = self._kernel
        start = kernel._now
        phase = self._current_phase
        node = execution.thread.node
        trace = self.trace

        def done(_handle: Any) -> None:
            if self._keep_records:
                trace.record_step(
                    StepRecord(
                        vertex=execution.vertex.name,
                        thread=execution.thread.tid,
                        node=node,
                        kernel=item.spec.name,
                        start=start,
                        end=kernel._now,
                        work=seconds,
                        phase=phase,
                    )
                )
            else:
                trace.account_step(node, seconds, phase)
            self._drive(execution, result)

        self.backend.submit_compute(node, seconds, done, execution.vertex.name)

    def _on_execution_done(self, execution: _Execution) -> None:
        if execution.role == "run":
            if execution.emitter is not None:  # split completed
                emitter = execution.emitter
                emitter.done = True
                self._announce_expected(
                    execution.vertex.name, emitter.sid, emitter.posted
                )
            self._release_credit(execution.trigger_obj)
        elif execution.role == "combine":
            self._after_combine(execution.instance, execution.trigger_obj)
        elif execution.role == "finalize":
            self._instance_completed(execution.instance)

    def _after_combine(self, instance: _MergeInstance, obj: DataObject) -> None:
        instance.received += 1
        self._release_credit(obj)
        self._maybe_finalize(instance)

    def _maybe_finalize(self, instance: _MergeInstance) -> None:
        if instance.finalizing or instance.finished:
            return
        vertex = instance.vertex
        if vertex.kind is VertexKind.KEYED_STREAM:
            ready = instance.finish_requested
        else:
            ready = (
                instance.expected is not None
                and instance.received == instance.expected
            )
        if not ready:
            return
        instance.finalizing = True
        gen = instance.op.finalize(instance.ctx, instance.state)
        if gen is None:
            self._instance_completed(instance)
            return
        execution = _Execution(
            gen=gen,
            ctx=instance.ctx,
            vertex=vertex,
            thread=instance.thread,
            frames_in=instance.parent_frames,
            role="finalize",
            emitter=instance.emitter,
            instance=instance,
        )
        thread = instance.thread
        if thread.current is None:
            thread.current = execution
            self._drive(execution, None)
        else:
            thread.ready.append((execution, None))

    def _instance_completed(self, instance: _MergeInstance) -> None:
        instance.finished = True
        self._completed_instances.add((instance.vertex.name, instance.key))
        if instance.emitter is not None:
            emitter = instance.emitter
            emitter.done = True
            self._announce_expected(
                instance.vertex.name, emitter.sid, emitter.posted
            )
        self._instances.pop((instance.vertex.name, instance.key), None)

    def _announce_expected(self, split_name: str, sid: int, count: int) -> None:
        closer = self._closer_of.get(split_name)
        if closer is None:
            return  # nothing closes this vertex (keyed streams downstream)
        if count == 0:
            raise FlowGraphError(
                f"split/stream {split_name!r} posted zero data objects; its "
                f"paired merge {closer!r} would never complete"
            )
        key = (closer, ("frame", sid))
        instance = self._instances.get(key)
        if instance is None:
            self._pending_expected[key] = count
            return
        instance.expected = count
        self._maybe_finalize(instance)

    # -------------------------------------------------------------- posting
    def _new_account(self, vertex: Vertex) -> Optional[CreditAccount]:
        if vertex.max_in_flight is None:
            return None
        account = CreditAccount(vertex.max_in_flight)
        self._accounts.append(account)
        return account

    def _post(self, execution: _Execution, post: Post) -> bool:
        """Emit a data object.  Returns True when flow-control blocked."""
        account = execution.emitter.account if execution.emitter else None
        if account is not None and not account.acquire():
            execution.pending_post = post
            thread = execution.thread

            def resume() -> None:
                pending = execution.pending_post
                execution.pending_post = None
                self._emit(execution, pending, account)
                thread.ready.append((execution, None))
                self._kick(thread)

            account.wait(resume)
            thread.current = None
            self._kick(thread)
            return True
        self._emit(execution, post, account)
        return False

    def _emit(
        self, execution: _Execution, post: Post, account: Optional[CreditAccount]
    ) -> None:
        obj = post.obj
        obj.frames = self._frames_for_post(execution)
        obj.fc_source = account
        obj.created_at = self._kernel._now
        if execution.emitter is not None:
            execution.emitter.posted += 1
        key = (execution.vertex.name, post.to)
        try:
            edge, live, broadcast = self._routes[key]
        except KeyError:
            edge, live, broadcast = self._routes[key] = self._route(*key)
        if broadcast:
            if account is not None:
                raise FlowGraphError(
                    "flow control cannot be combined with broadcast routing"
                )
            # The broadcast itself counted as one emission; the extra copies
            # count too so paired merges see group_size objects.
            if execution.emitter is not None:
                execution.emitter.posted += len(live) - 1
            for target in live:
                copy = DataObject(
                    obj.kind, obj.payload, dict(obj.meta), obj.declared_size
                )
                copy.frames = obj.frames
                copy.created_at = obj.created_at
                self._send(execution, edge, copy, target)
            return
        if post.route is not None:
            index = int(post.route) % len(live)
        else:
            index = edge.routing(obj, len(live))
        self._send(execution, edge, obj, live[index])

    def _route(
        self, src: str, to: Optional[str]
    ) -> tuple[Edge, list[DPSThread], bool]:
        """Edge of ``Post(to=to)`` from ``src``, its live target threads
        (the group's list itself, which removals edit in place) and whether
        it broadcasts.  The graph is fixed for the run, so :meth:`_emit`
        caches the answer per ``(src, to)``."""
        edge = self.graph.edge_to(src, to)
        live = self.live_threads(self._vertex(edge.dst).group)
        return edge, live, isinstance(edge.routing, Broadcast)

    def _frames_for_post(self, execution: _Execution) -> tuple[Frame, ...]:
        kind = execution.vertex.kind
        if kind is VertexKind.SPLIT:
            emitter = execution.emitter
            return execution.frames_in + (Frame(emitter.sid, emitter.posted),)
        if kind is VertexKind.STREAM:
            emitter = execution.emitter
            parent = execution.instance.parent_frames
            return parent + (Frame(emitter.sid, emitter.posted),)
        if kind is VertexKind.MERGE:
            return execution.instance.parent_frames
        if kind is VertexKind.KEYED_STREAM:
            return ()
        return execution.frames_in  # leaf: pass-through

    def _send(
        self,
        execution: _Execution,
        edge: Edge,
        obj: DataObject,
        target: DPSThread,
    ) -> None:
        src_node = execution.thread.node
        dst_node = target.node
        size = self.serializer.size(obj)
        kernel = self._kernel
        start = kernel._now
        phase = self._current_phase
        trace = self.trace

        def delivered(_transfer: Any) -> None:
            if src_node == dst_node:
                trace.record_local_delivery()
            elif self._keep_records:
                trace.record_transfer(
                    TransferRecord(
                        kind=obj.kind,
                        src_node=src_node,
                        dst_node=dst_node,
                        size=size,
                        start=start,
                        end=kernel._now,
                        phase=phase,
                    )
                )
            else:
                trace.account_transfer(size)
            self._deliver(edge.dst, obj, target)

        self.backend.submit_transfer(src_node, dst_node, size, delivered, obj.kind)

    def _release_credit(self, obj: Optional[DataObject]) -> None:
        if obj is None or obj.fc_source is None:
            return
        account: CreditAccount = obj.fc_source
        obj.fc_source = None
        resume = account.release()
        if resume is not None:
            # Resume on a fresh kernel event to keep the call stack shallow.
            kernel = self._kernel
            kernel.schedule_at(kernel._now, resume)

    # --------------------------------------------------------- malleability
    def _start_removal(self, execution: _Execution, item: RemoveThreads) -> None:
        group = item.group
        live = self.live_threads(group)
        by_index = {t.tid.index: t for t in live}
        targets: list[DPSThread] = []
        for index in item.thread_indices:
            thread = by_index.get(index)
            if thread is None:
                raise MalleabilityError(
                    f"cannot remove thread {group}[{index}]: not a live thread"
                )
            if thread is execution.thread:
                raise MalleabilityError(
                    "an operation cannot remove its own thread"
                )
            if not thread.drained:
                raise MalleabilityError(
                    f"cannot remove thread {thread.tid}: it still has queued "
                    "or running operations (removal must happen at a "
                    "quiescent point, e.g. an iteration boundary)"
                )
            targets.append(thread)
        for thread in targets:
            thread.alive = False
            live.remove(thread)
        survivors = [t.tid for t in live]
        all_states = {
            t.tid: dict(t.state) for t in itertools.chain(live, targets)
        }
        migrations = list(self.migration_planner(group, all_states, survivors))
        # Detach migrating entries immediately: the data is in flight.
        for migration in migrations:
            self._threads[migration.src].state.pop(migration.key, None)
        for thread in targets:
            if thread.state:
                leftover = sorted(map(repr, thread.state))
                raise MalleabilityError(
                    f"migration plan leaves state on removed thread "
                    f"{thread.tid}: {leftover}"
                )
        pending = len(migrations)
        if pending == 0:
            self._removal_complete(execution)
            return
        counter = {"left": pending}

        def one_done(migration: Migration) -> None:
            dst_thread = self._threads[migration.dst]
            dst_thread.state[migration.key] = migration.payload
            counter["left"] -= 1
            if counter["left"] == 0:
                self._removal_complete(execution)

        for migration in migrations:
            src_node = self.deployment.node_of(migration.src)
            dst_node = self.deployment.node_of(migration.dst)
            self.backend.submit_transfer(
                src_node,
                dst_node,
                migration.size,
                lambda _transfer, m=migration: one_done(m),
                tag=("migration", migration.key),
            )

    def _removal_complete(self, execution: _Execution) -> None:
        active = {
            node
            for node, manager in self.managers.items()
            if manager.live_count > 0
        }
        current = self.allocation_timeline[-1][1]
        if frozenset(active) != current:
            self.allocation_timeline.append((self._kernel._now, frozenset(active)))
        self._drive(execution, None)

    # ------------------------------------------------------------ deadlock
    def _check_deadlock(self) -> None:
        problems: list[str] = []
        for (vertex_name, key), instance in self._instances.items():
            if not instance.finished:
                problems.append(
                    f"instance {vertex_name}[{key}] received "
                    f"{instance.received} objects (expected "
                    f"{instance.expected if instance.expected is not None else 'unknown'})"
                )
        for (vertex_name, key), expected in self._pending_expected.items():
            problems.append(
                f"merge {vertex_name}[{key}] expected {expected} objects "
                "but never received any"
            )
        for account in self._accounts:
            if account.blocked_count:
                problems.append(
                    f"{account.blocked_count} emitter(s) blocked on flow "
                    "control credits that never returned"
                )
        for thread in self._threads.values():
            if thread.alive and not thread.drained:
                problems.append(
                    f"thread {thread.tid} still has "
                    f"{len(thread.queue)} queued / {len(thread.ready)} ready items"
                )
        if problems:
            raise DeadlockError(
                "simulation drained with unfinished work:\n  "
                + "\n  ".join(problems)
            )
