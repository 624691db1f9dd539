"""Flow graphs of the parallel block LU factorization (paper Figs. 5-7).

Vertex layout, one gray section per LU level ``k`` (paper Fig. 5):

* ``dispatch@k``  — (f) collect end-of-update notifications of level k-1,
  trigger the level-k panel factorization ("perform next level LU as soon
  as first column block is complete" in pipelined mode; after a full
  barrier in basic mode), and forward column-ready events;
* ``lu@k``        — (a) panel factorization at the owner of column k;
* ``tdisp@k``     — joins the panel with column-ready events and streams
  out triangular-solve requests ("stream out triangular system solve
  requests as other column blocks complete");
* ``trsm@k``      — (b) parallel triangular solves + row flipping;
* ``c@k``         — (c) collect T12 notifications, stream out
  multiplication requests (flow control attaches here);
* ``mult@k``      — (d) block multiplications, distributed evenly; the PM
  variant replaces this leaf by the Fig. 7 subgraph;
* ``sub@k``       — (e) subtract products from the trailing columns;
* ``rowflip@k``   — (g) row flipping on previous column blocks;
* ``sink``        — (h) collect row-exchange/termination notifications.

Thread groups: ``main`` (one thread, node 0) runs the initial distribution
and the sink; ``control`` (one thread per node) hosts the collect/dispatch
streams so they overlap with computation on the same node ("allowing for
example a merge operation to receive and process data objects while a leaf
operation is running on the same processor"); ``workers`` own the column
blocks (block ``j`` on thread ``j % P``).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.apps.lu.blockmath import (
    apply_pivots,
    panel_lu,
    trsm_block,
)
from repro.apps.lu.config import LUConfig
from repro.apps.lu.costs import (
    gemm_spec,
    handling_spec,
    panel_lu_spec,
    rowswap_spec,
    sub_gemm_spec,
    sub_spec,
    trsm_spec,
    SWAP_COST_PER_BYTE,
)
from repro.dps.data_objects import DataObject
from repro.dps.flowgraph import FlowGraph
from repro.dps.malleability import AllocationEvent
from repro.dps.operations import (
    Compute,
    KernelSpec,
    LeafOperation,
    MergeOperation,
    Post,
    RemoveThreads,
    SplitOperation,
    StreamOperation,
)
from repro.dps.routing import Constant, Modulo


def store_spec(nbytes: float) -> KernelSpec:
    """Memcpy-like cost of storing ``nbytes`` of payload."""
    return KernelSpec(
        "store", flops=SWAP_COST_PER_BYTE * nbytes, working_set=nbytes
    )


class LUShared:
    """Run-wide constants and helpers shared by all LU operations."""

    def __init__(self, cfg: LUConfig, matrix: Optional[np.ndarray]) -> None:
        self.cfg = cfg
        self.matrix = matrix
        self.alloc = matrix is not None
        n, r = cfg.n, cfg.r
        self.block_bytes = 8.0 * n * r
        self.panel_bytes = 8.0 * r * r + 4.0 * r
        self.t12_bytes = 8.0 * r * r
        self.mult_req_bytes = 2.0 * 8.0 * r * r
        self.mult_res_bytes = 8.0 * r * r
        self.piv_bytes = 4.0 * r
        # Allocation events keyed by the 0-based level whose dispatch
        # executes them ("kill after iteration i" fires in dispatch@i).
        self.events: dict[int, list[AllocationEvent]] = {}
        for k in range(cfg.nb):
            evs = cfg.schedule.removals_after(f"iter{k}")
            if evs:
                self.events[k] = evs

    def l21_bytes(self, k: int) -> float:
        """Wire size of the L21 blocks below the level-k diagonal."""
        rows = self.cfg.n - (k + 1) * self.cfg.r
        return 8.0 * rows * self.cfg.r

    def control_route(self, worker_index: int) -> int:
        """Control-thread index co-located with ``worker_index``."""
        return self.cfg.node_of_worker(worker_index)

    def planned_workers(self, k: int) -> int:
        """Live worker count while iteration ``k`` executes.

        Scheduled removals for "after iteration j" run inside
        ``dispatch@j`` before iteration ``j``'s panel factorization, so
        they are in force from iteration ``j`` onward.  Removal schedules
        must drop the highest thread indices (as the paper's strategies
        do) so survivors are exactly ``0..P'-1``.
        """
        removed = sum(
            len(e.thread_indices)
            for kk in range(k + 1)
            for e in self.events.get(kk, [])
        )
        return self.cfg.num_threads - removed

    def dispatch_home(self, k: int) -> int:
        """Control-thread index hosting dispatch@k / tdisp@k / c@k.

        Computed against the allocation iteration ``k`` will run under —
        posting with the pre-removal owner would route the dispatch
        instance onto a control thread it is about to remove.
        """
        return self.cfg.node_of_worker(k % self.planned_workers(k))

    def sink_expected(self) -> int:
        """Total notifications the termination sink collects."""
        nb = self.cfg.nb
        return 1 + nb * (nb - 1) // 2  # AllDone + one FlipDone per flip


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


class InitSplit(SplitOperation):
    """Distribute the matrix in column blocks onto the worker threads."""

    def __init__(self, shared: LUShared) -> None:
        self.shared = shared

    def run(self, ctx, obj):
        cfg = self.shared.cfg
        for j in range(cfg.nb):
            payload = None
            if self.shared.alloc:
                payload = self.shared.matrix[:, j * cfg.r : (j + 1) * cfg.r].copy()
            yield Compute(store_spec(self.shared.block_bytes), None)
            yield Post(
                DataObject(
                    "column_block",
                    payload=payload,
                    meta={"col": j},
                    declared_size=self.shared.block_bytes,
                ),
                to="store",
            )


class StoreBlock(LeafOperation):
    """Store a column block in the owner thread's state (operation init)."""

    def __init__(self, shared: LUShared) -> None:
        self.shared = shared

    def run(self, ctx, obj):
        j = obj.get("col")
        yield Compute(store_spec(self.shared.block_bytes), None)
        ctx.thread_state[("block", j)] = obj.payload
        # All readiness notifications converge on dispatch@0's single
        # instance, which lives at the control thread of column 0's owner.
        yield Post(
            DataObject("column_ready", meta={"col": j}, declared_size=0.0),
            to="dispatch@0",
            route=self.shared.dispatch_home(0),
        )


class DispatchState:
    """Mutable accumulator of a dispatch stream instance."""

    __slots__ = ("col_counts", "done_cols", "lugo_sent", "forwarded")

    def __init__(self) -> None:
        self.col_counts: dict[int, int] = {}
        self.done_cols: set[int] = set()
        self.lugo_sent = False
        self.forwarded: set[int] = set()


class Dispatch(StreamOperation):
    """(f) of Fig. 5: trigger level k and forward column readiness.

    Receives one notification per trailing-update completion of level k-1
    (or the initial store notifications for k = 0).  In pipelined mode it
    posts ``LuGo`` the moment column k is complete and forwards other
    columns as they finish; in basic mode it acts as a barrier.  Scheduled
    thread removals execute here, right before ``LuGo`` — the paper's
    "removing threads after iteration k".
    """

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k
        nb = shared.cfg.nb
        self.expected_per_col = 1 if k == 0 else nb - k
        self.total_cols = nb - k  # columns k..nb-1

    def instance_key(self, obj: DataObject) -> Any:
        return self.k

    def initial_state(self, ctx) -> DispatchState:
        return DispatchState()

    def combine(self, ctx, state: DispatchState, obj: DataObject):
        yield Compute(handling_spec(), None)
        j = obj.get("col")
        state.col_counts[j] = state.col_counts.get(j, 0) + 1
        if state.col_counts[j] == self.expected_per_col:
            state.done_cols.add(j)
            if self.shared.cfg.pipelined:
                if j == self.k:
                    yield from self._emit_lugo(ctx, state)
                else:
                    yield from self._forward(ctx, state, j)
            elif len(state.done_cols) == self.total_cols:
                yield from self._emit_lugo(ctx, state)
                for col in sorted(state.done_cols):
                    if col != self.k:
                        yield from self._forward(ctx, state, col)
        if state.lugo_sent and len(state.forwarded) == self.total_cols - 1:
            ctx.finish_instance()

    def _emit_lugo(self, ctx, state: DispatchState):
        for event in self.shared.events.get(self.k, []):
            yield Compute(handling_spec(), None)
            yield RemoveThreads(event.group, event.thread_indices)
            emptied = self._emptied_nodes(ctx, event)
            if emptied:
                yield RemoveThreads("control", sorted(emptied))
        state.lugo_sent = True
        yield Post(
            DataObject("lu_go", meta={"col": self.k}, declared_size=0.0),
            to=f"lu@{self.k}",
        )

    def _emptied_nodes(self, ctx, event: AllocationEvent) -> set[int]:
        cfg = self.shared.cfg
        occupied = {
            cfg.node_of_worker(w) for w in ctx.live_indices("workers")
        }
        removed_nodes = {cfg.node_of_worker(w) for w in event.thread_indices}
        # Node 0 hosts the main thread and can never be deallocated.
        return (removed_nodes - occupied) - {0}

    def _forward(self, ctx, state: DispatchState, j: int):
        state.forwarded.add(j)
        yield Post(
            DataObject("column_ready", meta={"col": j}, declared_size=0.0),
            to=f"tdisp@{self.k}",
            route=self.shared.control_route(self.k % ctx.group_size("workers")),
        )


class TrsmDispatchState:
    """Accumulator of the trsm-dispatch stream: the factored panel plus
    the column blocks waiting for it."""

    __slots__ = ("panel", "have_panel", "ready", "sent")

    def __init__(self) -> None:
        self.panel: Any = None
        self.have_panel = False
        self.ready: list[int] = []
        self.sent = 0


class TrsmDispatch(StreamOperation):
    """Join the level-k panel with column readiness; emit solve requests."""

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k
        self.expected_readys = shared.cfg.nb - 1 - k

    def instance_key(self, obj: DataObject) -> Any:
        return self.k

    def initial_state(self, ctx) -> TrsmDispatchState:
        return TrsmDispatchState()

    def combine(self, ctx, state: TrsmDispatchState, obj: DataObject):
        yield Compute(handling_spec(), None)
        if obj.kind == "panel_ready":
            state.panel = obj.payload
            state.have_panel = True
            pending, state.ready = state.ready, []
            for j in pending:
                yield from self._emit(ctx, state, j)
        else:
            j = obj.get("col")
            if state.have_panel:
                yield from self._emit(ctx, state, j)
            else:
                state.ready.append(j)
        if state.have_panel and state.sent == self.expected_readys:
            ctx.finish_instance()

    def _emit(self, ctx, state: TrsmDispatchState, j: int):
        state.sent += 1
        yield Post(
            DataObject(
                "trsm_go",
                payload=state.panel,
                meta={"col": j, "iter": self.k},
                declared_size=self.shared.panel_bytes,
            ),
            to=f"trsm@{self.k}",
        )


class LUPanel(LeafOperation):
    """(a) of Fig. 5: factor the level-k panel with partial pivoting."""

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k

    def run(self, ctx, obj):
        cfg = self.shared.cfg
        k, r, n, nb = self.k, cfg.r, cfg.n, cfg.nb
        ctx.mark_phase(f"iter{k + 1}")
        block = ctx.thread_state.get(("block", k))
        m = n - k * r

        def kernel():
            panel = block[k * r :, :]
            packed, piv = panel_lu(panel)
            block[k * r :, :] = packed
            return packed, piv

        result = yield Compute(
            panel_lu_spec(m, r), kernel if block is not None else None
        )
        packed, piv = result if result is not None else (None, None)
        if piv is not None:
            ctx.thread_state[("piv", k)] = piv
        # (g) row flipping on previous column blocks.
        for j in range(k):
            yield Post(
                DataObject(
                    "rowflip",
                    payload=piv,
                    meta={"col": j, "iter": k},
                    declared_size=self.shared.piv_bytes,
                ),
                to=f"rowflip@{k}",
            )
        if k == nb - 1:
            yield Post(
                DataObject("all_done", meta={"iter": k}, declared_size=0.0),
                to="sink",
            )
            return
        # L21 blocks to the request stream (local: same node).
        l21 = None
        if packed is not None:
            l21 = {
                i: packed[(i - k) * r : (i - k + 1) * r, :].copy()
                for i in range(k + 1, nb)
            }
        ctrl = self.shared.control_route(ctx.thread_index)
        yield Post(
            DataObject(
                "panel_for_c",
                payload=l21,
                meta={"iter": k},
                declared_size=self.shared.l21_bytes(k),
            ),
            to=f"c@{k}",
            route=ctrl,
        )
        # L11 + pivots to the solve dispatcher.
        panel_payload = None
        if packed is not None:
            panel_payload = (packed[:r, :].copy(), piv)
        yield Post(
            DataObject(
                "panel_ready",
                payload=panel_payload,
                meta={"iter": k},
                declared_size=self.shared.panel_bytes,
            ),
            to=f"tdisp@{k}",
            route=ctrl,
        )


class Trsm(LeafOperation):
    """(b) of Fig. 5: row flips + triangular solve for one column block."""

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k

    def run(self, ctx, obj):
        cfg = self.shared.cfg
        k, r = self.k, cfg.r
        j = obj.get("col")
        block = ctx.thread_state.get(("block", j))
        payload = obj.payload

        def swap_kernel():
            _, piv = payload
            apply_pivots(block[k * r :, :], piv)
            return True

        yield Compute(
            rowswap_spec(r, r),
            swap_kernel if (block is not None and payload is not None) else None,
        )

        def solve_kernel():
            l11, _ = payload
            t12 = trsm_block(l11, block[k * r : (k + 1) * r, :])
            block[k * r : (k + 1) * r, :] = t12
            return t12

        t12 = yield Compute(
            trsm_spec(r),
            solve_kernel if (block is not None and payload is not None) else None,
        )
        yield Post(
            DataObject(
                "t12",
                payload=t12,
                meta={"col": j, "iter": k},
                declared_size=self.shared.t12_bytes,
            ),
            to=f"c@{k}",
            route=self.shared.control_route(k % ctx.group_size("workers")),
        )


class CollectCState:
    """Accumulator of the multiplication-request stream (Fig. 5's (c)):
    the local L21 panel plus T12 notifications awaiting pairing."""

    __slots__ = ("l21", "have_l21", "pending", "t12_seen", "emitted", "rr")

    def __init__(self) -> None:
        self.l21: Any = None
        self.have_l21 = False
        self.pending: list[DataObject] = []
        self.t12_seen = 0
        self.emitted = 0
        self.rr = 0


class CollectC(StreamOperation):
    """(c) of Fig. 5: collect T12 blocks, stream multiplication requests.

    In pipelined mode each T12 arrival immediately fans out its row of
    block products; in basic mode all requests wait for the last solve
    (the merge-split barrier of the basic flow graph).  Flow control, when
    enabled, attaches to this vertex: it is "the stream operation that
    generates the multiplication requests".
    """

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k
        nb = shared.cfg.nb
        self.expected_t12 = nb - 1 - k
        self.total_requests = self.expected_t12 * self.expected_t12

    def instance_key(self, obj: DataObject) -> Any:
        return self.k

    def initial_state(self, ctx) -> CollectCState:
        return CollectCState()

    def combine(self, ctx, state: CollectCState, obj: DataObject):
        yield Compute(handling_spec(), None)
        if obj.kind == "panel_for_c":
            state.l21 = obj.payload
            state.have_l21 = True
        else:
            state.t12_seen += 1
            state.pending.append(obj)
        # Pipelined: release requests per column as soon as possible.
        # Basic: the merge-split barrier — nothing leaves before the last
        # triangular solve has reported in.
        releasable = state.have_l21 and (
            self.shared.cfg.pipelined or state.t12_seen == self.expected_t12
        )
        if releasable and state.pending:
            pending, state.pending = (
                sorted(state.pending, key=lambda o: o.get("col")),
                [],
            )
            for t12_obj in pending:
                yield from self._emit_column(ctx, state, t12_obj)
        if state.emitted == self.total_requests:
            ctx.finish_instance()

    def _emit_column(self, ctx, state: CollectCState, t12_obj: DataObject):
        cfg = self.shared.cfg
        j = t12_obj.get("col")
        t12 = t12_obj.payload
        for i in range(self.k + 1, cfg.nb):
            payload = None
            if state.l21 is not None and t12 is not None:
                payload = (state.l21[i], t12)
            state.emitted += 1
            index = state.rr
            state.rr += 1
            yield Post(
                DataObject(
                    "mult_req",
                    payload=payload,
                    meta={"row": i, "col": j, "iter": self.k},
                    declared_size=self.shared.mult_req_bytes,
                ),
                route=index,
            )


class Multiply(LeafOperation):
    """(d) of Fig. 5: one ``r x r`` block product."""

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k

    def run(self, ctx, obj):
        r = self.shared.cfg.r
        payload = obj.payload

        def kernel():
            l21_i, t12_j = payload
            return l21_i @ t12_j

        prod = yield Compute(gemm_spec(r), kernel if payload is not None else None)
        yield Post(
            DataObject(
                "mult_res",
                payload=prod,
                meta={"row": obj.get("row"), "col": obj.get("col"), "iter": self.k},
                declared_size=self.shared.mult_res_bytes,
            ),
        )


class Subtract(LeafOperation):
    """(e) of Fig. 5: subtract one product from the trailing column."""

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k

    def run(self, ctx, obj):
        cfg = self.shared.cfg
        r = cfg.r
        i, j = obj.get("row"), obj.get("col")
        block = ctx.thread_state.get(("block", j))
        prod = obj.payload

        def kernel():
            block[i * r : (i + 1) * r, :] -= prod
            return True

        yield Compute(
            sub_spec(r), kernel if (block is not None and prod is not None) else None
        )
        yield Post(
            DataObject(
                "sub_done",
                meta={"row": i, "col": j, "iter": self.k},
                declared_size=0.0,
            ),
            to=f"dispatch@{self.k + 1}",
            route=self.shared.dispatch_home(self.k + 1),
        )


class RowFlip(LeafOperation):
    """(g) of Fig. 5: ordered row exchanges on already-factored columns.

    Flips for column ``j`` must apply in iteration order; arrivals may be
    reordered by the network, so out-of-order pivot vectors are buffered
    in thread state and applied once their predecessors have been.
    """

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k

    def run(self, ctx, obj):
        cfg = self.shared.cfg
        r = cfg.r
        j = obj.get("col")
        state = ctx.thread_state
        pending = state.setdefault(("flips", j), {})
        pending[obj.get("iter")] = obj.payload
        nxt = state.setdefault(("flips_next", j), j + 1)
        applied = 0
        block = state.get(("block", j))
        while nxt in pending:
            piv = pending.pop(nxt)
            if block is not None and piv is not None:
                apply_pivots(block[nxt * r :, :], piv)
            applied += 1
            nxt += 1
        state[("flips_next", j)] = nxt

        if applied:
            yield Compute(rowswap_spec(applied * r, r), None)
        else:
            yield Compute(handling_spec(), None)
        yield Post(
            DataObject(
                "flip_done",
                meta={"col": j, "iter": self.k},
                declared_size=0.0,
            ),
            to="sink",
        )


class TerminationSink(StreamOperation):
    """(h) of Fig. 5: collect row-exchange and termination notifications."""

    def __init__(self, shared: LUShared) -> None:
        self.shared = shared
        self.expected = shared.sink_expected()

    def instance_key(self, obj: DataObject) -> Any:
        return "sink"

    def initial_state(self, ctx) -> dict:
        return {"count": 0}

    def combine(self, ctx, state: dict, obj: DataObject):
        state["count"] += 1
        if state["count"] == self.expected:
            ctx.finish_instance()
        return None


# --------------------------------------------------------------------------
# PM subgraph (Fig. 7): parallel sub-block multiplication
# --------------------------------------------------------------------------


def _pm_base(k: int, i: int, j: int) -> int:
    """Deterministic placement base for a request's sub-blocks."""
    return (i * 31 + j * 7 + k * 3) & 0x7FFFFFFF


class PMDistribute(SplitOperation):
    """(a) of Fig. 7: store the first matrix, send column blocks of B."""

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k

    def run(self, ctx, obj):
        cfg = self.shared.cfg
        r, s = cfg.r, cfg.pm_subblock
        i, j = obj.get("row"), obj.get("col")
        a = b = None
        if obj.payload is not None:
            a, b = obj.payload
        ctx.thread_state[("pm_a", self.k, i, j)] = a
        yield Compute(store_spec(8.0 * r * r), None)
        base = _pm_base(self.k, i, j)
        for q in range(r // s):
            col_payload = None
            if b is not None:
                col_payload = b[:, q * s : (q + 1) * s].copy()
            yield Post(
                DataObject(
                    "pm_storecol",
                    payload=col_payload,
                    meta={
                        "row": i,
                        "col": j,
                        "q": q,
                        "home": ctx.thread_index,
                        "iter": self.k,
                    },
                    declared_size=8.0 * r * s,
                ),
                route=base + q,
            )


class PMStore(LeafOperation):
    """(b) of Fig. 7: store a column sub-block on its thread."""

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k

    def run(self, ctx, obj):
        cfg = self.shared.cfg
        i, j, q = obj.get("row"), obj.get("col"), obj.get("q")
        key = ("pm_b", self.k, i, j, q)
        ctx.thread_state[key] = obj.payload
        ctx.thread_state[("pm_uses",) + key[1:]] = cfg.r // cfg.pm_subblock
        yield Compute(store_spec(8.0 * cfg.r * cfg.pm_subblock), None)
        yield Post(
            DataObject(
                "pm_stored",
                meta=dict(obj.meta),
                declared_size=0.0,
            ),
            route=obj.get("home"),
        )


class PMCollect(StreamOperation):
    """(c)+(d) of Fig. 7: collect store notifications, send line blocks."""

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k

    def initial_state(self, ctx) -> dict:
        return {}

    def combine(self, ctx, state: dict, obj: DataObject):
        state.setdefault("meta", dict(obj.meta))
        yield Compute(handling_spec(), None)

    def finalize(self, ctx, state: dict):
        cfg = self.shared.cfg
        r, s = cfg.r, cfg.pm_subblock
        meta = state["meta"]
        i, j = meta["row"], meta["col"]
        a = ctx.thread_state.pop(("pm_a", self.k, i, j), None)
        base = _pm_base(self.k, i, j)
        for p in range(r // s):
            line_payload = None
            if a is not None:
                line_payload = a[p * s : (p + 1) * s, :].copy()
            for q in range(r // s):
                yield Post(
                    DataObject(
                        "pm_linereq",
                        payload=line_payload,
                        meta={
                            "row": i,
                            "col": j,
                            "p": p,
                            "q": q,
                            "home": meta["home"],
                            "iter": self.k,
                        },
                        declared_size=8.0 * s * r,
                    ),
                    route=base + q,
                )


class PMMultiply(LeafOperation):
    """(e) of Fig. 7: multiply a line block with a stored column block."""

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k

    def run(self, ctx, obj):
        cfg = self.shared.cfg
        r, s = cfg.r, cfg.pm_subblock
        i, j, p, q = (obj.get("row"), obj.get("col"), obj.get("p"), obj.get("q"))
        bkey = ("pm_b", self.k, i, j, q)
        ukey = ("pm_uses", self.k, i, j, q)
        b = ctx.thread_state.get(bkey)
        a_p = obj.payload

        def kernel():
            return a_p @ b

        prod = yield Compute(
            sub_gemm_spec(s, r),
            kernel if (a_p is not None and b is not None) else None,
        )
        uses = ctx.thread_state.get(ukey)
        if uses is not None:
            if uses <= 1:
                ctx.thread_state.pop(bkey, None)
                ctx.thread_state.pop(ukey, None)
            else:
                ctx.thread_state[ukey] = uses - 1
        yield Post(
            DataObject(
                "pm_partres",
                payload=prod,
                meta={"row": i, "col": j, "p": p, "q": q, "iter": self.k},
                declared_size=8.0 * s * s,
            ),
            route=obj.get("home"),
        )


class PMAssemble(MergeOperation):
    """(f) of Fig. 7: build the ``r x r`` product from sub-block results."""

    def __init__(self, shared: LUShared, k: int) -> None:
        self.shared = shared
        self.k = k

    def initial_state(self, ctx) -> dict:
        return {"parts": {}, "meta": None}

    def combine(self, ctx, state: dict, obj: DataObject):
        if state["meta"] is None:
            state["meta"] = dict(obj.meta)
        state["parts"][(obj.get("p"), obj.get("q"))] = obj.payload
        return None

    def finalize(self, ctx, state: dict):
        cfg = self.shared.cfg
        r, s = cfg.r, cfg.pm_subblock
        meta = state["meta"]
        parts = state["parts"]
        prod = None
        if all(v is not None for v in parts.values()) and parts:
            import numpy as np

            prod = np.empty((r, r))
            for (p, q), part in parts.items():
                prod[p * s : (p + 1) * s, q * s : (q + 1) * s] = part
        yield Compute(store_spec(8.0 * r * r), None)
        yield Post(
            DataObject(
                "mult_res",
                payload=prod,
                meta={"row": meta["row"], "col": meta["col"], "iter": self.k},
                declared_size=self.shared.mult_res_bytes,
            )
        )


def build_pm_subgraph(shared: LUShared, k: int) -> FlowGraph:
    """The Fig. 7 multiplication subgraph for level ``k``."""
    g = FlowGraph(f"pm@{k}")
    g.add_split("pm_dist", lambda: PMDistribute(shared, k), group="workers")
    g.add_leaf("pm_store", lambda: PMStore(shared, k), group="workers")
    g.add_stream(
        "pm_collect", lambda: PMCollect(shared, k), group="workers", closes="pm_dist"
    )
    g.add_leaf("pm_mult", lambda: PMMultiply(shared, k), group="workers")
    g.add_merge(
        "pm_assemble", lambda: PMAssemble(shared, k), group="workers", closes="pm_collect"
    )
    # Posts carry explicit routes; edge routing functions are fallbacks.
    g.connect("pm_dist", "pm_store", Constant(0))
    g.connect("pm_store", "pm_collect", Constant(0))
    g.connect("pm_collect", "pm_mult", Constant(0))
    g.connect("pm_mult", "pm_assemble", Constant(0))
    return g


# --------------------------------------------------------------------------
# whole-application graph
# --------------------------------------------------------------------------


def build_lu_graph(shared: LUShared) -> FlowGraph:
    """Assemble the complete LU flow graph for one configuration."""
    cfg = shared.cfg
    nb = cfg.nb
    g = FlowGraph(f"lu-{cfg.variant_name}-n{cfg.n}-r{cfg.r}")

    g.add_split("init", lambda: InitSplit(shared), group="main")
    g.add_leaf("store", lambda: StoreBlock(shared), group="workers")
    g.add_keyed_stream("sink", lambda: TerminationSink(shared), group="main")
    g.connect("init", "store", Modulo("col"))

    for k in range(nb):
        shared_k = k  # bind loop variable for factories

        g.add_keyed_stream(
            f"dispatch@{k}",
            (lambda kk=shared_k: Dispatch(shared, kk)),
            group="control",
        )
        g.add_leaf(
            f"lu@{k}", (lambda kk=shared_k: LUPanel(shared, kk)), group="workers"
        )
        g.connect(f"dispatch@{k}", f"lu@{k}", Modulo("col"))
        if k > 0:
            g.add_leaf(
                f"rowflip@{k}",
                (lambda kk=shared_k: RowFlip(shared, kk)),
                group="workers",
            )
            g.connect(f"lu@{k}", f"rowflip@{k}", Modulo("col"))
            g.connect(f"rowflip@{k}", "sink", Constant(0))
        if k == nb - 1:
            g.connect(f"lu@{k}", "sink", Constant(0))
            continue

        g.add_keyed_stream(
            f"tdisp@{k}", (lambda kk=shared_k: TrsmDispatch(shared, kk)), group="control"
        )
        g.add_leaf(
            f"trsm@{k}", (lambda kk=shared_k: Trsm(shared, kk)), group="workers"
        )
        g.add_keyed_stream(
            f"c@{k}",
            (lambda kk=shared_k: CollectC(shared, kk)),
            group="control",
            max_in_flight=cfg.flow_control,
        )
        g.add_leaf(
            f"mult@{k}", (lambda kk=shared_k: Multiply(shared, kk)), group="workers"
        )
        g.add_leaf(
            f"sub@{k}", (lambda kk=shared_k: Subtract(shared, kk)), group="workers"
        )

        g.connect(f"dispatch@{k}", f"tdisp@{k}", Constant(0))
        g.connect(f"lu@{k}", f"tdisp@{k}", Constant(0))
        g.connect(f"lu@{k}", f"c@{k}", Constant(0))
        g.connect(f"tdisp@{k}", f"trsm@{k}", Modulo("col"))
        g.connect(f"trsm@{k}", f"c@{k}", Constant(0))
        g.connect(f"c@{k}", f"mult@{k}", Constant(0))
        g.connect(f"mult@{k}", f"sub@{k}", Modulo("col"))

        if cfg.pm_subblock is not None:
            g.replace_leaf(
                f"mult@{k}",
                build_pm_subgraph(shared, k),
                entry="pm_dist",
                exit_="pm_assemble",
            )

    # Edges into dispatch vertices (all of which now exist).
    g.connect("store", "dispatch@0", Constant(0))
    for k in range(nb - 1):
        g.connect(f"sub@{k}", f"dispatch@{k + 1}", Constant(0))
    return g
