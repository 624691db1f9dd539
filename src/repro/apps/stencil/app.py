"""Jacobi stencil application: iterative neighborhood exchange under DPS.

A third application domain beside LU and matmul, exercising the DPS
features the paper highlights for iterative codes:

* **relative-index neighbourhood routing** — each stripe exchanges halo
  rows with its vertical neighbours every iteration ("Communication
  patterns such as neighborhood exchanges can easily be specified by using
  relative thread indices", section 2);
* **keyed streams** as per-(stripe, iteration) synchronization gates in
  the pipelined variant;
* **barrier vs pipelined** flow-graph variants, mirroring the paper's
  basic/pipelined LU comparison — and, in the barrier variant, **dynamic
  thread removal** at iteration boundaries.

Unlike LU, the stencil's per-iteration work is *constant*, so its dynamic
efficiency profile is flat and node removal costs running time
proportionally — a useful contrast when studying allocation policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.apps.stencil.kernels import (
    halo_handling_spec,
    initial_grid,
    jacobi_spec,
    jacobi_sweep,
    reference_jacobi,
)
from repro.dps.data_objects import DataObject
from repro.dps.deployment import Deployment
from repro.dps.flowgraph import FlowGraph
from repro.dps.malleability import (
    STATIC,
    AllocationSchedule,
    MigrationPlanner,
    modulo_owner_planner,
)
from repro.dps.operations import (
    Compute,
    LeafOperation,
    Post,
    RemoveThreads,
    StreamOperation,
)
from repro.dps.routing import Constant, Modulo
from repro.dps.runtime import Runtime
from repro.errors import ConfigurationError, VerificationError
from repro.sim.modes import SimulationMode


@dataclass(frozen=True)
class StencilConfig:
    """One Jacobi stencil run.

    Parameters
    ----------
    n:
        Grid side; the grid is ``n x n`` with Dirichlet boundaries.
    stripes:
        Number of horizontal stripes (must divide ``n``); stripe ``i`` is
        owned by worker thread ``i % live_workers``.
    iterations:
        Number of Jacobi sweeps.
    num_threads / num_nodes:
        Worker thread count and node count (thread ``t`` on node
        ``t % num_nodes``).
    barrier:
        ``True``: iterations synchronize through the main node (the
        "basic" variant), which cleanly separates iterations and permits
        dynamic thread removal.  ``False``: pipelined halo exchange
        directly between workers through keyed-stream gates.
    mode:
        Payload/duration handling (see :class:`SimulationMode`).
    schedule:
        Dynamic-allocation strategy; only valid with ``barrier=True``.
        Event phases are iteration labels (``"iter1"``...).
    """

    n: int = 128
    stripes: int = 4
    iterations: int = 8
    num_threads: int = 4
    num_nodes: int = 2
    barrier: bool = False
    mode: SimulationMode = SimulationMode.PDEXEC
    seed: int = 7
    schedule: AllocationSchedule = STATIC

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ConfigurationError(f"grid side n must be >= 4, got {self.n}")
        if self.stripes < 1:
            raise ConfigurationError("need at least one stripe")
        if self.n % self.stripes != 0:
            raise ConfigurationError(
                f"stripes={self.stripes} must divide n={self.n}"
            )
        if self.iterations < 1:
            raise ConfigurationError("need at least one iteration")
        if self.num_nodes < 1 or self.num_threads < self.num_nodes:
            raise ConfigurationError(
                "need >= 1 node and at least one worker thread per node"
            )
        if self.schedule.events and not self.barrier:
            raise ConfigurationError(
                "dynamic thread removal requires the barrier variant "
                "(iterations must be cleanly separated)"
            )
        for event in self.schedule.events:
            if event.group != "workers":
                raise ConfigurationError(
                    f"stencil schedules may only remove 'workers' threads, "
                    f"got {event.group!r}"
                )
            removed = set(event.thread_indices)
            if not removed.issubset(range(self.num_threads)):
                raise ConfigurationError(
                    f"schedule removes unknown worker threads: {sorted(removed)}"
                )
        if self.schedule.total_removed >= self.num_threads:
            raise ConfigurationError("schedule would remove every worker thread")

    @property
    def rows(self) -> int:
        """Rows per stripe."""
        return self.n // self.stripes

    @property
    def stripe_bytes(self) -> float:
        """Payload bytes of one stripe."""
        return 8.0 * self.rows * self.n

    @property
    def halo_bytes(self) -> float:
        """Payload bytes of one halo row."""
        return 8.0 * self.n

    def node_of_worker(self, t: int) -> int:
        """Deployment rule: worker thread ``t`` lives on this node."""
        return t % self.num_nodes


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


class _Start(LeafOperation):
    """Distribute the initial stripes to their owner threads."""

    def __init__(self, app: "StencilApplication") -> None:
        self.app = app

    def run(self, ctx, obj):
        """Post one ``stripe_init`` object per stripe."""
        cfg = self.app.cfg
        if not cfg.barrier:
            ctx.mark_phase("iter1")
        grid = self.app.grid
        for i in range(cfg.stripes):
            payload = None
            if grid is not None:
                payload = grid[i * cfg.rows : (i + 1) * cfg.rows].copy()
            yield Compute(halo_handling_spec(), None)
            yield Post(
                DataObject(
                    "stripe_init",
                    payload=payload,
                    meta={"i": i},
                    declared_size=cfg.stripe_bytes,
                )
            )


class _Load(LeafOperation):
    """Store a stripe locally and emit the iteration-1 ingredients."""

    def __init__(self, app: "StencilApplication") -> None:
        self.app = app

    def run(self, ctx, obj):
        """Store the stripe and emit the first iteration's inputs."""
        cfg = self.app.cfg
        i = obj.get("i")
        stripe = obj.payload
        ctx.thread_state[("stripe", i)] = stripe
        yield Compute(halo_handling_spec(), None)
        if cfg.barrier:
            edges = None
            if stripe is not None:
                edges = (stripe[0].copy(), stripe[-1].copy())
            yield Post(
                DataObject(
                    "loaded",
                    payload=edges,
                    meta={"i": i, "k": 0, "residual": 0.0},
                    declared_size=2.0 * cfg.halo_bytes,
                )
            )
            return
        # Pipelined: my own ready token, plus my edge rows as the
        # neighbours' halos, all for iteration 1.
        yield from _post_halos(
            self.app,
            i,
            1,
            None if stripe is None else stripe[0],
            None if stripe is None else stripe[-1],
        )
        yield Post(
            DataObject("token", meta={"i": i, "k": 1}, declared_size=0.0),
            to="gate@1",
        )


def _post_halos(
    app: "StencilApplication",
    i: int,
    k: int,
    top_row: Optional[np.ndarray],
    bottom_row: Optional[np.ndarray],
):
    """Post stripe ``i``'s edge rows to its neighbours' iteration-``k`` gates.

    The *top* row of stripe ``i`` is the *bottom* halo of stripe ``i-1``;
    the *bottom* row is the *top* halo of stripe ``i+1``.
    """
    cfg = app.cfg
    gate = f"gate@{k}"
    if i > 0:
        yield Post(
            DataObject(
                "halo",
                payload=None if top_row is None else top_row.copy(),
                meta={"i": i - 1, "k": k, "side": "bottom"},
                declared_size=cfg.halo_bytes,
            ),
            to=gate,
        )
    if i < cfg.stripes - 1:
        yield Post(
            DataObject(
                "halo",
                payload=None if bottom_row is None else bottom_row.copy(),
                meta={"i": i + 1, "k": k, "side": "top"},
                declared_size=cfg.halo_bytes,
            ),
            to=gate,
        )


class _HaloGate(StreamOperation):
    """Keyed stream gating one (stripe, iteration) sweep on its inputs.

    Expects the stripe's own ready token plus one halo per existing
    vertical neighbour; when complete it triggers the sweep locally.
    """

    def __init__(self, app: "StencilApplication") -> None:
        self.app = app

    def instance_key(self, obj: DataObject) -> Any:
        """One gate instance per (stripe, iteration)."""
        return (obj.get("i"), obj.get("k"))

    def initial_state(self, ctx) -> dict:
        """Halo accumulator: the two neighbour rows plus an input count."""
        return {"top": None, "bottom": None, "count": 0}

    def _expected(self, i: int) -> int:
        cfg = self.app.cfg
        neighbours = (1 if i > 0 else 0) + (1 if i < cfg.stripes - 1 else 0)
        return 1 + neighbours

    def combine(self, ctx, state, obj):
        """Collect halos/token; trigger the sweep when all inputs are in."""
        yield Compute(halo_handling_spec(), None)
        if obj.kind == "halo":
            state[obj.get("side")] = obj.payload
        state["count"] += 1
        i, k = obj.get("i"), obj.get("k")
        if state["count"] == self._expected(i):
            payload = None
            if self.app.cfg.mode.allocates:
                payload = (state["top"], state["bottom"])
            yield Post(
                DataObject(
                    "sweep_req",
                    payload=payload,
                    meta={"i": i, "k": k},
                    declared_size=0.0,
                )
            )
            ctx.finish_instance()


class _Sweep(LeafOperation):
    """One Jacobi sweep of one stripe; emits next-iteration ingredients."""

    def __init__(self, app: "StencilApplication") -> None:
        self.app = app

    def run(self, ctx, obj):
        """Relax the stripe once; emit next-iteration inputs and progress."""
        cfg = self.app.cfg
        i, k = obj.get("i"), obj.get("k")
        stripe = ctx.thread_state.get(("stripe", i))
        top: Optional[np.ndarray] = None
        bottom: Optional[np.ndarray] = None
        if obj.payload is not None:
            top, bottom = obj.payload

        def kernel():
            return jacobi_sweep(stripe, top, bottom)

        outcome = yield Compute(
            jacobi_spec(cfg.rows, cfg.n),
            kernel if stripe is not None else None,
        )
        residual = 0.0
        new = None
        if outcome is not None:
            new, residual = outcome
            ctx.thread_state[("stripe", i)] = new
        if cfg.barrier:
            edges = None
            if new is not None:
                edges = (new[0].copy(), new[-1].copy())
            yield Post(
                DataObject(
                    "stripe_done",
                    payload=edges,
                    meta={"i": i, "k": k, "residual": residual},
                    declared_size=2.0 * cfg.halo_bytes,
                ),
            )
            return
        if k < cfg.iterations:
            yield from _post_halos(
                self.app,
                i,
                k + 1,
                None if new is None else new[0],
                None if new is None else new[-1],
            )
            yield Post(
                DataObject("token", meta={"i": i, "k": k + 1}, declared_size=0.0),
                to=f"gate@{k + 1}",
            )
        yield Post(
            DataObject(
                "progress",
                meta={"i": i, "k": k, "residual": residual},
                declared_size=0.0,
            ),
            to="collect",
        )


class _PipelinedCollector(StreamOperation):
    """Keyed per-iteration progress collector (pipelined variant).

    Receives one ``progress`` notification per (stripe, iteration); when
    an iteration has fully completed it records the residual and marks the
    next iteration's phase boundary.  Iterations overlap in the pipelined
    variant, so the boundary is approximate — the same blur the paper's
    pipelined LU graph exhibits.
    """

    def __init__(self, app: "StencilApplication") -> None:
        self.app = app

    def instance_key(self, obj: DataObject) -> Any:
        """One collector instance per iteration."""
        return obj.get("k")

    def initial_state(self, ctx) -> dict:
        """Per-iteration progress accumulator."""
        return {"residual": 0.0, "count": 0}

    def combine(self, ctx, state, obj):
        """Count per-stripe completions; mark the next phase when full."""
        app = self.app
        cfg = app.cfg
        yield Compute(halo_handling_spec(), None)
        state["count"] += 1
        state["residual"] = max(state["residual"], obj.get("residual", 0.0))
        k = obj.get("k")
        if state["count"] != cfg.stripes:
            return
        app.residuals[k] = state["residual"]
        app.iteration_times[k] = ctx.now
        if k < cfg.iterations:
            ctx.mark_phase(f"iter{k + 1}")
        ctx.finish_instance()


class _BarrierCollector(StreamOperation):
    """Per-iteration barrier on the main thread (barrier variant).

    The vertex ``collect@k`` gathers iteration ``k``'s completions
    (``k=0``: the initial stripe loads), performs any scheduled thread
    removal, then dispatches iteration ``k+1`` — the clean separation of
    iterations the paper relies on for its thread-removal experiments.
    """

    def __init__(self, app: "StencilApplication", k: int) -> None:
        self.app = app
        self.k = k

    def instance_key(self, obj: DataObject) -> Any:
        """All of iteration ``k``'s traffic shares one barrier instance."""
        return self.k

    def initial_state(self, ctx) -> dict:
        """Barrier accumulator: per-stripe edge rows and progress."""
        return {"edges": {}, "residual": 0.0, "count": 0}

    def combine(self, ctx, state, obj):
        """Gather the iteration; then remove threads and dispatch the next."""
        app = self.app
        cfg = app.cfg
        k = self.k
        yield Compute(halo_handling_spec(), None)
        state["count"] += 1
        state["edges"][obj.get("i")] = obj.payload
        state["residual"] = max(state["residual"], obj.get("residual", 0.0))
        if state["count"] != cfg.stripes:
            return
        if k >= 1:
            app.residuals[k] = state["residual"]
            app.iteration_times[k] = ctx.now
            for event in cfg.schedule.removals_after(f"iter{k}"):
                yield Compute(halo_handling_spec(), None)
                yield RemoveThreads(event.group, event.thread_indices)
        if k < cfg.iterations:
            ctx.mark_phase(f"iter{k + 1}")
            yield from self._dispatch(state["edges"], k + 1)
        ctx.finish_instance()

    def _dispatch(self, edges: dict, k: int):
        """Send every stripe its iteration-``k`` sweep request."""
        cfg = self.app.cfg
        for i in range(cfg.stripes):
            payload = None
            if cfg.mode.allocates:
                above = edges.get(i - 1)
                below = edges.get(i + 1)
                payload = (
                    None if above is None else above[1],
                    None if below is None else below[0],
                )
            yield Post(
                DataObject(
                    "sweep_go",
                    payload=payload,
                    meta={"i": i, "k": k},
                    declared_size=2.0 * cfg.halo_bytes,
                ),
                to=f"sweep@{k}",
            )


# --------------------------------------------------------------------------
# the application object
# --------------------------------------------------------------------------


class StencilApplication:
    """Jacobi heat relaxation, runnable on any execution engine."""

    def __init__(self, cfg: StencilConfig) -> None:
        self.cfg = cfg
        self.grid: Optional[np.ndarray] = None
        if cfg.mode.allocates:
            self.grid = initial_grid(cfg.n, seed=cfg.seed)
        self.original = self.grid.copy() if self.grid is not None else None
        #: per-iteration maximum absolute update (filled during the run)
        self.residuals: dict[int, float] = {}
        #: simulation time at which each iteration completed
        self.iteration_times: dict[int, float] = {}
        self._runtime: Optional[Runtime] = None

    # --------------------------------------------------- Application proto
    def build_graph(self) -> FlowGraph:
        """Construct the stencil flow graph.

        The iteration loop is unrolled into per-iteration vertices — the
        DPS idiom for iterative algorithms ("the gray part is repeated for
        every column of blocks in the matrix", paper Fig. 5).
        """
        cfg = self.cfg
        variant = "barrier" if cfg.barrier else "pipelined"
        g = FlowGraph(f"stencil-n{cfg.n}-s{cfg.stripes}-{variant}")
        g.add_leaf("start", lambda: _Start(self), group="main")
        g.add_leaf("load", lambda: _Load(self), group="workers")
        g.connect("start", "load", Modulo("i"))
        if cfg.barrier:
            for k in range(cfg.iterations + 1):
                g.add_keyed_stream(
                    f"collect@{k}",
                    lambda k=k: _BarrierCollector(self, k),
                    group="main",
                )
            g.connect("load", "collect@0", Constant(0))
            for k in range(1, cfg.iterations + 1):
                g.add_leaf(f"sweep@{k}", lambda: _Sweep(self), group="workers")
                g.connect(f"collect@{k - 1}", f"sweep@{k}", Modulo("i"))
                g.connect(f"sweep@{k}", f"collect@{k}", Constant(0))
            return g
        g.add_keyed_stream(
            "collect", lambda: _PipelinedCollector(self), group="main"
        )
        for k in range(1, cfg.iterations + 1):
            g.add_keyed_stream(
                f"gate@{k}", lambda: _HaloGate(self), group="workers"
            )
            g.add_leaf(f"sweep@{k}", lambda: _Sweep(self), group="workers")
        for k in range(1, cfg.iterations + 1):
            g.connect(f"gate@{k}", f"sweep@{k}", Modulo("i"))
            g.connect(f"sweep@{k}", "collect", Constant(0))
            if k < cfg.iterations:
                g.connect(f"sweep@{k}", f"gate@{k + 1}", Modulo("i"))
        g.connect("load", "gate@1", Modulo("i"))
        return g

    def build_deployment(self) -> Deployment:
        cfg = self.cfg
        dep = Deployment(cfg.num_nodes)
        dep.add_singleton("main", 0)
        dep.add_group(
            "workers",
            [cfg.node_of_worker(t) for t in range(cfg.num_threads)],
        )
        return dep

    def bootstrap(self, runtime: Runtime) -> None:
        self._runtime = runtime
        runtime.inject(
            "start", DataObject("stencil_job", meta={"n": self.cfg.n})
        )

    def migration_planner(self) -> Optional[MigrationPlanner]:
        cfg = self.cfg

        def key_index(key: Any) -> Optional[int]:
            if isinstance(key, tuple) and len(key) == 2 and key[0] == "stripe":
                return int(key[1])
            return None

        def size_of(key: Any, value: Any) -> float:
            if isinstance(key, tuple) and key and key[0] == "stripe":
                return cfg.stripe_bytes
            return float(getattr(value, "nbytes", 0.0))

        return modulo_owner_planner(key_index, size_of)

    # -------------------------------------------------------- verification
    def gather_grid(self, runtime: Optional[Runtime] = None) -> np.ndarray:
        """Reassemble the full grid from the live workers' stripe states."""
        runtime = runtime or self._runtime
        if runtime is None:
            raise VerificationError("application has not been run yet")
        if self.original is None:
            raise VerificationError(
                "gather_grid requires an allocating mode (payloads were elided)"
            )
        import numpy as np

        cfg = self.cfg
        grid = np.empty((cfg.n, cfg.n))
        found = 0
        for thread in runtime.live_threads("workers"):
            for key, value in thread.state.items():
                if isinstance(key, tuple) and key[0] == "stripe":
                    i = key[1]
                    grid[i * cfg.rows : (i + 1) * cfg.rows] = value
                    found += 1
        if found != cfg.stripes:
            raise VerificationError(
                f"expected {cfg.stripes} stripes in thread states, found {found}"
            )
        return grid

    def verify(
        self, runtime: Optional[Runtime] = None, atol: float = 1e-12
    ) -> float:
        """Compare the distributed result against the sequential reference."""
        import numpy as np

        grid = self.gather_grid(runtime)
        expected = reference_jacobi(self.original, self.cfg.iterations)
        error = float(np.max(np.abs(grid - expected)))
        if error > atol:
            raise VerificationError(
                f"stencil result deviates from the sequential reference by "
                f"{error:.3e} (atol {atol:.1e})"
            )
        return error
