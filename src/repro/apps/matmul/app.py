"""Parallel matrix multiplication using the Fig. 7 flow graph.

``C = A @ B`` with ``A`` cut into line blocks and ``B`` into column
blocks: "(a) distributes the column blocks of the second matrix to the
processing nodes, which (b) store them locally.  Each sub-block
multiplication can then be performed by (d) sending the line blocks of the
first matrix to the processing nodes, which (e) multiply them with the
locally stored column blocks."

Unlike the LU graph (which uses keyed streams), this application exercises
the frame-based split/stream/merge pairing of the DPS runtime end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.apps.lu.costs import handling_spec, sub_gemm_spec
from repro.dps.data_objects import DataObject
from repro.dps.deployment import Deployment
from repro.dps.flowgraph import FlowGraph
from repro.dps.operations import (
    Compute,
    LeafOperation,
    MergeOperation,
    Post,
    SplitOperation,
    StreamOperation,
)
from repro.dps.routing import Constant, Modulo
from repro.dps.runtime import Runtime
from repro.errors import ConfigurationError, VerificationError
from repro.sim.modes import SimulationMode


@dataclass(frozen=True)
class MatmulConfig:
    """One parallel matrix-multiplication run."""

    n: int = 256
    s: int = 64  # sub-block size: line blocks s x n, column blocks n x s
    num_threads: int = 4
    num_nodes: int = 2
    mode: SimulationMode = SimulationMode.PDEXEC
    seed: int = 11

    def __post_init__(self) -> None:
        if self.n % self.s != 0:
            raise ConfigurationError(f"s={self.s} must divide n={self.n}")
        if self.num_threads < self.num_nodes:
            raise ConfigurationError("need at least one thread per node")

    @property
    def blocks(self) -> int:
        return self.n // self.s


class _Distribute(SplitOperation):
    """(a): store A in thread state at home, send column blocks of B."""

    def __init__(self, app: "MatmulApplication") -> None:
        self.app = app

    def run(self, ctx, obj):
        cfg = self.app.cfg
        a, b = (None, None)
        if obj.payload is not None:
            a, b = obj.payload
        ctx.thread_state["matmul_a"] = a
        for q in range(cfg.blocks):
            payload = None
            if b is not None:
                payload = b[:, q * cfg.s : (q + 1) * cfg.s].copy()
            yield Compute(handling_spec(), None)
            yield Post(
                DataObject(
                    "colblock",
                    payload=payload,
                    meta={"q": q},
                    declared_size=8.0 * cfg.n * cfg.s,
                ),
            )


class _Store(LeafOperation):
    """(b): store a column block on the receiving thread."""

    def __init__(self, app: "MatmulApplication") -> None:
        self.app = app

    def run(self, ctx, obj):
        ctx.thread_state[("matmul_b", obj.get("q"))] = obj.payload
        yield Compute(handling_spec(), None)
        yield Post(
            DataObject("stored", meta={"q": obj.get("q")}, declared_size=0.0)
        )


class _SendLines(StreamOperation):
    """(c)+(d): collect store notifications, send line blocks of A."""

    def __init__(self, app: "MatmulApplication") -> None:
        self.app = app

    def initial_state(self, ctx) -> dict:
        return {}

    def combine(self, ctx, state, obj):
        yield Compute(handling_spec(), None)

    def finalize(self, ctx, state):
        cfg = self.app.cfg
        a = ctx.thread_state.get("matmul_a")
        for p in range(cfg.blocks):
            line = None
            if a is not None:
                line = a[p * cfg.s : (p + 1) * cfg.s, :].copy()
            for q in range(cfg.blocks):
                yield Post(
                    DataObject(
                        "linereq",
                        payload=line,
                        meta={"p": p, "q": q},
                        declared_size=8.0 * cfg.s * cfg.n,
                    )
                )


class _Multiply(LeafOperation):
    """(e): multiply a line block with the locally stored column block."""

    def __init__(self, app: "MatmulApplication") -> None:
        self.app = app

    def run(self, ctx, obj):
        cfg = self.app.cfg
        line = obj.payload
        b_col = ctx.thread_state.get(("matmul_b", obj.get("q")))

        def kernel():
            return line @ b_col

        prod = yield Compute(
            sub_gemm_spec(cfg.s, cfg.n),
            kernel if (line is not None and b_col is not None) else None,
        )
        yield Post(
            DataObject(
                "partres",
                payload=prod,
                meta={"p": obj.get("p"), "q": obj.get("q")},
                declared_size=8.0 * cfg.s * cfg.s,
            )
        )


class _Build(MergeOperation):
    """(f): collect multiplication results and build the product matrix."""

    def __init__(self, app: "MatmulApplication") -> None:
        self.app = app

    def initial_state(self, ctx) -> dict:
        return {}

    def combine(self, ctx, state, obj):
        state[(obj.get("p"), obj.get("q"))] = obj.payload
        return None

    def finalize(self, ctx, state):
        cfg = self.app.cfg
        c = None
        if state and all(v is not None for v in state.values()):
            import numpy as np

            c = np.empty((cfg.n, cfg.n))
            for (p, q), part in state.items():
                c[p * cfg.s : (p + 1) * cfg.s, q * cfg.s : (q + 1) * cfg.s] = part
        self.app.result = c
        yield Compute(handling_spec(), None)
        yield Post(DataObject("done", meta={"parts": len(state)}, declared_size=0.0))


class _Done(StreamOperation):
    """Termination sink."""

    def instance_key(self, obj: DataObject) -> Any:
        return "done"

    def combine(self, ctx, state, obj):
        ctx.finish_instance()
        return None


class MatmulApplication:
    """``C = A @ B`` on the Fig. 7 flow graph; runnable on any engine."""

    def __init__(self, cfg: MatmulConfig) -> None:
        self.cfg = cfg
        self.a: Optional[np.ndarray] = None
        self.b: Optional[np.ndarray] = None
        self.result: Optional[np.ndarray] = None
        if cfg.mode.allocates:
            import numpy as np

            rng = np.random.default_rng(cfg.seed)
            self.a = rng.standard_normal((cfg.n, cfg.n))
            self.b = rng.standard_normal((cfg.n, cfg.n))

    # --------------------------------------------------- Application proto
    def build_graph(self) -> FlowGraph:
        g = FlowGraph(f"matmul-n{self.cfg.n}-s{self.cfg.s}")
        g.add_split("distribute", lambda: _Distribute(self), group="main")
        g.add_leaf("store", lambda: _Store(self), group="workers")
        g.add_stream(
            "sendlines", lambda: _SendLines(self), group="main", closes="distribute"
        )
        g.add_leaf("multiply", lambda: _Multiply(self), group="workers")
        g.add_merge("build", lambda: _Build(self), group="main", closes="sendlines")
        g.add_keyed_stream("done", _Done, group="main")
        g.connect("distribute", "store", Modulo("q"))
        g.connect("store", "sendlines", Constant(0))
        g.connect("sendlines", "multiply", Modulo("q"))
        g.connect("multiply", "build", Constant(0))
        g.connect("build", "done", Constant(0))
        return g

    def build_deployment(self) -> Deployment:
        cfg = self.cfg
        dep = Deployment(cfg.num_nodes)
        dep.add_singleton("main", 0)
        dep.add_group(
            "workers", [t % cfg.num_nodes for t in range(cfg.num_threads)]
        )
        return dep

    def bootstrap(self, runtime: Runtime) -> None:
        payload = None
        if self.a is not None:
            payload = (self.a, self.b)
        runtime.inject(
            "distribute",
            DataObject("matmul_job", payload=payload, meta={"n": self.cfg.n}),
        )

    def migration_planner(self):
        return None

    # -------------------------------------------------------- verification
    def verify(self, rtol: float = 1e-10) -> float:
        """Compare the distributed product against ``A @ B``."""
        if self.a is None or self.result is None:
            raise VerificationError("matmul ran without payloads; nothing to verify")
        import numpy as np

        expected = self.a @ self.b
        residual = float(
            np.linalg.norm(self.result - expected) / max(np.linalg.norm(expected), 1e-300)
        )
        if residual > rtol:
            raise VerificationError(f"matmul residual {residual:.3e} > {rtol:.1e}")
        return residual
