"""The LU application object: configuration, wiring and verification."""

from __future__ import annotations

from typing import Optional

from repro.apps.lu.blockmath import random_matrix, verify_factorization
from repro.apps.lu.config import LUConfig
from repro.apps.lu.graphs import LUShared, build_lu_graph
from repro.dps.data_objects import DataObject
from repro.dps.deployment import Deployment
from repro.dps.flowgraph import FlowGraph
from repro.dps.malleability import MigrationPlanner, modulo_owner_planner
from repro.dps.runtime import Runtime
from repro.errors import VerificationError
from repro.sim.modes import SimulationMode


class LUApplication:
    """Parallel block LU factorization, runnable on any execution engine.

    One instance describes one run configuration.  The same object runs
    under :class:`~repro.sim.simulator.DPSSimulator` (prediction) and
    :class:`~repro.testbed.executor.TestbedExecutor` (measurement) — the
    paper's "real and simulated applications may be run identically".
    """

    def __init__(self, cfg: LUConfig) -> None:
        self.cfg = cfg
        matrix: Optional[np.ndarray] = None
        if cfg.mode is not SimulationMode.PDEXEC_NOALLOC:
            matrix = random_matrix(cfg.n, seed=cfg.matrix_seed)
        self.original = matrix.copy() if matrix is not None else None
        self.shared = LUShared(cfg, matrix)
        self._runtime: Optional[Runtime] = None

    # --------------------------------------------------- Application proto
    def build_graph(self) -> FlowGraph:
        return build_lu_graph(self.shared)

    def build_deployment(self) -> Deployment:
        cfg = self.cfg
        dep = Deployment(cfg.num_nodes)
        dep.add_singleton("main", 0)
        dep.add_per_node("control")
        dep.add_group(
            "workers",
            [cfg.node_of_worker(t) for t in range(cfg.num_threads)],
        )
        return dep

    def bootstrap(self, runtime: Runtime) -> None:
        self._runtime = runtime
        runtime.inject("init", DataObject("lu_job", meta={"n": self.cfg.n}))

    def migration_planner(self) -> Optional[MigrationPlanner]:
        shared = self.shared

        def key_index(key) -> Optional[int]:
            if isinstance(key, tuple) and len(key) == 2 and key[0] in (
                "block",
                "piv",
                "flips",
                "flips_next",
            ):
                return int(key[1])
            return None

        def size_of(key, value) -> float:
            if isinstance(key, tuple) and key and key[0] == "block":
                return shared.block_bytes
            if isinstance(key, tuple) and key and key[0] == "piv":
                return shared.piv_bytes
            return float(getattr(value, "nbytes", 0.0))

        return modulo_owner_planner(key_index, size_of)

    # -------------------------------------------------------- verification
    def gather_lu(self, runtime: Runtime) -> tuple[np.ndarray, np.ndarray]:
        """Collect the factored column blocks and pivots after a run.

        Only meaningful when payloads were allocated.  Returns the packed
        LU matrix and the global row permutation.
        """
        import numpy as np

        cfg = self.cfg
        if self.original is None:
            raise VerificationError(
                "gather_lu requires an allocating mode (payloads were elided)"
            )
        lu = np.empty((cfg.n, cfg.n))
        pivs: dict[int, np.ndarray] = {}
        found = 0
        for thread in runtime.live_threads("workers"):
            for key, value in thread.state.items():
                if isinstance(key, tuple) and key[0] == "block":
                    lu[:, key[1] * cfg.r : (key[1] + 1) * cfg.r] = value
                    found += 1
                elif isinstance(key, tuple) and key[0] == "piv":
                    pivs[key[1]] = value
        if found != cfg.nb:
            raise VerificationError(
                f"expected {cfg.nb} column blocks in thread states, found {found}"
            )
        if sorted(pivs) != list(range(cfg.nb)):
            raise VerificationError("missing pivot vectors in thread states")
        perm = np.arange(cfg.n)
        for k in range(cfg.nb):
            lo = k * cfg.r
            for i, p in enumerate(pivs[k]):
                p = int(p)
                if p != i:
                    perm[[lo + i, lo + p]] = perm[[lo + p, lo + i]]
        return lu, perm

    def verify(self, runtime: Optional[Runtime] = None, rtol: float = 1e-8) -> float:
        """Check ``P @ A == L @ U`` on the run's output; returns the residual."""
        runtime = runtime or self._runtime
        if runtime is None:
            raise VerificationError("application has not been run yet")
        lu, perm = self.gather_lu(runtime)
        return verify_factorization(self.original, lu, perm, rtol=rtol)
