"""Configuration of the parallel block LU application."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dps.malleability import STATIC, AllocationSchedule
from repro.errors import ConfigurationError
from repro.sim.modes import SimulationMode


@dataclass(frozen=True)
class LUConfig:
    """One parallel LU run: matrix, decomposition, deployment, variant.

    Parameters
    ----------
    n:
        Matrix dimension (``n x n`` doubles).
    r:
        Decomposition block size; must divide ``n``.  The paper sweeps
        r in {81, 108, 162, 216, 324, 648} for n = 2592.
    num_threads:
        Number of worker DPS threads ``P``; column block ``j`` is owned by
        thread ``j % P`` (column-block distribution of section 5).
    num_nodes:
        Compute nodes; worker thread ``t`` lives on node ``t %
        num_nodes``.
    pipelined:
        Use stream operations (the **P** variant, Fig. 5) instead of
        barrier merge-split pairs (the *basic* flow graph).
    flow_control:
        Credit limit on in-flight multiplication requests per iteration
        (the **FC** variant); ``None`` disables flow control.
    pm_subblock:
        Sub-block size ``s`` for parallel sub-block multiplications (the
        **PM** variant, Fig. 7); ``None`` keeps whole-block
        multiplications.  Must divide ``r``.
    schedule:
        Dynamic-allocation strategy (thread removals at iteration ends).
    mode:
        Payload/duration handling (direct, PDEXEC, PDEXEC+NOALLOC).
    matrix_seed:
        Seed of the random test matrix (when payloads are allocated).
    """

    n: int = 2592
    r: int = 324
    num_threads: int = 4
    num_nodes: int = 4
    pipelined: bool = False
    flow_control: Optional[int] = None
    pm_subblock: Optional[int] = None
    schedule: AllocationSchedule = field(default_factory=lambda: STATIC)
    mode: SimulationMode = SimulationMode.PDEXEC_NOALLOC
    matrix_seed: int = 7

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 1:
            raise ConfigurationError("n and r must be positive")
        if self.n % self.r != 0:
            raise ConfigurationError(
                f"block size r={self.r} must divide matrix size n={self.n}"
            )
        if self.num_threads < 1 or self.num_nodes < 1:
            raise ConfigurationError("num_threads and num_nodes must be positive")
        if self.num_threads < self.num_nodes:
            raise ConfigurationError(
                "each node must host at least one worker thread "
                f"(num_threads={self.num_threads} < num_nodes={self.num_nodes})"
            )
        if self.flow_control is not None and self.flow_control < 1:
            raise ConfigurationError("flow_control must be >= 1 or None")
        if self.pm_subblock is not None:
            if self.r % self.pm_subblock != 0:
                raise ConfigurationError(
                    f"pm_subblock s={self.pm_subblock} must divide r={self.r}"
                )
            if self.pm_subblock == self.r:
                raise ConfigurationError(
                    "pm_subblock must be strictly smaller than r"
                )

    # ------------------------------------------------------------- derived
    @property
    def nb(self) -> int:
        """Number of column blocks (and LU iterations)."""
        return self.n // self.r

    @property
    def variant_name(self) -> str:
        """Paper-style variant label: basic, P, P+FC, PM, P+PM+FC, ..."""
        parts = []
        if self.pipelined:
            parts.append("P")
        if self.pm_subblock is not None:
            parts.append("PM")
        if self.flow_control is not None:
            parts.append("FC")
        return "+".join(parts) if parts else "basic"

    def node_of_worker(self, t: int) -> int:
        """Deployment formula: worker thread ``t`` lives on this node."""
        return t % self.num_nodes
