"""Shared configuration helpers for the benchmark scripts.

Terminology follows the paper: **measured** values come from the
ground-truth virtual cluster (:mod:`repro.testbed`), **predicted** values
from the DPS simulator (:mod:`repro.sim`) using network parameters
calibrated against that cluster.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.lu.config import LUConfig
from repro.sim.modes import SimulationMode

#: paper matrix size
N = 2592
#: default measurement seed (one "run" of the real cluster)
SEED = 1


def lu_cfg(
    r: int,
    nodes: int = 4,
    threads: Optional[int] = None,
    pipelined: bool = False,
    fc: Optional[int] = None,
) -> LUConfig:
    """Paper-style LU configuration at full size, NOALLOC."""
    return LUConfig(
        n=N,
        r=r,
        num_threads=threads if threads is not None else nodes,
        num_nodes=nodes,
        pipelined=pipelined,
        flow_control=fc,
        mode=SimulationMode.PDEXEC_NOALLOC,
    )


def platform_for(nodes: int, seed: int = SEED):
    """Calibrated platform for a cluster size (shared memoized cache)."""
    from repro.analysis.parallel import cached_platform

    return cached_platform((nodes, seed))
