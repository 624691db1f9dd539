"""Kernels and cost model for the parallel sample-sort application.

Cost accounting uses flop-equivalents for comparison-based work:

* local sort of ``m`` keys: ``SORT_COST * m * log2(m)``,
* partitioning ``m`` keys over ``w`` splitters: ``PARTITION_COST * m``
  (binary search per key is ``log2 w`` but the memory traffic dominates),
* ``w``-way merge of ``m`` keys: ``MERGE_COST * m * log2(max(w, 2))``.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.cpumodel.machines import MachineProfile
from repro.dps.operations import KernelSpec
from repro.sim.providers import MachineCostModel
from repro.testbed.noise import DEFAULT_KERNEL_BIAS, KernelBias, NoisySampler

SORT_COST = 6.0
PARTITION_COST = 4.0
MERGE_COST = 5.0
#: flop-equivalents for handling one control data object
SORT_HANDLING_FLOPS = 2000.0


# --------------------------------------------------------------------------
# cost specifications
# --------------------------------------------------------------------------


def local_sort_spec(m: int) -> KernelSpec:
    """Sorting ``m`` keys locally."""
    logm = math.log2(max(m, 2))
    return KernelSpec(
        "local_sort",
        flops=SORT_COST * m * logm,
        working_set=8.0 * 2.0 * m,
        params={"m": m},
    )


def partition_spec(m: int, w: int) -> KernelSpec:
    """Partitioning ``m`` sorted keys into ``w`` destination runs."""
    return KernelSpec(
        "partition",
        flops=PARTITION_COST * m,
        working_set=8.0 * 2.0 * m,
        params={"m": m, "w": w},
    )


def merge_runs_spec(m: int, w: int) -> KernelSpec:
    """Merging ``w`` sorted runs totalling ``m`` keys."""
    return KernelSpec(
        "merge_runs",
        flops=MERGE_COST * m * math.log2(max(w, 2)),
        working_set=8.0 * 2.0 * m,
        params={"m": m, "w": w},
    )


def sort_handling_spec(objects: int = 1) -> KernelSpec:
    """Framework handling cost for ``objects`` control data objects."""
    return KernelSpec(
        "overhead", flops=SORT_HANDLING_FLOPS * objects, working_set=4096.0
    )


def sample_sort_rate_factors(
    machine: MachineProfile,
    m: int,
    w: int,
    bias: Optional[KernelBias] = None,
    samples: int = 5,
    seed: int = 1,
) -> dict[str, float]:
    """Benchmark the ground truth once per kernel, as the paper calibrates."""
    bias = bias or DEFAULT_KERNEL_BIAS
    sampler = NoisySampler(seed, bias.sigma)
    import numpy as np  # after the sampler: its rng() says how to install it

    specs = {
        "local_sort": local_sort_spec(m),
        "partition": partition_spec(m, w),
        "merge_runs": merge_runs_spec(m, w),
        "overhead": sort_handling_spec(),
    }
    factors: dict[str, float] = {}
    for name, spec in specs.items():
        model = machine.seconds_for(spec.flops, spec.working_set)
        if model <= 0.0:
            factors[name] = 1.0
            continue
        measured = [
            model * bias.factor(name) * sampler.sample() for _ in range(samples)
        ]
        factors[name] = float(np.mean(measured)) / model
    return factors


class SampleSortCostModel(MachineCostModel):
    """PDEXEC cost model for the sample-sort kernels."""

    def __init__(
        self,
        machine: MachineProfile,
        m: int,
        w: int,
        bias: Optional[KernelBias] = None,
        samples: int = 5,
        seed: int = 1,
        rate_factors: Optional[Mapping[str, float]] = None,
    ) -> None:
        if rate_factors is None:
            rate_factors = sample_sort_rate_factors(
                machine, m, w, bias=bias, samples=samples, seed=seed
            )
        super().__init__(machine, rate_factors=rate_factors)
        self.m = m
        self.w = w


# --------------------------------------------------------------------------
# numpy helpers
# --------------------------------------------------------------------------


def choose_splitters(samples: np.ndarray, w: int) -> np.ndarray:
    """Pick ``w - 1`` splitters from the gathered sample set."""
    import numpy as np

    ordered = np.sort(np.asarray(samples, dtype=float).ravel())
    if w <= 1 or ordered.size == 0:
        return np.empty(0)
    # Regular sampling of the sorted sample set.
    positions = (np.arange(1, w) * ordered.size) // w
    return ordered[np.minimum(positions, ordered.size - 1)]


def partition_by_splitters(
    block: np.ndarray, splitters: np.ndarray
) -> list[np.ndarray]:
    """Cut a *sorted* block into ``len(splitters) + 1`` contiguous runs."""
    import numpy as np

    bounds = np.searchsorted(block, splitters, side="right")
    return np.split(block, bounds)
