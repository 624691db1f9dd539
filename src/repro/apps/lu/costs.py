"""Cost specifications of the LU kernels and their benchmarked calibration.

Flop counts follow the standard dense-linear-algebra accounting (Golub &
van Loan):

* panel getrf of an ``m x r`` panel: ``m r^2 - r^3/3`` flops,
* triangular solve of ``r`` right-hand sides: ``r^3`` flops,
* block product ``r x r``: ``2 r^3`` flops,
* trailing subtraction: ``r^2`` flops (one per element),
* row exchanges: pure data movement, modelled as ``swap_cost_per_byte``
  flop-equivalents per byte moved.

:func:`benchmark_rate_factors` reproduces the paper's "benchmarked times"
workflow: it measures each kernel a few times **on the ground-truth
machine** (with its systematic biases and noise) and fits per-kernel rate
factors for the simulator's cost model.  The fit inherits a small residual
error — the honest mechanism behind the paper's few-percent prediction
errors.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cpumodel.machines import MachineProfile
from repro.dps.operations import KernelSpec
from repro.sim.providers import MachineCostModel
from repro.testbed.noise import DEFAULT_KERNEL_BIAS, KernelBias, NoisySampler

#: flop-equivalents charged per byte moved by a row exchange
SWAP_COST_PER_BYTE = 0.25
#: flop-equivalents charged for handling one control data object in a
#: split/merge/stream body (queue management, bookkeeping)
HANDLING_FLOPS = 2500.0


# --------------------------------------------------------------------------
# kernel specs
# --------------------------------------------------------------------------


def panel_lu_spec(m: int, r: int) -> KernelSpec:
    """Panel factorization of an ``m x r`` panel."""
    flops = m * r * r - r**3 / 3.0
    return KernelSpec(
        "panel_lu",
        flops=max(flops, 0.0),
        working_set=8.0 * m * r,
        params={"m": m, "r": r},
    )


def trsm_spec(r: int) -> KernelSpec:
    """Triangular solve producing one ``r x r`` T12 block."""
    return KernelSpec(
        "trsm", flops=float(r) ** 3, working_set=2.0 * 8.0 * r * r, params={"r": r}
    )


def gemm_spec(r: int) -> KernelSpec:
    """One ``r x r`` block multiplication."""
    return KernelSpec(
        "gemm", flops=2.0 * float(r) ** 3, working_set=3.0 * 8.0 * r * r, params={"r": r}
    )


def sub_gemm_spec(s: int, r: int) -> KernelSpec:
    """One ``s x r`` by ``r x s`` sub-block product (PM variant)."""
    return KernelSpec(
        "gemm",
        flops=2.0 * s * s * r,
        working_set=8.0 * (2.0 * s * r + s * s),
        params={"r": r, "s": s},
    )


def sub_spec(r: int) -> KernelSpec:
    """Trailing subtraction of one ``r x r`` block."""
    return KernelSpec(
        "sub", flops=float(r) * r, working_set=2.0 * 8.0 * r * r, params={"r": r}
    )


def rowswap_spec(rows_moved: int, r: int) -> KernelSpec:
    """Row exchanges moving ``rows_moved`` rows of width ``r``."""
    bytes_moved = 2.0 * 8.0 * rows_moved * r
    return KernelSpec(
        "rowswap",
        flops=SWAP_COST_PER_BYTE * bytes_moved,
        working_set=bytes_moved,
        params={"r": r},
    )


def handling_spec(objects: int = 1) -> KernelSpec:
    """Framework handling cost for ``objects`` control data objects."""
    return KernelSpec("overhead", flops=HANDLING_FLOPS * objects, working_set=4096.0)


# --------------------------------------------------------------------------
# calibration against the ground truth ("benchmarked times")
# --------------------------------------------------------------------------


def benchmark_rate_factors(
    machine: MachineProfile,
    r: int,
    bias: Optional[KernelBias] = None,
    samples: int = 5,
    seed: int = 1,
) -> dict[str, float]:
    """Fit per-kernel rate factors by benchmarking the ground truth.

    For each LU kernel, draw ``samples`` noisy ground-truth timings at
    block size ``r`` and return ``mean(measured) / model`` — the
    calibration a user of the paper's system obtains by timing kernels on
    the target machine before simulating.  The residual (finite-sample
    noise plus any granularity mismatch) is what limits prediction
    accuracy.
    """
    bias = bias or DEFAULT_KERNEL_BIAS
    sampler = NoisySampler(seed, bias.sigma)
    import numpy as np  # after the sampler: its rng() says how to install it

    specs = {
        "panel_lu": panel_lu_spec(4 * r, r),
        "trsm": trsm_spec(r),
        "gemm": gemm_spec(r),
        "sub": sub_spec(r),
        "rowswap": rowswap_spec(r, r),
        "overhead": handling_spec(),
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


class LUCostModel(MachineCostModel):
    """The LU application's PDEXEC cost model.

    A :class:`MachineCostModel` whose per-kernel rate factors come from
    :func:`benchmark_rate_factors` — i.e. calibrated the way the paper
    calibrates, by timing kernels once per target machine.
    """

    def __init__(
        self,
        machine: MachineProfile,
        r: int,
        bias: Optional[KernelBias] = None,
        samples: int = 5,
        seed: int = 1,
        rate_factors: Optional[Mapping[str, float]] = None,
    ) -> None:
        if rate_factors is None:
            rate_factors = benchmark_rate_factors(
                machine, r, bias=bias, samples=samples, seed=seed
            )
        super().__init__(machine, rate_factors=rate_factors)
        self.r = r
