"""Numerical kernels and cost model for the Jacobi stencil application.

The application iterates a 5-point Jacobi relaxation on an ``n x n`` grid
with Dirichlet boundaries (edge rows/columns stay fixed).  The grid is cut
into horizontal stripes; each sweep of a stripe needs one *halo row* from
each vertical neighbour — the "neighborhood exchange" communication
pattern the paper cites as a natural fit for DPS relative-index routing
(section 2).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cpumodel.machines import MachineProfile
from repro.dps.operations import KernelSpec
from repro.errors import ConfigurationError
from repro.sim.providers import MachineCostModel
from repro.testbed.noise import DEFAULT_KERNEL_BIAS, KernelBias, NoisySampler

#: flop-equivalents charged for handling one control data object
HALO_HANDLING_FLOPS = 2000.0


# --------------------------------------------------------------------------
# numpy kernels
# --------------------------------------------------------------------------


def jacobi_sweep(
    stripe: np.ndarray,
    top: Optional[np.ndarray],
    bottom: Optional[np.ndarray],
) -> tuple[np.ndarray, float]:
    """One Jacobi relaxation of ``stripe`` given its halo rows.

    ``top`` is the grid row directly above the stripe (``None`` when the
    stripe contains the global top boundary row, which stays fixed);
    ``bottom`` likewise below.  Returns the updated stripe and the maximum
    absolute change (the stripe-local residual).
    """
    import numpy as np

    ext_top = stripe[:1] if top is None else top.reshape(1, -1)
    ext_bot = stripe[-1:] if bottom is None else bottom.reshape(1, -1)
    ext = np.vstack([ext_top, stripe, ext_bot])
    new = stripe.copy()
    new[:, 1:-1] = 0.25 * (
        ext[:-2, 1:-1] + ext[2:, 1:-1] + ext[1:-1, :-2] + ext[1:-1, 2:]
    )
    # Global boundary rows are Dirichlet-fixed.
    if top is None:
        new[0] = stripe[0]
    if bottom is None:
        new[-1] = stripe[-1]
    residual = float(np.max(np.abs(new - stripe))) if stripe.size else 0.0
    return new, residual


def reference_jacobi(grid: np.ndarray, iterations: int) -> np.ndarray:
    """Sequential reference: ``iterations`` Jacobi sweeps of the full grid."""
    import numpy as np

    g = np.array(grid, dtype=float, copy=True)
    if g.ndim != 2:
        raise ConfigurationError("reference_jacobi expects a 2-D grid")
    for _ in range(int(iterations)):
        new = g.copy()
        new[1:-1, 1:-1] = 0.25 * (
            g[:-2, 1:-1] + g[2:, 1:-1] + g[1:-1, :-2] + g[1:-1, 2:]
        )
        g = new
    return g


def initial_grid(n: int, seed: int = 7) -> np.ndarray:
    """A reproducible "hot plate": zero interior, heated top edge plus noise.

    The deterministic pattern keeps residuals meaningful (pure random
    fields average out almost immediately).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    grid = rng.standard_normal((n, n)) * 0.01
    grid[0, :] = 1.0
    grid[-1, :] = 0.0
    grid[:, 0] = 0.0
    grid[:, -1] = 0.0
    return grid


# --------------------------------------------------------------------------
# cost specifications
# --------------------------------------------------------------------------


def jacobi_spec(rows: int, n: int) -> KernelSpec:
    """One Jacobi sweep of a ``rows x n`` stripe (4 flops per point)."""
    return KernelSpec(
        "jacobi",
        flops=4.0 * rows * n,
        working_set=8.0 * 3.0 * rows * n,
        params={"rows": rows, "n": n},
    )


def halo_handling_spec(objects: int = 1) -> KernelSpec:
    """Framework handling cost for ``objects`` control/halo data objects."""
    return KernelSpec(
        "overhead", flops=HALO_HANDLING_FLOPS * objects, working_set=4096.0
    )


def stencil_rate_factors(
    machine: MachineProfile,
    rows: int,
    n: int,
    bias: Optional[KernelBias] = None,
    samples: int = 5,
    seed: int = 1,
) -> dict[str, float]:
    """Fit per-kernel rate factors by benchmarking the ground truth.

    The stencil analogue of
    :func:`repro.apps.lu.costs.benchmark_rate_factors`: time each kernel a
    few times on the (noisy, biased) virtual machine and return
    ``mean(measured) / model``.
    """
    bias = bias or DEFAULT_KERNEL_BIAS
    sampler = NoisySampler(seed, bias.sigma)
    import numpy as np  # after the sampler: its rng() says how to install it

    specs = {
        "jacobi": jacobi_spec(rows, n),
        "overhead": halo_handling_spec(),
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


class StencilCostModel(MachineCostModel):
    """PDEXEC cost model for the stencil kernels, calibrated as the paper
    calibrates: by timing each kernel once per target machine."""

    def __init__(
        self,
        machine: MachineProfile,
        rows: int,
        n: int,
        bias: Optional[KernelBias] = None,
        samples: int = 5,
        seed: int = 1,
        rate_factors: Optional[Mapping[str, float]] = None,
    ) -> None:
        if rate_factors is None:
            rate_factors = stencil_rate_factors(
                machine, rows, n, bias=bias, samples=samples, seed=seed
            )
        super().__init__(machine, rate_factors=rate_factors)
        self.rows = rows
        self.n = n
