"""Jacobi stencil application: neighborhood exchange over DPS flow graphs."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "StencilApplication": "repro.apps.stencil.app",
        "StencilConfig": "repro.apps.stencil.app",
        "StencilCostModel": "repro.apps.stencil.kernels",
        "initial_grid": "repro.apps.stencil.kernels",
        "jacobi_spec": "repro.apps.stencil.kernels",
        "jacobi_sweep": "repro.apps.stencil.kernels",
        "reference_jacobi": "repro.apps.stencil.kernels",
        "stencil_rate_factors": "repro.apps.stencil.kernels",
    },
)
