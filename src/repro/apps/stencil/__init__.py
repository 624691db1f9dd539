"""Jacobi stencil application: neighborhood exchange over DPS flow graphs."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "StencilApplication": "repro.apps.stencil.app",
        "StencilConfig": "repro.apps.stencil.app",
        "StencilCostModel": "repro.apps.stencil.kernels",
    },
)
