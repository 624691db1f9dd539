"""Standalone parallel matrix multiplication (paper Fig. 7)."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "MatmulApplication": "repro.apps.matmul.app",
        "MatmulConfig": "repro.apps.matmul.app",
    },
)
