"""Applications built on the DPS framework.

* :mod:`repro.apps.lu` — the paper's test application: parallel block LU
  factorization with partial pivoting, in all the flow-graph variants of
  sections 5-6.
* :mod:`repro.apps.matmul` — the standalone parallel matrix multiplication
  of Fig. 7.
* :mod:`repro.apps.imgpipe` — a split/merge image-processing farm used by
  the quickstart examples.
* :mod:`repro.apps.stencil` — an iterative Jacobi relaxation exercising
  neighborhood halo exchange, barrier vs pipelined variants and dynamic
  thread removal at iteration boundaries.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "Application": "repro.apps.base",
    },
)
