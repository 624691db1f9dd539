"""Applications built on the DPS framework.

Each one backs a predicted-vs-measured claim pinned in ``FIDELITY.json``:

* :mod:`repro.apps.lu` — the paper's test application: parallel block LU
  factorization with partial pivoting, in all the flow-graph variants of
  sections 5-6.
* :mod:`repro.apps.matmul` — the standalone parallel matrix multiplication
  of Fig. 7.
* :mod:`repro.apps.sort` — a parallel sample sort whose all-to-all
  exchange stresses the network model.
* :mod:`repro.apps.stencil` — an iterative Jacobi relaxation exercising
  neighborhood halo exchange, barrier vs pipelined variants and dynamic
  thread removal at iteration boundaries.
"""
