"""Parallel block LU factorization — the paper's test application.

The matrix is distributed in column blocks of size ``r x n`` onto DPS
threads (section 5); each LU level factors the panel, solves triangular
systems in parallel, updates the trailing matrix with block
multiplications, and optionally removes threads as the work per iteration
shrinks (section 6).

Variants (paper section 6):

* **basic** — merge+split barriers between phases, no pipelining,
* **P** (pipelined) — stream operations start the next level as soon as
  its column block is ready,
* **FC** — flow control caps in-flight multiplication requests,
* **PM** — block multiplications decomposed into sub-block products
  distributed over all threads (Fig. 7).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "LUApplication": "repro.apps.lu.app",
        "LUConfig": "repro.apps.lu.config",
        "panel_lu": "repro.apps.lu.blockmath",
        "trsm_block": "repro.apps.lu.blockmath",
        "gemm_update": "repro.apps.lu.blockmath",
        "sequential_block_lu": "repro.apps.lu.blockmath",
        "verify_factorization": "repro.apps.lu.blockmath",
        "LUCostModel": "repro.apps.lu.costs",
        "benchmark_rate_factors": "repro.apps.lu.costs",
        "lu_total_flops": "repro.apps.lu.costs",
    },
)
