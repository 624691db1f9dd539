"""Numerical kernels of the block LU factorization (paper, section 5).

The decomposition follows Golub & van Loan's recursive block scheme: for a
matrix ``A`` with leading block column of width ``r``,

1. factor the panel ``A[:, :r] = [L11; L21] * U11`` with partial pivoting,
2. solve the triangular system ``L11 * T12 = A[:r, r:]`` (BLAS ``trsm``)
   after applying the panel's row exchanges,
3. update the trailing matrix ``A' = B - L21 * T12`` and recurse on ``A'``.

All kernels operate on numpy arrays and are exercised *for real* in direct
execution and PDEXEC (verification) modes; under NOALLOC only their cost
specifications are used.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import VerificationError


def panel_lu(panel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU-factor a rectangular ``m x r`` panel with partial pivoting.

    Returns ``(lu, piv)`` in LAPACK getrf convention: ``lu`` packs the
    unit-lower ``L`` (below the diagonal) and ``U`` (upper triangle);
    ``piv[i]`` is the row swapped with row ``i`` at elimination step ``i``.
    """
    from scipy.linalg import lu_factor

    if panel.ndim != 2:
        raise VerificationError("panel must be a 2-D array")
    lu, piv = lu_factor(panel, check_finite=False)
    return lu, piv

def apply_pivots(block: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """Apply getrf-style row exchanges to ``block`` in place.

    ``piv`` refers to rows of ``block`` directly (caller slices the
    relevant row range first).  Returns ``block`` for chaining.
    """
    for i, p in enumerate(piv):
        p = int(p)
        if p != i:
            block[[i, p], :] = block[[p, i], :]
    return block


def undo_pivots(block: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """Invert :func:`apply_pivots` (used by property tests)."""
    for i in range(len(piv) - 1, -1, -1):
        p = int(piv[i])
        if p != i:
            block[[i, p], :] = block[[p, i], :]
    return block


def trsm_block(l11: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L11 @ X = rhs`` with ``L11`` unit lower triangular.

    ``l11`` is the packed getrf output; only its strict lower triangle is
    read.  This is step 2 of the block scheme (the BLAS ``trsm`` routine).
    """
    from scipy.linalg import solve_triangular

    return solve_triangular(
        l11, rhs, lower=True, unit_diagonal=True, check_finite=False
    )


def gemm_update(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trailing update ``C -= A @ B`` (step 3); returns the new ``C``.

    Kept out-of-place on purpose: in the distributed application the
    result block travels as a message and the subtraction happens at the
    owner (operation (e) of Fig. 5 computes the product, the subtraction
    operation applies it).
    """
    return c - a @ b


def sequential_block_lu(
    a: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference single-node blocked LU with partial pivoting.

    Returns ``(lu, perm)`` where ``lu`` packs L and U and ``perm`` is the
    global row permutation (row ``i`` of ``P @ A`` is row ``perm[i]`` of
    ``A``).  Used for verification and for the paper's serial reference
    time (185.1 s on the UltraSparc).
    """
    import numpy as np

    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise VerificationError("sequential_block_lu expects a square matrix")
    if n % r != 0:
        raise VerificationError(f"block size {r} must divide matrix size {n}")
    lu = a.copy()
    perm = np.arange(n)
    nb = n // r
    for k in range(nb):
        lo, hi = k * r, (k + 1) * r
        panel = lu[lo:, lo:hi]
        panel_lu_packed, piv = panel_lu(panel)
        lu[lo:, lo:hi] = panel_lu_packed
        # Propagate the row exchanges across the whole matrix and the
        # global permutation (pivots are local to rows lo..n).
        for i, p in enumerate(piv):
            p = int(p)
            if p != i:
                lu[[lo + i, lo + p], :lo] = lu[[lo + p, lo + i], :lo]
                lu[[lo + i, lo + p], hi:] = lu[[lo + p, lo + i], hi:]
                perm[[lo + i, lo + p]] = perm[[lo + p, lo + i]]
        if hi < n:
            l11 = lu[lo:hi, lo:hi]
            t12 = trsm_block(l11, lu[lo:hi, hi:])
            lu[lo:hi, hi:] = t12
            lu[hi:, hi:] = gemm_update(lu[hi:, hi:], lu[hi:, lo:hi], t12)
    return lu, perm


def unpack_lu(lu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split packed LU into explicit unit-lower L and upper U."""
    import numpy as np

    l = np.tril(lu, -1) + np.eye(lu.shape[0])
    u = np.triu(lu)
    return l, u


def verify_factorization(
    a_original: np.ndarray,
    lu: np.ndarray,
    perm: np.ndarray,
    rtol: float = 1e-8,
) -> float:
    """Check ``P @ A == L @ U``; returns the relative residual.

    Raises :class:`VerificationError` when the residual exceeds ``rtol``
    (scaled by the matrix norm).
    """
    import numpy as np

    l, u = unpack_lu(lu)
    pa = a_original[perm, :]
    residual = np.linalg.norm(pa - l @ u) / max(np.linalg.norm(a_original), 1e-300)
    if not np.isfinite(residual) or residual > rtol:
        raise VerificationError(
            f"LU verification failed: relative residual {residual:.3e} > {rtol:.1e}"
        )
    return float(residual)


def random_matrix(n: int, seed: int = 0) -> np.ndarray:
    """Well-conditioned random test matrix (diagonally weighted)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    # Mild diagonal dominance keeps pivot growth small without making
    # pivoting trivial (off-diagonal entries still win regularly).
    a[np.arange(n), np.arange(n)] += 2.0
    return a
