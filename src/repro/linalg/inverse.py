"""Moore–Penrose inverse of the normal-equations matrix (paper's ``Inverse``).

SPLATT's ``mat_solve_normals`` factorizes the ``R×R`` symmetric
positive-semidefinite matrix ``V`` with LAPACK ``potrf`` (Cholesky) and
applies ``potrs`` to solve ``A·V = M`` in place.  We factor ``V = L·Lᵀ``
with ``numpy.linalg.cholesky`` (the same ``potrf``), form
``V⁻¹ = L⁻ᵀ·L⁻¹`` from the inverse of the ``R×R`` triangular factor, and
apply it to the tall ``M`` with one GEMM: the same ``2·I·R²`` flops, far
faster than ``potrs`` with ``I`` right-hand sides.  A singular ``V`` falls
back to a pseudo-inverse.  Only numpy is imported, so a CP-ALS process
never loads scipy for this routine.

This is the routine at the center of the paper's §V-E: in the Chapel port it
runs under OpenBLAS/OpenMP and suffers from Qthreads interference — modeled
in :mod:`repro.perfmodel.interference`.
"""

from __future__ import annotations

import numpy as np

from repro._util import VALUE_DTYPE

__all__ = ["pseudo_inverse_gram", "solve_normal_equations"]


def _validate_square(mat: np.ndarray) -> np.ndarray:
    v = np.asarray(mat, dtype=VALUE_DTYPE)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {v.shape}")
    return v


def pseudo_inverse_gram(v: np.ndarray, *, rcond: float = 1e-12) -> np.ndarray:
    """Moore–Penrose inverse ``V†`` of a symmetric PSD matrix.

    Tries Cholesky (``potrf``, SPLATT's fast path) and returns
    ``L⁻ᵀ·L⁻¹``; on ``LinAlgError`` (singular ``V``) falls back to the
    SVD-based pseudo-inverse, which is SPLATT's documented degenerate-rank
    behaviour.
    """
    v = _validate_square(v)
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(v))
    except np.linalg.LinAlgError:
        return np.linalg.pinv(v, rcond=rcond, hermitian=True)
    return l_inv.T @ l_inv


def solve_normal_equations(mttkrp_result: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve ``A = M · V†`` for the new factor (lines 5/8/11 of Algorithm 1).

    Parameters
    ----------
    mttkrp_result:
        ``(I, R)`` MTTKRP output ``M = X_(n) (⊙ A)``.
    v:
        ``(R, R)`` Hadamard-of-Grams matrix.

    Returns the C-contiguous ``(I, R)`` factor, with ``V†`` from
    :func:`pseudo_inverse_gram`.
    """
    m = np.asarray(mttkrp_result, dtype=VALUE_DTYPE)
    v = _validate_square(v)
    if m.ndim != 2 or m.shape[1] != v.shape[0]:
        raise ValueError(f"MTTKRP result shape {m.shape} incompatible with V {v.shape}")
    return m @ pseudo_inverse_gram(v)
