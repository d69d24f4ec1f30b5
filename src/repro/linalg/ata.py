"""Gram matrices of factor matrices (the paper's ``Mat AᵀA`` routine).

SPLATT computes each ``AᵀA`` with BLAS ``dsyrk`` (symmetric rank-k update,
filling one triangle); so does numpy for ``a.T @ a``, which it recognizes
as a transposed self-product and mirrors into a full symmetric matrix.
``V`` is the elementwise (Hadamard) product of the Grams of every factor
except the one being solved for — lines 4, 7 and 10 of Algorithm 1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import VALUE_DTYPE

__all__ = ["gram", "hadamard_gram"]


def gram(factor: np.ndarray) -> np.ndarray:
    """``AᵀA`` of one ``(I, R)`` factor matrix via BLAS ``syrk``.

    ``a.T @ a`` runs one ``syrk`` (one triangle, as in SPLATT) and numpy
    fills in the other, so callers get an exactly symmetric dense matrix.
    Every backend computes it this way: BLAS beats a compiled loop over the
    rows several times over at the ranks CP-ALS uses.
    """
    a = np.asarray(factor, dtype=VALUE_DTYPE)
    if a.ndim != 2:
        raise ValueError(f"factor must be 2-D, got shape {a.shape}")
    return a.T @ a


def hadamard_gram(
    factors: Sequence[np.ndarray],
    skip_mode: int,
    *,
    grams: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Hadamard product of all factor Grams except ``skip_mode``.

    Parameters
    ----------
    factors:
        All ``N`` factor matrices (same column count ``R``).
    skip_mode:
        The mode currently being solved for (its Gram is excluded).
    grams:
        Optional precomputed Grams (SPLATT caches them between modes and
        only recomputes the one just updated); when given, ``factors`` is
        only used for shape validation.

    Returns
    -------
    The ``(R, R)`` normal-equations matrix ``V``.
    """
    nmodes = len(factors)
    if not 0 <= skip_mode < nmodes:
        raise ValueError(f"skip_mode {skip_mode} out of range for {nmodes} factors")
    rank = factors[0].shape[1]
    if any(f.shape[1] != rank for f in factors):
        raise ValueError("all factors must share the same rank")
    if grams is None:
        grams = [gram(f) for f in factors]
    out = np.ones((rank, rank), dtype=VALUE_DTYPE)
    for mode, g in enumerate(grams):
        if mode != skip_mode:
            out *= g
    return out
