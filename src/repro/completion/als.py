"""Alternating least squares for tensor completion.

Unlike full CP-ALS (whose normal equations use the *entire* tensor, zeros
included), completion solves each factor row against its **observed
entries only**:

    A^n[i] = (Σ_{x ∈ Ω_i} g_x g_xᵀ + λI)⁻¹ · Σ_{x ∈ Ω_i} v_x g_x

where ``Ω_i`` is the set of observed entries whose mode-``n`` index is
``i`` and ``g_x = ⊛_{m≠n} A^m[coords_x[m]]`` is the Hadamard of the other
factors' rows.  This is SPLATT-ALS from the tensor-completion paper the
reproduction's paper cites — the per-row ``R×R`` systems are independent,
which is exactly what SPLATT parallelizes over.

Implementation: fully vectorized — one ``(nnz, R)`` Hadamard pass, a
scatter of ``g gᵀ`` outer products into an ``(I, R, R)`` stack, and one
batched Cholesky solve.  Memory is ``O(I·R²)``, the same trade SPLATT
makes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import VALUE_DTYPE
from repro.mttkrp.scatter import RowScatter
from repro.observe import spans as _obs
from repro.tensor.coo import SparseTensor

__all__ = ["als_step", "als_update_mode"]


def _mode_scatter(tensor: SparseTensor, mode: int) -> RowScatter:
    """The cached :class:`RowScatter` over ``coords[:, mode]``.

    ``coords`` never changes for a given tensor, so the sort order and
    segment boundaries are computed once per (tensor, mode) and reused by
    every ALS sweep; the cache is invalidated if the coordinate array is
    swapped out.
    """
    cache = getattr(tensor, "_completion_scatters", None)
    if cache is None or cache.get("coords_id") != id(tensor.coords):
        cache = {"coords_id": id(tensor.coords)}
        tensor._completion_scatters = cache
    sc = cache.get(mode)
    if sc is None:
        sc = RowScatter(tensor.coords[:, mode])
        cache[mode] = sc
    return sc


def _hadamard_rows(
    coords: np.ndarray, factors: Sequence[np.ndarray], skip_mode: int
) -> np.ndarray:
    """``g_x`` for every observed entry: Hadamard of non-target rows."""
    rank = factors[0].shape[1]
    g = np.ones((coords.shape[0], rank), dtype=VALUE_DTYPE)
    for m, factor in enumerate(factors):
        if m != skip_mode:
            g *= factor[coords[:, m]]
    return g


def als_update_mode(
    tensor: SparseTensor,
    factors: list[np.ndarray],
    mode: int,
    regularization: float,
    backend=None,
) -> None:
    """Solve mode ``mode``'s rows in place against the observed entries.

    Rows with no observations shrink to zero (the λ-regularized solution
    of an empty system), matching SPLATT's behaviour.  The two scatter
    reductions run the mode scatter's cached CSR segment sum, or with a
    compiled ``backend`` (resolved
    :class:`~repro.backend.registry.Backend`) its gather-segment-sum
    kernel; both gather and sum in one pass, with identical results.
    """
    if regularization <= 0:
        raise ValueError("completion ALS requires regularization > 0 "
                         "(unobserved rows would be singular)")
    coords = tensor.coords
    values = tensor.values
    dim = tensor.dims[mode]
    rank = factors[0].shape[1]

    with _obs.span("als.update_mode", mode=mode, nnz=tensor.nnz, rank=rank):
        g = _hadamard_rows(coords, factors, mode)
        scatter = _mode_scatter(tensor, mode)

        # Per-row right-hand sides: Σ v·g.
        rhs = np.zeros((dim, rank), dtype=VALUE_DTYPE)
        scatter.scatter_accumulate(rhs, values[:, None] * g, backend=backend)

        # Per-row normal matrices: Σ g gᵀ + λI, scattered as outer products.
        normal = np.zeros((dim, rank, rank), dtype=VALUE_DTYPE)
        outer = g[:, :, None] * g[:, None, :]
        scatter.scatter_accumulate(normal, outer, backend=backend)
        normal += regularization * np.eye(rank, dtype=VALUE_DTYPE)

        # batched solve: (I, R, R) x (I, R, 1) -> (I, R)
        factors[mode] = np.linalg.solve(normal, rhs[:, :, None])[:, :, 0]


def als_step(
    tensor: SparseTensor,
    factors: list[np.ndarray],
    *,
    regularization: float = 1e-2,
    backend=None,
) -> None:
    """One full ALS sweep (every mode once), updating ``factors`` in place."""
    for mode in range(tensor.nmodes):
        als_update_mode(tensor, factors, mode, regularization, backend=backend)
