"""Flat data layouts feeding the compiled kernels.

The compiled backend (the C extension) cannot take the list-of-arrays CSF
representation: C cannot take Python lists at all, and a per-order
signature would need one function per tensor order.
:class:`PackedTree` concatenates the per-level ``fptr``/``fids`` arrays
into single ``int64`` vectors with level offset tables, and
:func:`pack_factors` stacks the factor matrices (in tree-level order) into
one C-contiguous ``float64`` matrix with per-level row offsets — so every
kernel signature is a fixed set of flat arrays plus scalars, and one
compiled function serves tensors of any order.

A ``PackedTree`` is immutable per tree and cached in
:class:`~repro.mttkrp.scatter.MttkrpContext` of the tree's CSF set, which
lives exactly as long as the set.  The packed factor matrix changes every
call (factors are updated each ALS sweep) and is rebuilt into a reused
workspace buffer — an ``O(Σ dims · R)`` copy, negligible against the
``O(nnz · R)`` kernel work it unlocks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import INDEX_DTYPE, VALUE_DTYPE
from repro.csf.tree import CsfTensor

__all__ = ["PackedTree", "pack_factors"]


class PackedTree:
    """One CSF tree flattened for compiled-kernel consumption.

    Attributes
    ----------
    fptr_cat / fptr_off:
        Concatenated ``fptr`` levels ``0..nmodes-2``; level ``l`` starts at
        ``fptr_off[l]`` (each level holds ``nfibs[l] + 1`` entries).
    fids_cat / fids_off:
        Concatenated ``fids`` levels ``0..nmodes-1``; node ``i`` of level
        ``l`` is ``fids_cat[fids_off[l] + i]``.
    values:
        The tree's nonzero values (a reference, already ``float64``).
    row_off:
        ``row_off[l]`` is the first row of level ``l``'s factor inside the
        packed factor matrix (levels ordered by ``dim_perm``).
    level_dims:
        The tree's dims in level order.
    packed_rows:
        Total rows of the packed factor matrix (``Σ dims``).
    """

    __slots__ = ("nmodes", "fptr_cat", "fptr_off", "fids_cat", "fids_off",
                 "values", "row_off", "packed_rows", "level_dims")

    def __init__(self, tree: CsfTensor):
        nmodes = tree.nmodes
        self.nmodes = nmodes
        self.fptr_cat = (
            np.concatenate(tree.fptr) if tree.fptr
            else np.empty(0, dtype=INDEX_DTYPE)
        )
        off = np.zeros(max(nmodes - 1, 1), dtype=INDEX_DTYPE)
        for l in range(1, nmodes - 1):
            off[l] = off[l - 1] + tree.fptr[l - 1].shape[0]
        self.fptr_off = off
        self.fids_cat = np.concatenate(tree.fids)
        foff = np.zeros(nmodes, dtype=INDEX_DTYPE)
        for l in range(1, nmodes):
            foff[l] = foff[l - 1] + tree.fids[l - 1].shape[0]
        self.fids_off = foff
        self.values = tree.values
        self.level_dims = tuple(tree.dims[m] for m in tree.dim_perm)
        row_off = np.zeros(nmodes, dtype=INDEX_DTYPE)
        for l in range(1, nmodes):
            row_off[l] = row_off[l - 1] + self.level_dims[l - 1]
        self.row_off = row_off
        self.packed_rows = int(sum(self.level_dims))

    def nbytes(self) -> int:
        """Index-array storage held by this packed view (values excluded —
        they alias the tree's)."""
        return (self.fptr_cat.nbytes + self.fptr_off.nbytes
                + self.fids_cat.nbytes + self.fids_off.nbytes
                + self.row_off.nbytes)


def pack_factors(
    pk: PackedTree,
    tree: CsfTensor,
    factors: Sequence[np.ndarray],
    ws,
) -> np.ndarray:
    """Stack ``factors`` (tree-level order) into one contiguous matrix.

    The packed matrix is a reused buffer of ``ws`` (a
    :class:`~repro.mttkrp.scatter.Workspace`).  Factors must already
    be canonical (C-contiguous ``float64`` — enforced at the dispatch
    boundary by :func:`repro.backend.canonical_factors`), so each level is
    a plain block copy.
    """
    shape = (pk.packed_rows, factors[0].shape[1])
    packed = ws.buf(("backend", "packed_factors"), shape, VALUE_DTYPE)
    for l in range(pk.nmodes):
        start = int(pk.row_off[l])
        packed[start:start + pk.level_dims[l]] = factors[tree.dim_perm[l]]
    return packed
