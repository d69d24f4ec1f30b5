"""The CSF tree container (SPLATT's ``splatt_csf`` / ``csf_sparsity``).

Terminology follows Smith & Karypis, *Tensor-Matrix Products with a
Compressed Sparse Tensor* (IA³ 2015): for an order-``N`` tensor stored with
mode permutation ``dim_perm``,

* level ``0`` nodes are the distinct root-mode indices ("slices"),
* level ``l`` nodes are the distinct ``(dim_perm[0..l])`` index prefixes
  ("fibers" at the last internal level),
* the ``N-1`` leaf level has one node per nonzero, holding its value.

Each level ``l < N-1`` has a ``fptr`` array mapping a node to its children
range in level ``l+1``, and every level has a ``fids`` array with the node's
index in mode ``dim_perm[l]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import INDEX_DTYPE, VALUE_DTYPE, check_axis

__all__ = ["CsfTensor"]


@dataclass
class CsfTensor:
    """One CSF representation of a sparse tensor.

    Attributes
    ----------
    dims:
        Mode lengths in the tensor's *original* mode order.
    dim_perm:
        ``dim_perm[l]`` is the original mode stored at tree level ``l``.
    fptr:
        ``fptr[l][i]:fptr[l][i+1]`` is the children range of node ``i`` of
        level ``l``; list of ``N-1`` arrays.
    fids:
        ``fids[l][i]`` is node ``i``'s index within mode ``dim_perm[l]``;
        list of ``N`` arrays.
    values:
        Leaf values, aligned with ``fids[N-1]``.
    """

    dims: tuple[int, ...]
    dim_perm: tuple[int, ...]
    fptr: list[np.ndarray]
    fids: list[np.ndarray]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        self.dim_perm = tuple(int(p) for p in self.dim_perm)
        nmodes = len(self.dims)
        if sorted(self.dim_perm) != list(range(nmodes)):
            raise ValueError(f"dim_perm {self.dim_perm} is not a mode permutation")
        if len(self.fptr) != nmodes - 1 or len(self.fids) != nmodes:
            raise ValueError("need N-1 fptr levels and N fids levels")
        self.fptr = [np.ascontiguousarray(p, dtype=INDEX_DTYPE) for p in self.fptr]
        self.fids = [np.ascontiguousarray(f, dtype=INDEX_DTYPE) for f in self.fids]
        self.values = np.ascontiguousarray(self.values, dtype=VALUE_DTYPE)
        self._validate()

    def _validate(self) -> None:
        """Structural invariants; raises ValueError on a malformed tree."""
        nmodes = self.nmodes
        for level in range(nmodes - 1):
            ptr = self.fptr[level]
            nnodes = self.fids[level].shape[0]
            if ptr.shape[0] != nnodes + 1:
                raise ValueError(
                    f"level {level}: fptr length {ptr.shape[0]} != nodes+1 ({nnodes + 1})"
                )
            if nnodes and (np.diff(ptr) <= 0).any():
                raise ValueError(f"level {level}: empty fiber (fptr not strictly increasing)")
            if ptr.shape[0] and (ptr[0] != 0 or ptr[-1] != self.fids[level + 1].shape[0]):
                raise ValueError(f"level {level}: fptr does not span child level")
        if self.fids[nmodes - 1].shape[0] != self.values.shape[0]:
            raise ValueError("leaf fids and values length mismatch")
        for level in range(nmodes):
            dim = self.dims[self.dim_perm[level]]
            f = self.fids[level]
            if f.size and (f.min() < 0 or f.max() >= dim):
                raise ValueError(f"level {level}: fids out of range for dim {dim}")

    # ------------------------------------------------------------------
    @property
    def nmodes(self) -> int:
        """Tensor order ``N``."""
        return len(self.dims)

    @property
    def nnz(self) -> int:
        """Stored nonzero (leaf) count."""
        return int(self.values.shape[0])

    @property
    def nfibs(self) -> tuple[int, ...]:
        """Node count per level (SPLATT's ``pt->nfibs``)."""
        return tuple(int(f.shape[0]) for f in self.fids)

    @property
    def nslices(self) -> int:
        """Root-level node count."""
        return int(self.fids[0].shape[0])

    def level_of_mode(self, mode: int) -> int:
        """Tree level at which original mode ``mode`` is stored."""
        mode = check_axis(mode, self.nmodes)
        return self.dim_perm.index(mode)

    def memory_bytes(self) -> int:
        """Storage footprint of the tree (the CSF memory/computation
        trade-off number SPLATT reports)."""
        total = self.values.nbytes
        total += sum(p.nbytes for p in self.fptr)
        total += sum(f.nbytes for f in self.fids)
        return total

    # ------------------------------------------------------------------
    def expand_coords(self) -> np.ndarray:
        """Recover the ``(nnz, N)`` coordinate matrix (original mode order).

        Inverse of CSF construction; used by round-trip tests.
        """
        nmodes = self.nmodes
        nnz = self.nnz
        permuted = np.empty((nnz, nmodes), dtype=INDEX_DTYPE)
        permuted[:, nmodes - 1] = self.fids[nmodes - 1]
        # Walk levels top-down, repeating each node's id over its leaves.
        for level in range(nmodes - 2, -1, -1):
            # leaf span of each node at this level
            spans = self._leaf_spans(level)
            permuted[:, level] = np.repeat(self.fids[level], spans)
        coords = np.empty_like(permuted)
        for level, mode in enumerate(self.dim_perm):
            coords[:, mode] = permuted[:, level]
        return coords

    def _leaf_spans(self, level: int) -> np.ndarray:
        """Number of leaves under each node of ``level``."""
        ends = self.fptr[level][1:].copy()
        starts = self.fptr[level][:-1].copy()
        for lower in range(level + 1, self.nmodes - 1):
            ends = self.fptr[lower][ends]
            starts = self.fptr[lower][starts]
        return ends - starts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CsfTensor(dims={self.dims}, perm={self.dim_perm}, "
            f"nfibs={self.nfibs}, bytes={self.memory_bytes()})"
        )
