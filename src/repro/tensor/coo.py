"""Coordinate-format sparse tensors (SPLATT's ``sptensor_t``).

A :class:`SparseTensor` stores the nonzeros of an order-``N`` tensor as an
``(nnz, N)`` coordinate matrix plus an ``(nnz,)`` value vector.  This mirrors
SPLATT's structure-of-arrays layout (``tt->ind[m][x]`` / ``tt->vals[x]``); we
keep the coordinates as one 2-D array because a NumPy column view gives us the
per-mode arrays without copies.

The class is intentionally *not* a general tensor-algebra object: it supports
exactly the operations CP-ALS needs (mode statistics, matricized views,
Frobenius norm, densification for testing) and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._util import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    check_axis,
    ensure_index_array,
    ensure_value_array,
    human_bytes,
    prod,
)

__all__ = ["SparseTensor"]


@dataclass
class SparseTensor:
    """An order-``N`` sparse tensor in coordinate (COO) format.

    Parameters
    ----------
    coords:
        ``(nnz, N)`` integer array; ``coords[x, m]`` is the mode-``m`` index
        of nonzero ``x``.  Stored 0-indexed.
    values:
        ``(nnz,)`` float array of nonzero values.
    dims:
        Length of each mode.  Must dominate every coordinate.

    Notes
    -----
    Duplicate coordinates are allowed on construction (real-world FROSTT
    files contain them); call :meth:`deduplicate` to sum them, which is what
    SPLATT's ``tt_read`` pipeline does before CSF construction.
    """

    coords: np.ndarray
    values: np.ndarray
    dims: tuple[int, ...]
    #: Optional provenance label ("yelp-like", "nell2-like", file path, ...).
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        self.coords = ensure_index_array(self.coords, name="coords")
        self.values = ensure_value_array(self.values, name="values")
        if self.coords.ndim != 2:
            raise ValueError(f"coords must be 2-D (nnz, nmodes), got {self.coords.shape}")
        if self.values.ndim != 1:
            raise ValueError(f"values must be 1-D, got {self.values.shape}")
        if self.coords.shape[0] != self.values.shape[0]:
            raise ValueError(
                f"coords rows ({self.coords.shape[0]}) != values length ({self.values.shape[0]})"
            )
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != self.coords.shape[1]:
            raise ValueError(
                f"dims has {len(dims)} entries but coords has {self.coords.shape[1]} modes"
            )
        if any(d <= 0 for d in dims):
            raise ValueError(f"all dims must be positive, got {dims}")
        if self.nnz:
            maxima = self.coords.max(axis=0)
            for mode, (hi, dim) in enumerate(zip(maxima, dims)):
                if hi >= dim:
                    raise ValueError(
                        f"mode-{mode} coordinate {hi} out of range for dim {dim}"
                    )
        self.dims = dims

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        mode_indices: Sequence[np.ndarray],
        values: np.ndarray,
        dims: Sequence[int] | None = None,
        *,
        name: str = "",
    ) -> "SparseTensor":
        """Build from per-mode index arrays (SPLATT's native layout).

        If ``dims`` is omitted it is inferred as ``max+1`` per mode.
        """
        cols = [ensure_index_array(ix) for ix in mode_indices]
        if not cols:
            raise ValueError("at least one mode is required")
        nnz = cols[0].shape[0]
        if any(c.shape != (nnz,) for c in cols):
            raise ValueError("all mode index arrays must be 1-D of equal length")
        coords = np.stack(cols, axis=1) if nnz else np.empty((0, len(cols)), dtype=INDEX_DTYPE)
        if dims is None:
            dims = tuple(int(c.max()) + 1 if nnz else 1 for c in cols)
        return cls(coords, values, tuple(dims), name=name)

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, name: str = "") -> "SparseTensor":
        """Extract the nonzeros of a dense ndarray (testing convenience)."""
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        coords = np.argwhere(dense != 0.0).astype(INDEX_DTYPE)
        values = dense[tuple(coords.T)] if coords.size else np.empty(0, dtype=VALUE_DTYPE)
        return cls(coords, values, dense.shape, name=name)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored nonzeros (duplicates counted individually)."""
        return int(self.values.shape[0])

    @property
    def nmodes(self) -> int:
        """Tensor order ``N``."""
        return len(self.dims)

    @property
    def density(self) -> float:
        """``nnz / prod(dims)`` — the Table I density column."""
        return self.nnz / prod(self.dims)

    @property
    def size_on_disk(self) -> int:
        """Approximate FROSTT text-file footprint in bytes.

        Table I reports on-disk sizes; FROSTT lines average ~30 bytes for
        3rd-order tensors (three ~6-digit indices + a float).  We estimate
        ``(7 * nmodes + 9)`` bytes/line which reproduces the published sizes
        within ~15%.
        """
        return self.nnz * (7 * self.nmodes + 9)

    def mode_indices(self, mode: int) -> np.ndarray:
        """Zero-copy view of the coordinates of one mode."""
        return self.coords[:, check_axis(mode, self.nmodes)]

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def copy(self) -> "SparseTensor":
        """Deep copy (coords and values are duplicated)."""
        return SparseTensor(self.coords.copy(), self.values.copy(), self.dims, name=self.name)

    def deduplicate(self) -> "SparseTensor":
        """Sum duplicate coordinates into single entries, dropping exact zeros.

        Mirrors SPLATT's post-read fixup; CSF construction assumes unique
        coordinates.
        """
        from repro.tensor.sort import lex_order

        if self.nnz == 0:
            return self.copy()
        order = lex_order(self.coords.T, self.dims)
        sorted_coords = self.coords[order]
        sorted_vals = self.values[order]
        boundary = np.empty(self.nnz, dtype=bool)
        boundary[0] = True
        boundary[1:] = (sorted_coords[1:] != sorted_coords[:-1]).any(axis=1)
        group = np.cumsum(boundary) - 1
        summed = np.zeros(group[-1] + 1, dtype=VALUE_DTYPE)
        np.add.at(summed, group, sorted_vals)
        unique_coords = sorted_coords[boundary]
        keep = summed != 0.0
        return SparseTensor(unique_coords[keep], summed[keep], self.dims, name=self.name)

    def permute_modes(self, perm: Sequence[int]) -> "SparseTensor":
        """Reorder the tensor's modes (used by CSF mode ordering)."""
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(self.nmodes)):
            raise ValueError(f"perm {perm} is not a permutation of modes 0..{self.nmodes - 1}")
        return SparseTensor(
            np.ascontiguousarray(self.coords[:, perm]),
            self.values.copy(),
            tuple(self.dims[p] for p in perm),
            name=self.name,
        )

    def to_dense(self) -> np.ndarray:
        """Materialize the full dense tensor (testing only — O(prod(dims)))."""
        if prod(self.dims) > 50_000_000:
            raise MemoryError(
                f"refusing to densify tensor of {prod(self.dims)} elements; "
                "to_dense is a testing aid for small tensors"
            )
        out = np.zeros(self.dims, dtype=VALUE_DTYPE)
        if self.nnz:
            np.add.at(out, tuple(self.coords.T), self.values)
        return out

    def matricize(self, mode: int) -> np.ndarray:
        """Dense mode-``n`` unfolding ``X_(n)`` (testing reference for MTTKRP).

        Uses the Kolda/Bader column ordering: the columns of ``X_(n)`` run
        over the remaining modes with the *lowest* remaining mode varying
        fastest — the same convention SPLATT's MTTKRP implements implicitly.
        """
        mode = check_axis(mode, self.nmodes)
        rest = [m for m in range(self.nmodes) if m != mode]
        ncols = prod(self.dims[m] for m in rest)
        out = np.zeros((self.dims[mode], ncols), dtype=VALUE_DTYPE)
        if self.nnz:
            col = np.zeros(self.nnz, dtype=INDEX_DTYPE)
            stride = 1
            for m in rest:  # lowest remaining mode varies fastest
                col += self.coords[:, m] * stride
                stride *= self.dims[m]
            np.add.at(out, (self.coords[:, mode], col), self.values)
        return out

    def norm(self) -> float:
        """Frobenius norm of the tensor (assumes deduplicated coordinates)."""
        return float(np.sqrt(np.dot(self.values, self.values)))

    def to_scipy(self, mode: int):
        """Mode-``mode`` unfolding as a :class:`scipy.sparse.csr_matrix`.

        The sparse counterpart of :meth:`matricize` (same column
        convention: lowest remaining mode varies fastest).  Bridges to the
        scipy.sparse ecosystem — e.g. feeding an unfolding to
        ``scipy.sparse.linalg.svds`` for HOSVD-style initialization.
        """
        from scipy.sparse import csr_matrix

        mode = check_axis(mode, self.nmodes)
        rest = [m for m in range(self.nmodes) if m != mode]
        ncols = prod(self.dims[m] for m in rest)
        if self.nnz == 0:
            return csr_matrix((self.dims[mode], ncols))
        cols = np.zeros(self.nnz, dtype=INDEX_DTYPE)
        stride = 1
        for m in rest:  # lowest remaining mode varies fastest
            cols += self.coords[:, m] * stride
            stride *= self.dims[m]
        return csr_matrix(
            (self.values, (self.coords[:, mode], cols)),
            shape=(self.dims[mode], ncols),
        )

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(d) for d in self.dims)
        label = f" {self.name!r}" if self.name else ""
        return (
            f"SparseTensor({dims},{label} nnz={self.nnz}, "
            f"density={self.density:.3g}, disk~{human_bytes(self.size_on_disk)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.coords.shape == other.coords.shape
            and bool(np.array_equal(self.coords, other.coords))
            and bool(np.array_equal(self.values, other.values))
        )
