"""CSF construction from COO tensors (SPLATT's ``csf_alloc`` pipeline).

Construction is: sort the nonzeros lexicographically in ``dim_perm`` order
(:mod:`repro.tensor.sort`), then detect prefix boundaries level by level —
a fully vectorized rendition of SPLATT's ``p_mk_fptr``/``p_mk_outerptr``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.csf.permute import CSF_ALLOCATIONS, mode_order
from repro.csf.tree import CsfTensor
from repro.observe import spans as _obs
from repro.tensor.coo import SparseTensor
from repro.tensor.sort import lex_order, sort_tensor

__all__ = ["build_csf", "build_csf_set", "CsfSet"]


def build_csf(
    tensor: SparseTensor,
    dim_perm: tuple[int, ...] | None = None,
    *,
    sort_variant: str = "lexsort",
) -> CsfTensor:
    """Build one CSF tree for ``tensor`` with the given mode permutation.

    Parameters
    ----------
    tensor:
        Deduplicated COO tensor.
    dim_perm:
        Mode permutation (level → original mode).  Defaults to SPLATT's
        smallest-mode-first policy.
    sort_variant:
        Which sort implementation performs the pre-processing sort (the
        paper's Fig 1 ladder or the vectorized ``lexsort`` baseline).

    Notes
    -----
    SPLATT sorts with the *output mode primary, rest ascending*; CSF
    construction instead needs a full lexicographic sort in ``dim_perm``
    order.  The vectorized sort takes the key modes in ``dim_perm`` order
    directly, which is what SPLATT's pointer-swap trick accomplishes; the
    Fig 1 ladder variants sort a mode-permuted copy instead.
    """
    if dim_perm is None:
        dim_perm = mode_order(tensor.dims)
    nmodes = tensor.nmodes
    if sorted(dim_perm) != list(range(nmodes)):
        raise ValueError(f"dim_perm {dim_perm} is not a permutation of 0..{nmodes - 1}")
    with _obs.span(
        "csf.build", root=int(dim_perm[0]), nnz=tensor.nnz, sort_variant=sort_variant
    ):
        return _build_csf_sorted(tensor, tuple(dim_perm), sort_variant)


def _build_csf_sorted(
    tensor: SparseTensor, dim_perm: tuple[int, ...], sort_variant: str
) -> CsfTensor:
    # Sort the nonzeros lexicographically in dim_perm order; cols[level] is
    # the sorted mode-dim_perm[level] column.  The vectorized sort orders
    # the unpermuted coordinates directly; the Fig 1 ladder sorts (mode,
    # then remaining ascending), so it sorts a mode-permuted copy.
    if sort_variant == "lexsort":
        keys = [tensor.coords[:, m] for m in dim_perm]
        order = lex_order(keys, [tensor.dims[m] for m in dim_perm])
        cols = [key[order] for key in keys]
        values = tensor.values[order]
    else:
        sorted_perm = sort_tensor(tensor.permute_modes(dim_perm), 0, variant=sort_variant)
        cols = list(sorted_perm.coords.T)
        values = sorted_perm.values

    # is_start[x]: nonzero x begins a new node at the current level, i.e.
    # differs from its predecessor in any of the levels so far.
    is_start = np.zeros(tensor.nnz, dtype=bool)
    is_start[:1] = True
    fptr: list[np.ndarray] = []
    fids: list[np.ndarray] = []
    for level, col in enumerate(cols):
        parent_start = is_start
        is_start = parent_start.copy()
        is_start[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(is_start)
        if level:
            # fptr[level-1][i]: the child node starting where parent node i
            # starts, i.e. the rank of i's start among this level's starts.
            fptr.append(np.append(np.flatnonzero(parent_start[starts]), starts.size))
        fids.append(col[starts])
    return CsfTensor(tensor.dims, dim_perm, fptr, fids, values)


@dataclass
class CsfSet:
    """A set of CSF trees covering all MTTKRP output modes.

    Produced by :func:`build_csf_set`; consumed by
    :func:`repro.mttkrp.mttkrp_csf`, which asks :meth:`tree_for_mode` which
    tree to use for a given output mode and which algorithm (root /
    internal / leaf) applies.
    """

    allocation: str
    trees: list[CsfTensor]

    @property
    def nmodes(self) -> int:
        return self.trees[0].nmodes

    @property
    def mttkrp_context(self):
        """The set's lazily created :class:`~repro.mttkrp.scatter.MttkrpContext`.

        Scatter plans and workspaces are keyed by tree identity, so the
        cache lives with the object that owns the trees; repeated
        :func:`~repro.mttkrp.mttkrp_csf` calls on the same set amortize all
        per-call setup through it.
        """
        ctx = getattr(self, "_mttkrp_context", None)
        if ctx is None:
            from repro.mttkrp.scatter import MttkrpContext

            ctx = MttkrpContext()
            object.__setattr__(self, "_mttkrp_context", ctx)
        return ctx

    def clear_plan_cache(self) -> None:
        """Drop the set's cached MTTKRP plans/workspaces (no-op when the
        context was never created).  See
        :meth:`repro.mttkrp.scatter.MttkrpContext.clear_plan_cache`."""
        ctx = getattr(self, "_mttkrp_context", None)
        if ctx is not None:
            ctx.clear_plan_cache()

    def memory_bytes(self) -> int:
        """Total storage over all trees (the one/two/all trade-off number)."""
        return sum(t.memory_bytes() for t in self.trees)

    def tree_for_mode(self, mode: int) -> tuple[CsfTensor, str]:
        """Select ``(tree, algorithm)`` for output mode ``mode``.

        Follows SPLATT's dispatch: prefer a tree rooted at ``mode`` (root
        algorithm); otherwise prefer one where ``mode`` is an internal
        level; fall back to the leaf algorithm on the first tree.
        """
        for tree in self.trees:
            if tree.dim_perm[0] == mode:
                return tree, "root"
        best: tuple[CsfTensor, str] | None = None
        for tree in self.trees:
            level = tree.level_of_mode(mode)
            if level < tree.nmodes - 1:
                return tree, "internal"
            if best is None:
                best = (tree, "leaf")
        if best is None:  # only possible on a CsfSet with no trees
            raise RuntimeError(
                f"CsfSet has no tree that can serve mode {mode}: the set is "
                "empty or was built inconsistently"
            )
        return best


def build_csf_set(
    tensor: SparseTensor,
    *,
    allocation: str = "two",
    sort_variant: str = "lexsort",
) -> CsfSet:
    """Build CSF tree(s) per the chosen allocation policy.

    ``allocation`` is one of :data:`repro.csf.permute.CSF_ALLOCATIONS`:
    ``"one"`` (single tree), ``"two"`` (SPLATT's default: smallest-rooted +
    largest-rooted), or ``"all"`` (one per mode).  Every tree orders its
    non-root levels by :func:`~repro.csf.permute.mode_order`'s default
    ``"sorted_smallest"`` policy.
    """
    if allocation not in CSF_ALLOCATIONS:
        raise ValueError(f"unknown allocation {allocation!r}; choose from {CSF_ALLOCATIONS}")
    dims = tensor.dims
    nmodes = tensor.nmodes
    roots: list[int]
    base = mode_order(dims)
    if allocation == "one" or nmodes == 1:
        roots = [base[0]]
    elif allocation == "two":
        smallest = base[0]
        biggest = base[-1]
        roots = [smallest] if biggest == smallest else [smallest, biggest]
    else:  # all
        roots = list(range(nmodes))
    with _obs.span(
        "csf.build_set", allocation=allocation, ntrees=len(roots), nnz=tensor.nnz
    ):
        trees = [
            build_csf(
                tensor,
                mode_order(dims, root=r),
                sort_variant=sort_variant,
            )
            for r in roots
        ]
    return CsfSet(allocation=allocation, trees=trees)
