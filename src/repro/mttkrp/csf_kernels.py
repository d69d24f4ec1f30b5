"""Vectorized CSF MTTKRP kernels (SPLATT's root / internal / leaf algorithms).

These are the compiled-speed implementations standing in for SPLATT's C
(DESIGN.md §2): every per-node loop is replaced by NumPy segment primitives
(segment sums going up the tree, cached expansion indices going down), so
the interpreted overhead per nonzero is gone — exactly the role the C
baseline plays in the paper's comparison.

All kernels operate on a contiguous range ``[lo, hi)`` of root slices so
they can serve as the per-task body of the two parallel drivers at the
bottom of this module:

* :func:`run_root_parallel` — tasks own disjoint output rows; no
  synchronization.
* :func:`run_scatter` — internal/leaf modes, whose output rows are shared.
  One task adds into the output; more tasks each fill a compact buffer of
  the rows they touch and add it under the *mutex pool* or, privatized,
  merge the buffers in task order, per
  :func:`repro.mttkrp.locks_policy.needs_locks`.

A compiled backend (``bctx``) replaces each task's tree walk with one
GIL-releasing kernel pass that adds into its rows directly
(:mod:`repro.backend.kernels_ref` states the contract); the NumPy walk
meets the same contract through its plan's
:class:`~repro.mttkrp.scatter.RowScatter`.  :func:`array_reduce_buffers`,
the interpreted ladder's reduction of out-shaped private buffers, is
re-exported here for :mod:`repro.mttkrp.variants`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import probe as _probe
from repro._util import VALUE_DTYPE
from repro.csf.tree import CsfTensor
from repro.mttkrp.scatter import ScatterPlan, TaskTraversal, Workspace
from repro.runtime.locks import MutexPool
from repro.runtime.reductions import array_reduce_buffers
from repro.runtime.tasking import TaskingLayer

__all__ = [
    "root_range_vectorized",
    "internal_range_vectorized",
    "leaf_range_vectorized",
    "leaf_range_sorted",
    "run_root_parallel",
    "run_scatter",
    "array_reduce_buffers",
]


def _level_ranges(csf: CsfTensor, lo: int, hi: int) -> list[tuple[int, int]]:
    """Node ranges per level covered by root slices ``[lo, hi)``."""
    ranges = [(lo, hi)]
    for level in range(csf.nmodes - 1):
        lo, hi = int(csf.fptr[level][lo]), int(csf.fptr[level][hi])
        ranges.append((lo, hi))
    return ranges


def _check_call(trav: TaskTraversal | None, ws: Workspace | None, bctx) -> None:
    """A range kernel runs plan-less (no ``trav``, ``ws`` or ``bctx``) or
    planned (``trav`` and ``ws``, plus an optional compiled ``bctx``)."""
    if (trav is None) != (ws is None) or (bctx is not None and trav is None):
        raise ValueError("pass trav and ws together (bctx needs both), or neither")


def _check_target(bctx, out) -> None:
    """A compiled internal/leaf call adds into ``out``; a NumPy one returns
    its contributions."""
    if (bctx is None) != (out is None):
        raise ValueError("pass out exactly when passing bctx")


def _record_write(out: np.ndarray, rows: np.ndarray, site: str) -> None:
    p = _probe.current
    if p is not None:
        p.array_write(out, rows, site)


def _upward_product(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    ranges: list[tuple[int, int]],
    stop_level: int,
    *,
    trav: TaskTraversal | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Bottom-up subtree accumulation down to (and excluding) ``stop_level``.

    Returns ``W`` with one row per node of ``stop_level + 1`` already
    multiplied by that level's factor rows, then segment-reduced so the
    caller gets one row per node of ``stop_level`` *without* the
    ``stop_level`` factor applied.

    Plan-less, every level's segment boundaries come from ``ranges`` and
    reduce through ``np.add.reduceat``.  With ``trav`` (precomputed
    per-level segment structure and ``fids``/``values`` slices) and ``ws``
    (reusable output buffers) the steady state allocates nothing, and
    segment reductions run through the traversal's cached
    :class:`~repro.mttkrp.scatter.SegmentSum` operators (compiled CSR
    matmul) — same segment membership, sums accumulated sequentially
    rather than pairwise, so the paths agree to summation rounding
    (``allclose``).
    """
    nmodes = csf.nmodes
    leaf_mode = csf.dim_perm[nmodes - 1]
    if trav is None:
        leaf_lo, leaf_hi = ranges[nmodes - 1]
        w = (csf.values[leaf_lo:leaf_hi, None]
             * factors[leaf_mode][csf.fids[nmodes - 1][leaf_lo:leaf_hi]])
        for level in range(nmodes - 2, stop_level, -1):
            nlo, nhi = ranges[level]
            w = np.add.reduceat(w, csf.fptr[level][nlo:nhi] - ranges[level + 1][0], axis=0)
            w *= factors[csf.dim_perm[level]][csf.fids[level][nlo:nhi]]
        # final reduction onto stop_level nodes (factor NOT applied)
        nlo, nhi = ranges[stop_level]
        starts = csf.fptr[stop_level][nlo:nhi] - ranges[stop_level + 1][0]
        return np.add.reduceat(w, starts, axis=0)
    w = ws.take(factors[leaf_mode], trav.fids[nmodes - 1], ("up_take", nmodes - 1))
    w *= trav.values[:, None]
    for level in range(nmodes - 2, stop_level, -1):
        w = trav.up_segsum[level].apply(w, ws, ("up", level))
        w *= ws.take(factors[csf.dim_perm[level]], trav.fids[level], ("up_take", level))
    return trav.up_segsum[stop_level].apply(w, ws, ("up", stop_level))


def _downward_product(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    ranges: list[tuple[int, int]],
    stop_level: int,
    *,
    trav: TaskTraversal | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Top-down root-to-node row products, expanded to ``stop_level`` nodes.

    The returned matrix has one row per node of ``stop_level`` and excludes
    the ``stop_level`` factor itself.  With ``trav`` and ``ws``, the
    per-call ``np.repeat`` span math is replaced by the traversal's cached
    expansion indices and every intermediate lands in a reused buffer.
    """
    if trav is None:
        lo, hi = ranges[0]
        d = factors[csf.dim_perm[0]][csf.fids[0][lo:hi]].astype(VALUE_DTYPE, copy=False)
        for level in range(1, stop_level + 1):
            plo, phi = ranges[level - 1]
            d = np.repeat(d, np.diff(csf.fptr[level - 1][plo : phi + 1]), axis=0)
            if level < stop_level:
                nlo, nhi = ranges[level]
                d = d * factors[csf.dim_perm[level]][csf.fids[level][nlo:nhi]]
        return d
    d = ws.take(factors[csf.dim_perm[0]], trav.fids[0], ("down_take", 0))
    for level in range(1, stop_level + 1):
        d = ws.take(d, trav.down_expand[level], ("down", level))
        if level < stop_level:
            d *= ws.take(factors[csf.dim_perm[level]], trav.fids[level], ("down_take", level))
    return d


def root_range_vectorized(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    out: np.ndarray,
    lo: int,
    hi: int,
    *,
    trav: TaskTraversal | None = None,
    ws: Workspace | None = None,
    bctx=None,
) -> None:
    """Root-mode MTTKRP over slices ``[lo, hi)``, accumulated into ``out``.

    Output rows ``fids[0][lo:hi]`` are distinct, so concurrent calls on
    disjoint slice ranges are race-free.  ``trav``/``ws`` enable the
    amortized path (cached traversal indices, reused buffers).  ``bctx``
    (a :class:`~repro.backend.registry.BackendCall`) replaces the NumPy
    tree walk with a compiled, GIL-releasing kernel that adds each root
    slice's product straight into its row of ``out``.
    """
    _check_call(trav, ws, bctx)
    if hi <= lo:
        return
    # Order-1 tree: the root is also the leaf, so the "subtree product" is
    # just the nonzero values broadcast across the rank; root fids are
    # distinct, so a direct indexed add does the scatter.
    if trav is None:
        rows = csf.fids[0][lo:hi]
        if csf.nmodes == 1:
            w = np.broadcast_to(csf.values[lo:hi, None], (hi - lo, out.shape[1]))
        else:
            w = _upward_product(csf, factors, _level_ranges(csf, lo, hi), 0)
    else:
        rows = trav.fids[0]
        if bctx is not None:
            bctx.backend.root_kernel(bctx.tree, bctx.factors, lo, hi, out)
        elif csf.nmodes == 1:
            w = ws.buf(("root_bcast",), (rows.shape[0], out.shape[1]), out.dtype)
            w[:] = trav.values[:, None]
        else:
            w = _upward_product(csf, factors, trav.ranges, 0, trav=trav, ws=ws)
    if bctx is None:
        out[rows] += w
    # Root tasks own disjoint slice ranges, hence disjoint rows — the
    # sanitizer verifies that claim rather than assuming it.
    _record_write(out, rows, "root_range_vectorized")


def _empty_contribs(factors: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    rank = factors[0].shape[1]
    return np.empty(0, dtype=np.int64), np.empty((0, rank), dtype=VALUE_DTYPE)


def leaf_range_vectorized(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    lo: int,
    hi: int,
    *,
    trav: TaskTraversal | None = None,
    ws: Workspace | None = None,
    bctx=None,
    out: np.ndarray | None = None,
    slot: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Leaf-mode MTTKRP contributions from slices ``[lo, hi)``.

    Returns ``(rows, contribs)`` — the caller owns the scatter-add, because
    leaf rows repeat across tasks and synchronization policy lives a level
    up (privatize vs mutex).  With ``trav``/``ws``, ``contribs`` is a
    reused workspace buffer valid until the task's next kernel call.

    ``bctx`` runs the compiled single-pass kernel instead, which returns
    ``None``: it adds every contribution into ``out`` — the MTTKRP output
    itself, or, with ``slot`` (:meth:`RowScatter.slots
    <repro.mttkrp.scatter.RowScatter.slots>`), the task's compact buffer.
    """
    nmodes = csf.nmodes
    if nmodes < 2:
        raise ValueError("leaf algorithm requires order >= 2")
    _check_call(trav, ws, bctx)
    _check_target(bctx, out)
    if hi <= lo:
        return None if bctx is not None else _empty_contribs(factors)
    if trav is None:
        ranges = _level_ranges(csf, lo, hi)
        leaf_lo, leaf_hi = ranges[nmodes - 1]
        d = _downward_product(csf, factors, ranges, nmodes - 1)
        return csf.fids[nmodes - 1][leaf_lo:leaf_hi], csf.values[leaf_lo:leaf_hi, None] * d
    rows = trav.fids[nmodes - 1]
    if bctx is not None:
        bctx.backend.leaf_kernel(bctx.tree, bctx.factors, lo, hi, out, slot)
        if slot is None:
            _record_write(out, rows, "leaf_range_vectorized")
        return None
    d = _downward_product(csf, factors, trav.ranges, nmodes - 1, trav=trav, ws=ws)
    d *= trav.values[:, None]
    return rows, d


def leaf_range_sorted(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    trav: TaskTraversal,
    ws: Workspace,
    expand_sorted: np.ndarray,
    values_sorted: np.ndarray,
) -> np.ndarray:
    """Leaf-mode contributions emitted directly in scatter-sorted order.

    ``expand_sorted`` and ``values_sorted`` are the task's entries of the
    leaf plan's ``leaf_expand_sorted`` (the final downward expansion
    composed with the scatter sort permutation) and ``leaf_values_sorted``
    (the values, pre-permuted), so the caller's
    :class:`~repro.mttkrp.scatter.RowScatter` can reduce with
    ``presorted=True``, reading the rows in place rather than through its
    sort order.  Elementwise products are identical to
    :func:`leaf_range_vectorized`'s, so results match that path exactly.
    """
    nmodes = csf.nmodes
    if trav.hi <= trav.lo:
        rank = factors[0].shape[1]
        return np.empty((0, rank), dtype=VALUE_DTYPE)
    d = _downward_product(
        csf, factors, trav.ranges, stop_level=nmodes - 2, trav=trav, ws=ws
    )
    if nmodes > 2:
        level = nmodes - 2
        d *= ws.take(factors[csf.dim_perm[level]], trav.fids[level], ("down_take", level))
    contribs = ws.take(d, expand_sorted, ("leaf_sorted",))
    contribs *= values_sorted[:, None]
    return contribs


def internal_range_vectorized(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    level: int,
    lo: int,
    hi: int,
    *,
    trav: TaskTraversal | None = None,
    ws: Workspace | None = None,
    bctx=None,
    out: np.ndarray | None = None,
    slot: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Internal-mode MTTKRP contributions for tree ``level`` (0<level<N-1).

    Combines the downward product (modes above ``level``) with the upward
    product (modes below) at each ``level`` node.  Returns
    ``(rows, contribs)`` like :func:`leaf_range_vectorized`; with ``bctx``
    the compiled kernel adds into ``out`` (or, with ``slot``, the task's
    compact buffer) instead and ``None`` is returned.
    """
    nmodes = csf.nmodes
    if not 0 < level < nmodes - 1:
        raise ValueError(f"internal level must be in (0, {nmodes - 1}), got {level}")
    _check_call(trav, ws, bctx)
    _check_target(bctx, out)
    if hi <= lo:
        return None if bctx is not None else _empty_contribs(factors)
    if trav is None:
        ranges = _level_ranges(csf, lo, hi)
        nlo, nhi = ranges[level]
        d = _downward_product(csf, factors, ranges, level)
        u = _upward_product(csf, factors, ranges, level)
        return csf.fids[level][nlo:nhi], d * u
    rows = trav.fids[level]
    if bctx is not None:
        bctx.backend.internal_kernel(bctx.tree, bctx.factors, level, lo, hi,
                                     out, slot)
        if slot is None:
            _record_write(out, rows, "internal_range_vectorized")
        return None
    d = _downward_product(csf, factors, trav.ranges, level, trav=trav, ws=ws)
    u = _upward_product(csf, factors, trav.ranges, level, trav=trav, ws=ws)
    np.multiply(d, u, out=d)
    return rows, d


# ----------------------------------------------------------------------
# parallel drivers
# ----------------------------------------------------------------------
def run_root_parallel(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    out: np.ndarray,
    layer: TaskingLayer,
    *,
    plan: ScatterPlan,
    workspaces: Sequence[Workspace],
    bctx=None,
) -> None:
    """Parallel root-mode MTTKRP: nnz-balanced slice blocks, no locks.

    The partitioning and each task's traversal come from the cached
    :class:`~repro.mttkrp.scatter.ScatterPlan`.  With ``bctx``, each
    task's subtree products run in a compiled GIL-releasing kernel.
    """
    bounds = plan.bounds

    def task(tid: int) -> None:
        root_range_vectorized(
            csf, factors, out, int(bounds[tid]), int(bounds[tid + 1]),
            trav=plan.traversals[tid], ws=workspaces[tid], bctx=bctx,
        )

    layer.coforall(layer.env.num_tasks, task)


def run_scatter(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    level: int,
    out: np.ndarray,
    layer: TaskingLayer,
    pool: MutexPool | None,
    *,
    plan: ScatterPlan,
    workspaces: Sequence[Workspace],
    backend,
    bctx=None,
) -> None:
    """Internal/leaf MTTKRP at tree ``level``: one walk per task.

    A single task adds straight into ``out``.  With more tasks, each fills
    a compact buffer of the rows it touches, one row per entry of its plan
    scatter's ``out_rows``, then adds it into ``out`` under the bucket
    locks of ``pool`` (one acquire per task-bucket pair); a privatized
    mode merges the buffers into ``out`` in task order once every task is
    done, so its rows do not depend on the schedule.

    Both backends meet that contract.  With ``bctx`` the compiled range
    kernel adds into the buffer through the scatter's
    :meth:`~repro.mttkrp.scatter.RowScatter.slots`.  The NumPy walk emits
    per-node contributions and its scatter reduces them, with
    :meth:`~repro.mttkrp.scatter.RowScatter.reduce`, into the same
    workspace buffer (tag ``sc.tag + ("reduced",)``); the leaf walk emits
    them presorted.

    The lock flavour is chosen here, once for every task: a
    ``locked_scatter`` backend runs each task's bucket loop in C over the
    pool's C locks, unless a sanitizer is installed — it must see every
    acquire and write, so it gets the Python loop over the Python locks.
    """
    leaf = level == csf.nmodes - 1
    traversals = plan.traversals
    if bctx is None and leaf:
        # the NumPy leaf walk's presorted state, built before any task runs
        expands, values = plan.leaf_expand_sorted, plan.leaf_values_sorted

    def walk(tid: int, **kwargs):
        trav = traversals[tid]
        if leaf:
            return leaf_range_vectorized(csf, factors, trav.lo, trav.hi, trav=trav,
                                         ws=workspaces[tid], **kwargs)
        return internal_range_vectorized(csf, factors, level, trav.lo, trav.hi,
                                         trav=trav, ws=workspaces[tid], **kwargs)

    def fill(tid: int, dest: np.ndarray, sc) -> None:
        # adds task tid's contributions into out (sc None) or its buffer
        if bctx is not None:
            walk(tid, bctx=bctx, out=dest, slot=None if sc is None else sc.slots())
            return
        ws = workspaces[tid]
        if leaf:
            contribs = leaf_range_sorted(csf, factors, traversals[tid], ws,
                                         expands[tid], values[tid])
        else:
            _, contribs = walk(tid)
        if sc is None:
            plan.scatters[0].scatter_accumulate(dest, contribs, ws, presorted=leaf)
        else:
            sc.reduce(contribs, ws, presorted=leaf)

    ntasks = layer.env.num_tasks
    if ntasks == 1:
        fill(0, out, None)
        return
    p = _probe.current
    locks = None
    if pool is not None and backend.locked_scatter and (p is None or p.sanitizer is None):
        locks = pool.c_locks(backend)
    rank = out.shape[1]
    scatters = plan.scatters
    filled: list[np.ndarray | None] = [None] * ntasks

    def task(tid: int) -> None:
        sc = scatters[tid]
        buf = workspaces[tid].buf(sc.tag + ("reduced",), (sc.out_rows.shape[0], rank))
        fill(tid, buf, sc)
        if pool is None:
            filled[tid] = buf
        else:
            sc.scatter_mutex(out, buf, pool, reduced=True, backend=backend, locks=locks)

    layer.coforall(ntasks, task)
    if pool is None:
        for sc, buf in zip(scatters, filled):
            sc.scatter_accumulate(out, buf, reduced=True)
