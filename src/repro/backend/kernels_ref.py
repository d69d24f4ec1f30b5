"""The compiled-kernel algorithms, written once as plain loops over arrays.

These functions are the *single source of truth* for the compiled MTTKRP
range kernels and the gather segment sum.  The ``cext`` backend
(:mod:`repro.backend.cext`) is their C form.  Its range kernels walk a
task's slices once per block of factor columns, with the block's running
sums in vector registers, and apply to each element the operations these
loops apply over whole rows, in the same order: a multiply-add
(``acc += v * row``) is fused wherever the compiler fuses that loop, a
product these loops keep in its own row (``tmp``, ``term``) is rounded on
its own.  The unit tests run these functions interpreted (slow, but
exact) through the full dispatch path, certifying the algorithm the C
implements on any machine, with or without a compiler.

Data layout: the kernels read the CSF tree and the factor matrices in
place, as per-level lists: the tree's own ``fptr`` (levels
``0..nmodes-2``) and ``fids`` (levels ``0..nmodes-1``) ``int64`` arrays,
its ``values``, and the factor matrices in tree-level order
(``factors[l]`` is the factor of mode ``dim_perm[l]``).  Nothing is
copied; the C form takes the same lists as tables of pointers, so one C
function covers tensors of any order.

Algorithm: a single linear scan over the task's leaves with one running
accumulator per tree level and an upward "cascade" that fires whenever a
node's child range is exhausted.  This fuses the multi-pass NumPy
up/downward products (gather → multiply → segment-reduce per level) into
one pass over ``nnz`` with O(nmodes·R) state — the layout-aware compiled
formulation the ALTO line of work identifies as where the wins live.  The
cascade is well-defined because CSF guarantees no zero-child nodes
(``CsfTensor._validate`` rejects non-strictly-increasing ``fptr``).

Mathematically each kernel matches its vectorized counterpart in
:mod:`repro.mttkrp.csf_kernels` exactly (same products, same
subtree-before-sibling accumulation order up to summation rounding), so
results agree to ``allclose`` at 1e-10 — asserted across the whole
equivalence suite.

Output contract (direct write): the range kernels emit nothing per node.
Each one *adds* every contribution into its output row while it walks the
task's slices, and returns ``None``:

* the root kernel adds root node ``i`` into ``out[fids[0][i]]``;
* the internal and leaf kernels add into ``out[fid]`` when ``slot`` is
  ``None`` — one task owns the whole MTTKRP output;
* with ``slot``, ``out`` is the task's compact buffer, one row per output
  row the task touches: the kernel zeroes it, then node ``i`` of the
  task's range at the output level adds into ``out[slot[i]]``.  The
  caller's :class:`~repro.mttkrp.scatter.RowScatter` built ``slot`` and
  adds the buffer into the shared output (bucket locks or a task-ordered
  merge).

Each row sums its contributions in tree order from zero, the order
:func:`gather_segment_sum_kernel` takes over a stable row sort, so a row
matches gathering per-node contributions and segment-summing them bit for
bit.  No kernel allocates per-``nnz`` temporaries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "root_kernel",
    "internal_kernel",
    "leaf_kernel",
    "gather_segment_sum_kernel",
]


def root_kernel(fptr, fids, values, factors, lo, hi, out):
    """Root-mode MTTKRP for root slices ``[lo, hi)``, added into ``out``.

    Root node ``i`` adds its full upward product (all levels below the
    root multiplied in; the root factor excluded, as
    ``_upward_product(..., stop_level=0)``) into ``out[fids[0][i]]``.
    Root fids are distinct, so tasks on disjoint slice ranges never share
    a row.
    """
    nmodes = len(fids)
    rank = factors[0].shape[1]
    last = nmodes - 1
    lo_l = np.empty(nmodes, np.int64)
    hi_l = np.empty(nmodes, np.int64)
    lo_l[0] = lo
    hi_l[0] = hi
    for l in range(last):
        lo_l[l + 1] = fptr[l][lo_l[l]]
        hi_l[l + 1] = fptr[l][hi_l[l]]
    acc = np.zeros((last, rank), np.float64)
    ptr = np.empty(nmodes, np.int64)
    for l in range(nmodes):
        ptr[l] = lo_l[l]
    for z in range(lo_l[last], hi_l[last]):
        fr = fids[last][z]
        v = values[z]
        for r in range(rank):
            acc[last - 1, r] += v * factors[last][fr, r]
        # cascade: close every node whose child range just ended
        pos = z + 1
        l = last - 1
        while pos == fptr[l][ptr[l] + 1]:
            if l == 0:
                row = fids[0][ptr[0]]
                for r in range(rank):
                    out[row, r] += acc[0, r]
                    acc[0, r] = 0.0
                ptr[0] += 1
                break
            fr2 = fids[l][ptr[l]]
            for r in range(rank):
                acc[l - 1, r] += acc[l, r] * factors[l][fr2, r]
                acc[l, r] = 0.0
            ptr[l] += 1
            pos = ptr[l]
            l -= 1


def _clear_rows(out, slot):
    """Zero a compact buffer before a slot-form kernel adds into it."""
    if slot is not None:
        for i in range(out.shape[0]):
            for r in range(out.shape[1]):
                out[i, r] = 0.0


def internal_kernel(fptr, fids, values, factors, level, lo, hi, slot, out):
    """Internal-mode MTTKRP at tree ``level`` (0 < level < nmodes-1).

    Each ``level`` node under root slices ``[lo, hi)`` adds the upward
    product of its subtree times the downward product of its ancestors'
    factor rows (the ``level`` factor itself excluded, as
    ``internal_range_vectorized``'s ``d * u``) into its output row:
    ``out[fid]`` when ``slot`` is ``None``, else row ``slot[i]`` of the
    compact buffer ``out`` (zeroed first) for the range's ``i``-th node.
    """
    nmodes = len(fids)
    rank = factors[0].shape[1]
    last = nmodes - 1
    lo_l = np.empty(nmodes, np.int64)
    hi_l = np.empty(nmodes, np.int64)
    lo_l[0] = lo
    hi_l[0] = hi
    for l in range(last):
        lo_l[l + 1] = fptr[l][lo_l[l]]
        hi_l[l + 1] = fptr[l][hi_l[l]]
    _clear_rows(out, slot)
    acc = np.zeros((last, rank), np.float64)
    tmp = np.empty(rank, np.float64)
    ptr = np.empty(nmodes, np.int64)
    for l in range(nmodes):
        ptr[l] = lo_l[l]
    for z in range(lo_l[last], hi_l[last]):
        fr = fids[last][z]
        v = values[z]
        for r in range(rank):
            acc[last - 1, r] += v * factors[last][fr, r]
        pos = z + 1
        l = last - 1
        while pos == fptr[l][ptr[l] + 1]:
            if l > level:
                fr2 = fids[l][ptr[l]]
                for r in range(rank):
                    acc[l - 1, r] += acc[l, r] * factors[l][fr2, r]
                    acc[l, r] = 0.0
                ptr[l] += 1
                pos = ptr[l]
                l -= 1
            elif l == level:
                # add: subtree sum times the ancestor rows (levels < level)
                for r in range(rank):
                    tmp[r] = acc[level, r]
                    acc[level, r] = 0.0
                for a in range(level):
                    fra = fids[a][ptr[a]]
                    for r in range(rank):
                        tmp[r] *= factors[a][fra, r]
                if slot is not None:
                    row = slot[ptr[level] - lo_l[level]]
                else:
                    row = fids[level][ptr[level]]
                for r in range(rank):
                    out[row, r] += tmp[r]
                ptr[level] += 1
                pos = ptr[level]
                l -= 1
            else:
                # above the output level: structural advance only
                if l == 0:
                    ptr[0] += 1
                    break
                ptr[l] += 1
                pos = ptr[l]
                l -= 1


def leaf_kernel(fptr, fids, values, factors, lo, hi, slot, out):
    """Leaf-mode MTTKRP for root slices ``[lo, hi)``.

    Each leaf (nonzero) adds its value times the product of every ancestor
    level's factor row (the leaf factor excluded, as
    ``leaf_range_vectorized``'s ``vals[:, None] * d``) into its output
    row, chosen as in :func:`internal_kernel`.
    """
    nmodes = len(fids)
    rank = factors[0].shape[1]
    last = nmodes - 1
    lo_l = np.empty(nmodes, np.int64)
    hi_l = np.empty(nmodes, np.int64)
    lo_l[0] = lo
    hi_l[0] = hi
    for l in range(last):
        lo_l[l + 1] = fptr[l][lo_l[l]]
        hi_l[l + 1] = fptr[l][hi_l[l]]
    _clear_rows(out, slot)
    ptr = np.empty(nmodes, np.int64)
    for l in range(nmodes):
        ptr[l] = lo_l[l]
    prow = np.empty(rank, np.float64)
    term = np.empty(rank, np.float64)
    fib = last - 1  # the leaves' parent level ("fiber" level)
    for p in range(lo_l[fib], hi_l[fib]):
        for r in range(rank):
            prow[r] = 1.0
        for a in range(fib):
            fra = fids[a][ptr[a]]
            for r in range(rank):
                prow[r] *= factors[a][fra, r]
        frp = fids[fib][p]
        for r in range(rank):
            prow[r] *= factors[fib][frp, r]
        for z in range(fptr[fib][p], fptr[fib][p + 1]):
            v = values[z]
            for r in range(rank):
                term[r] = v * prow[r]
            if slot is not None:
                row = slot[z - lo_l[last]]
            else:
                row = fids[last][z]
            for r in range(rank):
                out[row, r] += term[r]
        # advance ancestor pointers past completed nodes
        pos = p + 1
        l = fib - 1
        while l >= 0 and pos == fptr[l][ptr[l] + 1]:
            ptr[l] += 1
            pos = ptr[l]
            l -= 1


def gather_segment_sum_kernel(x, order, starts, out):
    """Fused ``x[order]`` gather + segment sum (RowScatter's reduce).

    One pass; each segment sums its rows sequentially from zero in
    ``order`` order (the stable sort order), as the NumPy path's CSR
    segment sum (:class:`~repro.mttkrp.scatter.SegmentSum` with ``order``
    as column indices) does, so the two agree bit for bit.
    """
    nseg = starts.shape[0]
    n = order.shape[0]
    rank = x.shape[1]
    for s in range(nseg):
        e = starts[s + 1] if s + 1 < nseg else n
        for r in range(rank):
            out[s, r] = 0.0
        for i in range(starts[s], e):
            j = order[i]
            for r in range(rank):
                out[s, r] += x[j, r]
