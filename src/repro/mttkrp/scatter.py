"""Precomputed scatter plans and reusable workspaces for MTTKRP.

Every non-root MTTKRP ends in a scatter-add: per-task ``(rows, contribs)``
pairs accumulated into shared output rows.  The seed implementation paid
three per-call costs that are *invariant across CP-ALS iterations*:

* ``np.add.at`` — an unbuffered, element-at-a-time scatter (an order of
  magnitude slower than a segmented reduction);
* in the mutex path, a fresh ``np.argsort`` over lock buckets on every
  call, even though the ``fids`` row arrays never change for a given tree;
* fresh ``np.zeros_like`` privatization buffers and ``O(nnz)`` tree-walk
  intermediates on every call.

Following the amortization playbook of Dynasor and the ALTO work (see
PAPERS.md), this module precomputes the memory-access layout once per
``(tree, level, ntasks[, pool_size])`` and reuses it every iteration:

* :class:`RowScatter` — cached stable sort order, segment boundaries, and
  unique output rows for one invariant ``rows`` array, turning the scatter
  into ``np.add.reduceat`` + one vectorized indexed add (and, in the mutex
  flavour, a cached bucket grouping that preserves one lock acquire per
  task-bucket pair);
* :class:`SegmentSum` — precomputed CSR segment-sum operators replacing
  ``np.add.reduceat`` in the tree walk, whose per-segment dispatch cost
  dominates on fiber-sized (few-nonzero) segments;
* :class:`TaskTraversal` — cached per-task node ranges, segment
  boundaries/operators and downward expansion indices for the CSF tree
  walk;
* :class:`Workspace` — a keyed arena of scratch arrays so steady-state
  kernels allocate nothing proportional to ``nnz``;
* :class:`ScatterPlan` — the per-task bundle of the above for one output
  level;
* :class:`MttkrpContext` — the cache (attached to a
  :class:`~repro.csf.build.CsfSet`) handing out plans, workspaces and
  privatization buffers, with hit/miss accounting surfaced by ``cp_als``.

Stable sorts keep each output row's contributions in their original
order, so plan-based results match the ``np.add.at`` path to summation
rounding (``reduceat`` sums pairwise where ``add.at`` is sequential —
``allclose`` at ~1e-15, and typically *more* accurate).

:func:`sorted_scatter_add` is the plan-less one-shot flavour for call
sites whose rows change every call (TTMc chunks, one-off scatters).
"""

from __future__ import annotations

import numpy as np

from repro import probe as _probe
from repro._util import VALUE_DTYPE
from repro.csf.tree import CsfTensor
from repro.mttkrp.partition import nnz_balanced_blocks
from repro.observe import spans as _obs
from repro.tensor.sort import lex_order

__all__ = [
    "sorted_scatter_add",
    "RowScatter",
    "SegmentSum",
    "TaskTraversal",
    "Workspace",
    "ScatterPlan",
    "MttkrpContext",
]

try:  # y += A @ x without allocating: private but long-stable scipy kernel
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - older/newer scipy layouts
    _csr_matvecs = None


def _compiled(backend) -> bool:
    """True when ``backend`` should take the compiled primitive path."""
    return backend is not None and backend.compiled


def sorted_scatter_add(
    out: np.ndarray,
    rows: np.ndarray,
    contribs: np.ndarray,
    backend=None,
) -> np.ndarray:
    """``np.add.at(out, rows, contribs)`` via stable sort + ``reduceat``.

    The per-row accumulation order equals the input order (stable sort), so
    the result matches ``np.add.at`` to summation rounding while running at
    vectorized-reduction speed.  Use :class:`RowScatter` instead when
    ``rows`` is invariant across calls.  A compiled ``backend`` replaces
    the materialized sort gather + ``reduceat`` with one fused
    gather-segment-sum pass (same per-segment input order, so results
    agree to summation rounding).
    """
    if rows.size == 0:
        return out
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(sorted_rows[1:] != sorted_rows[:-1]) + 1
    starts = np.concatenate(([0], starts))
    if (
        _compiled(backend)
        and contribs.dtype == VALUE_DTYPE
        and contribs.flags.c_contiguous
    ):
        reduced = np.empty((starts.size,) + contribs.shape[1:], dtype=VALUE_DTYPE)
        backend.gather_segment_sum(
            contribs,
            order.astype(np.int64, copy=False),
            starts.astype(np.int64, copy=False),
            reduced,
        )
        out[sorted_rows[starts]] += reduced
        return out
    out[sorted_rows[starts]] += np.add.reduceat(contribs[order], starts, axis=0)
    return out


class Workspace:
    """A keyed arena of reusable scratch arrays (one per task).

    ``buf(tag, shape)`` returns the cached array for ``tag``, reallocating
    only when the requested shape changes (e.g. a new rank).  Tags include
    the tree level so the per-level intermediates of different output modes
    on the same tree do not thrash each other.  The arena key includes the
    dtype, so a tag reused with a different dtype gets its own slot instead
    of evicting (or worse, aliasing) the other dtype's scratch.
    """

    def __init__(self) -> None:
        self._bufs: dict = {}

    def buf(self, tag, shape, dtype=VALUE_DTYPE) -> np.ndarray:
        """The cached array for ``(tag, dtype)``, allocated/resized on demand."""
        shape = tuple(shape)
        key = (tag, np.dtype(dtype))
        arr = self._bufs.get(key)
        if arr is None or arr.shape != shape:
            arr = np.empty(shape, dtype=dtype)
            self._bufs[key] = arr
        return arr

    def take(self, source: np.ndarray, indices: np.ndarray, tag) -> np.ndarray:
        """``source[indices]`` (axis 0) materialized into the ``tag`` buffer.

        ``mode="clip"`` skips bounds handling — with ``out=``, the default
        ``mode="raise"`` materializes a temporary and copies it, costing an
        extra full pass.  All callers pass CSF-derived indices that are
        in range by construction, so clipping never actually clips.
        """
        out = self.buf(tag, (indices.shape[0],) + source.shape[1:], source.dtype)
        np.take(source, indices, axis=0, out=out, mode="clip")
        return out

    def nbytes(self) -> int:
        """Total bytes held by the arena."""
        return sum(a.nbytes for a in self._bufs.values())


class RowScatter:
    """Cached scatter structure for one invariant ``rows`` array.

    Precomputes the stable sort ``order``, the ``reduceat`` segment
    boundaries ``seg_starts``, and the unique output rows ``out_rows``.
    When ``pool_size`` is given, rows are additionally grouped by mutex
    bucket (``row % pool_size``, SPLATT's hashing) with cached per-bucket
    bounds, so the locked scatter needs no per-call ``argsort``.
    """

    __slots__ = ("nrows_in", "order", "seg_starts", "out_rows",
                 "bucket_ids", "bucket_bounds", "tag", "_buckets64")

    def __init__(self, rows: np.ndarray, pool_size: int | None = None, tag=None):
        self.nrows_in = int(rows.shape[0])
        self.tag = ("scatter",) if tag is None else tag
        # order/seg_starts are int64 (np.intp on every supported platform),
        # so compiled backends take them as they are.
        self._buckets64 = None
        if self.nrows_in == 0:
            self.order = np.empty(0, dtype=np.int64)
            self.seg_starts = np.empty(0, dtype=np.int64)
            self.out_rows = np.empty(0, dtype=rows.dtype)
            self.bucket_ids = None
            self.bucket_bounds = None
            return
        if pool_size is None:
            self.order = np.argsort(rows, kind="stable").astype(np.int64, copy=False)
            buckets = None
        else:
            buckets = rows % pool_size
            # a stable sort on (bucket, row): groups by bucket, then row,
            # preserving the original order of each row's contributions.
            self.order = lex_order(
                (buckets, rows), (pool_size, int(rows.max()) + 1)
            ).astype(np.int64, copy=False)
        sorted_rows = rows[self.order]
        starts = np.flatnonzero(sorted_rows[1:] != sorted_rows[:-1]) + 1
        self.seg_starts = np.concatenate(([0], starts)).astype(np.int64, copy=False)
        self.out_rows = sorted_rows[self.seg_starts]
        if buckets is None:
            self.bucket_ids = None
            self.bucket_bounds = None
        else:
            seg_buckets = buckets[self.order][self.seg_starts]
            bstarts = np.flatnonzero(seg_buckets[1:] != seg_buckets[:-1]) + 1
            self.bucket_bounds = np.concatenate(
                ([0], bstarts, [seg_buckets.size])
            ).astype(np.int64, copy=False)
            self.bucket_ids = seg_buckets[self.bucket_bounds[:-1]]
            # the compiled locked scatter's (rows, bounds, ids, max row)
            self._buckets64 = (
                *(a.astype(np.int64, copy=False)
                  for a in (self.out_rows, self.bucket_bounds, self.bucket_ids)),
                int(self.out_rows.max()),
            )

    # ------------------------------------------------------------------
    def reduce(
        self,
        contribs: np.ndarray,
        ws: Workspace | None = None,
        *,
        presorted: bool = False,
        backend=None,
    ) -> np.ndarray:
        """Per-unique-row segment sums, aligned with :attr:`out_rows`.

        ``presorted=True`` promises ``contribs`` is already in
        :attr:`order` order (the producer folded the permutation into its
        own gathers), skipping the sort gather entirely.  A compiled
        ``backend`` fuses gather and reduction into one GIL-releasing
        pass over the same segments, agreeing to summation rounding.
        """
        if (
            _compiled(backend)
            and contribs.dtype == VALUE_DTYPE
            and contribs.flags.c_contiguous
        ):
            shape = (self.seg_starts.size,) + contribs.shape[1:]
            if ws is None:
                reduced = np.empty(shape, dtype=VALUE_DTYPE)
            else:
                reduced = ws.buf(self.tag + ("reduced",), shape, VALUE_DTYPE)
            # The compiled kernels take 2-D (n, width) arrays; trailing
            # dims (e.g. ALS's (nnz, R, R) outer-product stacks) flatten
            # to zero-copy views thanks to the C-contiguity guard above.
            width = 1
            for d in contribs.shape[1:]:
                width *= d
            flat = contribs.reshape(contribs.shape[0], width)
            flat_out = reduced.reshape(reduced.shape[0], width)
            if presorted:
                backend.segment_sum(flat, self.seg_starts, flat_out)
            else:
                backend.gather_segment_sum(
                    flat, self.order, self.seg_starts, flat_out
                )
            return reduced
        if presorted:
            sorted_c = contribs
        elif ws is None:
            sorted_c = contribs[self.order]
        else:
            sorted_c = ws.take(contribs, self.order, self.tag + ("sorted",))
        if ws is None:
            return np.add.reduceat(sorted_c, self.seg_starts, axis=0)
        reduced = ws.buf(
            self.tag + ("reduced",),
            (self.seg_starts.size,) + contribs.shape[1:],
            contribs.dtype,
        )
        np.add.reduceat(sorted_c, self.seg_starts, axis=0, out=reduced)
        return reduced

    def scatter_accumulate(
        self,
        out: np.ndarray,
        contribs: np.ndarray,
        ws: Workspace | None = None,
        *,
        presorted: bool = False,
        backend=None,
    ) -> None:
        """``out[rows] += contribs`` with duplicate rows pre-reduced."""
        if self.nrows_in == 0:
            return
        out[self.out_rows] += self.reduce(
            contribs, ws, presorted=presorted, backend=backend
        )
        p = _probe.current
        if p is not None:
            p.array_write(out, self.out_rows, "RowScatter.scatter_accumulate")

    def scatter_assign(
        self,
        out: np.ndarray,
        contribs: np.ndarray,
        ws: Workspace | None = None,
        *,
        presorted: bool = False,
        backend=None,
    ) -> None:
        """Overwrite ``out``'s :attr:`out_rows` with the segment sums.

        Used for reusable privatization buffers: rows outside
        :attr:`out_rows` are never written by this plan, so a buffer stays
        valid across calls without re-zeroing — provided it is only ever
        written through this same plan.
        """
        if self.nrows_in == 0:
            return
        out[self.out_rows] = self.reduce(
            contribs, ws, presorted=presorted, backend=backend
        )
        p = _probe.current
        if p is not None:
            p.array_write(out, self.out_rows, "RowScatter.scatter_assign")

    def scatter_mutex(
        self,
        out: np.ndarray,
        contribs: np.ndarray,
        pool,
        ws: Workspace | None = None,
        *,
        presorted: bool = False,
        backend=None,
        locks=None,
    ) -> None:
        """Locked scatter: one pool acquire per cached bucket group.

        Lock traffic is identical to the seed path (one acquire per
        task-bucket pair, same hashed lock ids), but bucket grouping and
        per-row reduction come from the plan instead of a per-call sort.

        ``locks`` (``pool``'s C lock array, passed when the caller chose
        the compiled path) runs the whole bucket loop in one
        ``backend.scatter_locked`` call with the GIL released; otherwise
        the loop below takes the pool's Python locks.
        """
        if self.nrows_in == 0:
            return
        reduced = self.reduce(contribs, ws, presorted=presorted, backend=backend)
        if locks is not None:
            self._scatter_locked(out, reduced, pool, locks, backend)
            return
        p = _probe.current
        for k in range(self.bucket_ids.size):
            s = int(self.bucket_bounds[k])
            e = int(self.bucket_bounds[k + 1])
            lid = int(self.bucket_ids[k])
            pool.acquire(lid)
            try:
                out[self.out_rows[s:e]] += reduced[s:e]
                if p is not None:
                    # Recorded *inside* the critical section so the access
                    # carries the bucket lock in its lockset.
                    p.array_write(out, self.out_rows[s:e],
                                  "RowScatter.scatter_mutex")
            finally:
                pool.release(lid)

    def _scatter_locked(self, out, reduced, pool, locks, backend) -> None:
        """The compiled bucket loop, with the same counts as the Python one."""
        rows64, bounds64, ids64, max_row = self._buckets64
        # C indexes without bounds checks: refuse what Python would raise on
        # (bucket ids ascend, so the last is the largest)
        if int(ids64[-1]) >= pool.size or max_row >= out.shape[0]:
            raise ValueError(
                f"scatter plan needs {int(ids64[-1]) + 1} locks and "
                f"{max_row + 1} rows; pool has {pool.size}, out {out.shape[0]}"
            )
        counts = np.empty(4, dtype=np.int64)
        backend.scatter_locked(
            out, np.ascontiguousarray(reduced, dtype=VALUE_DTYPE), rows64, bounds64,
            ids64, locks, pool.kind, pool.sleeps, counts,
        )
        acquires, contended, yields, sleeps = (int(c) for c in counts)
        pool.counters.add(lock_acquires=acquires, lock_contended=contended,
                          task_yields=yields, sync_sleeps=sleeps)
        p = _probe.current
        if p is not None:
            p.count("lock.acquires", acquires)
            if contended:
                p.count("lock.contended", contended)
            if sleeps:
                p.count("lock.sync_sleeps", sleeps)


class SegmentSum:
    """Cached segment-sum operator over contiguous row segments.

    ``np.add.reduceat`` pays a per-segment dispatch cost that dominates
    when segments are tiny (CSF fibers average only a few nonzeros), so
    the amortized kernels precompute a sparse 0/1 matrix whose rows are
    the segments and apply it with scipy's compiled CSR matmul — ~10×
    faster on fiber-sized segments, identical segment membership, with
    per-segment sums accumulated sequentially (``allclose`` to the
    reduceat path's pairwise sums).
    """

    __slots__ = ("matrix", "nseg", "nin", "starts64")

    def __init__(self, starts: np.ndarray, nin: int):
        import scipy.sparse as sp

        self.nseg = int(starts.shape[0])
        self.nin = int(nin)
        # Kept separately from matrix.indptr (scipy may downcast that to
        # int32): the compiled backends require int64 segment starts.
        self.starts64 = np.ascontiguousarray(starts, dtype=np.int64)
        indptr = np.empty(self.nseg + 1, dtype=np.int64)
        indptr[: self.nseg] = starts
        indptr[self.nseg] = nin
        self.matrix = sp.csr_matrix(
            (np.ones(nin, dtype=VALUE_DTYPE), np.arange(nin, dtype=np.int64), indptr),
            shape=(self.nseg, nin),
        )

    def apply(self, w: np.ndarray, ws: Workspace, tag, backend=None) -> np.ndarray:
        """Per-segment sums of ``w``'s rows, in a reused ``tag`` buffer."""
        out = ws.buf(tag, (self.nseg,) + w.shape[1:], w.dtype)
        if (
            _compiled(backend)
            and w.dtype == VALUE_DTYPE
            and w.flags.c_contiguous
        ):
            backend.segment_sum(w, self.starts64, out)
            return out
        m = self.matrix
        if _csr_matvecs is not None and w.flags["C_CONTIGUOUS"]:
            out[:] = 0.0
            _csr_matvecs(
                self.nseg, self.nin, w.shape[1],
                m.indptr, m.indices, m.data, w.ravel(), out.ravel(),
            )
        else:
            out[:] = m @ w
        return out

    def nbytes(self) -> int:
        m = self.matrix
        return (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                + self.starts64.nbytes)


class TaskTraversal:
    """Cached CSF tree-walk structure for one task's root slices ``[lo, hi)``.

    Holds everything the upward/downward kernels recompute per call in the
    seed implementation: per-level node ``ranges``, ``reduceat`` child
    boundaries (``up_starts``), downward expansion indices
    (``down_expand``, replacing per-call ``np.repeat`` span math), and the
    per-level ``fids``/``values`` slices.
    """

    __slots__ = ("lo", "hi", "ranges", "up_starts", "up_segsum", "down_expand",
                 "fids", "values")

    def __init__(self, csf: CsfTensor, lo: int, hi: int):
        self.lo, self.hi = lo, hi
        nmodes = csf.nmodes
        ranges = [(lo, hi)]
        for level in range(nmodes - 1):
            clo, chi = ranges[-1]
            ranges.append((int(csf.fptr[level][clo]), int(csf.fptr[level][chi])))
        self.ranges = ranges
        self.up_starts = []
        self.up_segsum = []
        for level in range(nmodes - 1):
            nlo, nhi = ranges[level]
            clo = ranges[level + 1][0]
            starts = (csf.fptr[level][nlo:nhi] - clo).astype(np.intp, copy=False)
            self.up_starts.append(starts)
            self.up_segsum.append(SegmentSum(starts, ranges[level + 1][1] - clo))
        self.down_expand: list[np.ndarray | None] = [None]
        for level in range(1, nmodes):
            plo, phi = ranges[level - 1]
            spans = np.diff(csf.fptr[level - 1][plo : phi + 1])
            self.down_expand.append(
                np.repeat(np.arange(phi - plo, dtype=np.intp), spans)  # reprolint: allow(hot-loop-alloc) — one-time plan construction in TaskTraversal.__init__, amortized over every later call
            )
        self.fids = [csf.fids[level][ranges[level][0] : ranges[level][1]] for level in range(nmodes)]
        self.values = csf.values[ranges[nmodes - 1][0] : ranges[nmodes - 1][1]]


class ScatterPlan:
    """Everything invariant about one ``(tree, level, ntasks[, pool_size])``.

    ``bounds`` are the nnz-balanced root-slice blocks, ``traversals[tid]``
    the cached tree walk per task, and ``scatters[tid]`` the cached scatter
    structure over the level's ``fids`` rows.  Build once (via
    :class:`MttkrpContext`), apply every iteration.

    For the **leaf** level the scatter permutation is folded into the
    traversal itself: ``leaf_expand_sorted[tid]`` composes the final
    downward expansion with the scatter sort order, and
    ``leaf_values_sorted[tid]`` pre-permutes the nonzero values, so the
    leaf kernel emits contributions already in sorted order and the
    per-call ``O(nnz)`` sort gather disappears (``presorted=True``).
    """

    __slots__ = ("level", "ntasks", "pool_size", "bounds", "traversals", "scatters",
                 "leaf_expand_sorted", "leaf_values_sorted")

    def __init__(
        self,
        csf: CsfTensor,
        level: int,
        ntasks: int,
        pool_size: int | None = None,
        *,
        bounds: np.ndarray | None = None,
        traversals: list[TaskTraversal] | None = None,
    ):
        self.level = level
        self.ntasks = ntasks
        self.pool_size = pool_size
        self.bounds = nnz_balanced_blocks(csf, ntasks) if bounds is None else bounds
        if traversals is None:
            traversals = [
                TaskTraversal(csf, int(self.bounds[t]), int(self.bounds[t + 1]))
                for t in range(ntasks)
            ]
        self.traversals = traversals
        lock_tag = "mutex" if pool_size is not None else "priv"
        self.scatters = [
            RowScatter(trav.fids[level], pool_size, tag=("scatter", level, lock_tag))
            for trav in traversals
        ]
        if level == csf.nmodes - 1:
            self.leaf_expand_sorted = [
                trav.down_expand[level][sc.order]
                for trav, sc in zip(self.traversals, self.scatters)
            ]
            self.leaf_values_sorted = [
                trav.values[sc.order]
                for trav, sc in zip(self.traversals, self.scatters)
            ]
        else:
            self.leaf_expand_sorted = None
            self.leaf_values_sorted = None

    def memory_bytes(self) -> int:
        """Plan storage footprint (index arrays; roughly tree-sized)."""
        total = 0
        for trav in self.traversals:
            total += sum(a.nbytes for a in trav.up_starts)
            total += sum(s.nbytes() for s in trav.up_segsum)
            total += sum(a.nbytes for a in trav.down_expand if a is not None)
        for sc in self.scatters:
            total += sc.order.nbytes + sc.seg_starts.nbytes + sc.out_rows.nbytes
            if sc.bucket_ids is not None:
                total += sc.bucket_ids.nbytes + sc.bucket_bounds.nbytes
        if self.leaf_expand_sorted is not None:
            total += sum(a.nbytes for a in self.leaf_expand_sorted)
            total += sum(a.nbytes for a in self.leaf_values_sorted)
        return total


class MttkrpContext:
    """Per-:class:`~repro.csf.build.CsfSet` cache of plans and workspaces.

    Tree-scoped entries are keyed by ``id(tree)``.  The context also holds
    a strong reference to every tree it has seen, so no id can be reused
    while its entries exist; for the owning set's own trees (the only
    trees :func:`~repro.mttkrp.variants.mttkrp_csf` passes) that costs
    nothing, and the whole cache lives exactly as long as the set.  Tracks
    plan hits/misses for the engine report (``cp_als`` summary,
    benchmarks).
    """

    def __init__(self) -> None:
        self._trees: dict[int, CsfTensor] = {}
        self._traversals: dict = {}
        self._plans: dict = {}
        self._buffers: dict = {}
        self._workspaces: dict = {}
        self._packed: dict = {}
        self.plan_hits = 0
        self.plan_misses = 0

    # ------------------------------------------------------------------
    def _tree_key(self, tree: CsfTensor) -> int:
        """``id(tree)``, pinned by holding the tree for the context's life."""
        key = id(tree)
        self._trees.setdefault(key, tree)
        return key

    def _shared_traversals(
        self, tree: CsfTensor, ntasks: int
    ) -> tuple[np.ndarray, list[TaskTraversal]]:
        key = (self._tree_key(tree), ntasks)
        entry = self._traversals.get(key)
        if entry is None:
            bounds = nnz_balanced_blocks(tree, ntasks)
            travs = [
                TaskTraversal(tree, int(bounds[t]), int(bounds[t + 1]))
                for t in range(ntasks)
            ]
            entry = (bounds, travs)
            self._traversals[key] = entry
        return entry

    def plan(
        self, tree: CsfTensor, level: int, ntasks: int, pool_size: int | None = None
    ) -> tuple[ScatterPlan, bool]:
        """The cached :class:`ScatterPlan` for the key, plus a hit flag."""
        key = (self._tree_key(tree), level, ntasks, pool_size)
        cached = self._plans.get(key)
        if cached is not None:
            self.plan_hits += 1
            _obs.count("mttkrp.plan_hits")
            return cached, True
        self.plan_misses += 1
        _obs.count("mttkrp.plan_misses")
        with _obs.span(
            "mttkrp.plan_build", level=level, ntasks=ntasks, pool_size=pool_size
        ):
            bounds, travs = self._shared_traversals(tree, ntasks)
            plan = ScatterPlan(
                tree, level, ntasks, pool_size, bounds=bounds, traversals=travs
            )
        self._plans[key] = plan
        return plan, False

    def workspaces(
        self, tree: CsfTensor, ntasks: int, backend: str = "numpy"
    ) -> list[Workspace]:
        """One :class:`Workspace` per task, shared by all levels of a tree.

        Keyed by ``backend`` name as well: compiled and NumPy kernels shape
        their scratch differently, so sharing one arena across backends
        would thrash its buffers when comparing backends on one tree.
        """
        key = (self._tree_key(tree), ntasks, backend)
        ws = self._workspaces.get(key)
        if ws is None:
            ws = [Workspace() for _ in range(ntasks)]
            self._workspaces[key] = ws
        return ws

    def packed_tree(self, tree: CsfTensor):
        """The tree's cached :class:`~repro.backend.packing.PackedTree`
        (flat compiled-kernel layout), built once per tree."""
        from repro.backend.packing import PackedTree

        key = self._tree_key(tree)
        pk = self._packed.get(key)
        if pk is None:
            pk = PackedTree(tree)
            self._packed[key] = pk
        return pk

    def pack_workspace(self, tree: CsfTensor, backend: str) -> Workspace:
        """The arena holding a backend's packed factor matrix for ``tree``
        (rebuilt into the same buffer every MTTKRP call)."""
        return self.workspaces(tree, 1, "pack:" + backend)[0]

    def buffers(
        self, tree: CsfTensor, level: int, ntasks: int, shape: tuple[int, ...]
    ) -> list[np.ndarray]:
        """Reusable privatization buffers for one plan key.

        Zeroed on first allocation only: the plan's ``scatter_assign``
        overwrites exactly the rows it owns, so the invariant "rows outside
        ``out_rows`` are zero" holds across calls.
        """
        key = (self._tree_key(tree), level, ntasks, tuple(shape))
        bufs = self._buffers.get(key)
        if bufs is None:
            bufs = [np.zeros(shape, dtype=VALUE_DTYPE) for _ in range(ntasks)]  # reprolint: allow(hot-loop-alloc) — first-miss privatization buffers, cached in self._buffers for the tensor's lifetime
            self._buffers[key] = bufs
        return bufs

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Cache accounting: plans held, hits, misses, bytes cached."""
        plan_bytes = sum(p.memory_bytes() for p in self._plans.values())
        ws_bytes = sum(w.nbytes() for group in self._workspaces.values() for w in group)
        buf_bytes = sum(b.nbytes for group in self._buffers.values() for b in group)
        packed_bytes = sum(p.nbytes() for p in self._packed.values())
        return {
            "plans": len(self._plans),
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_bytes": plan_bytes,
            "workspace_bytes": ws_bytes,
            "buffer_bytes": buf_bytes,
            "packed_bytes": packed_bytes,
        }
