"""Precomputed scatter plans and reusable workspaces for MTTKRP.

Every non-root MTTKRP settles shared output rows: each task adds what its
slices contribute into the rows they touch.  The structure of that scatter
and of the tree walk feeding it is *invariant across CP-ALS iterations*,
so, following the amortization playbook of Dynasor and the ALTO work (see
PAPERS.md), this module computes it once per
``(tree, level, ntasks[, pool_size])`` and reuses it every iteration:

* :class:`RowScatter` — cached stable sort order, segment boundaries and
  unique output rows for one invariant ``rows`` array: the
  :meth:`~RowScatter.slots` of a compiled kernel's compact buffer, the
  segment sum that fills the NumPy walk's, and in the mutex flavour a
  cached bucket grouping that keeps one lock acquire per task-bucket pair;
* :class:`SegmentSum` — cached CSR segment-sum operators: every segment
  sum of the NumPy path (the tree walk's upward reductions and the
  scatters' gather-and-reduce) is one compiled scipy pass;
* :class:`TaskTraversal` — cached per-task node ranges and tree views,
  plus the NumPy walk's segment sums and downward expansion indices;
* :class:`Workspace` — a keyed arena of scratch arrays (the compact
  buffers among them) so steady-state kernels allocate nothing
  proportional to ``nnz``;
* :class:`ScatterPlan` — the per-task bundle of the above for one output
  level;
* :class:`MttkrpContext` — the cache (attached to a
  :class:`~repro.csf.build.CsfSet`) handing out plans and workspaces, with
  hit/miss accounting surfaced by ``cp_als``.

A plan builds only what the running backend reads.  A compiled kernel
reads a plan's ``bounds`` and tree views, and at more than one task the
scatters; everything the NumPy walk alone reads is built on first read,
like its :class:`SegmentSum` operators, so a 1-task compiled solve holds
no plan array at all.

Stable sorts keep each output row's contributions in their original
order, and every segment sum adds them sequentially from zero, so
plan-based results match ``np.add.at`` to summation rounding and the
NumPy and compiled reductions agree bit for bit.

A :class:`RowScatter` built for one call is the one-shot flavour for
call sites whose rows change every call (TTMc chunks, one-off scatters).
"""

from __future__ import annotations

from functools import cache, cached_property
from math import prod
from typing import Iterable, Iterator

import numpy as np

from repro import probe as _probe
from repro._util import VALUE_DTYPE
from repro.csf.tree import CsfTensor
from repro.mttkrp.partition import nnz_balanced_blocks
from repro.observe import spans as _obs
from repro.tensor.sort import lex_order

__all__ = [
    "RowScatter",
    "SegmentSum",
    "TaskTraversal",
    "Workspace",
    "ScatterPlan",
    "MttkrpContext",
]


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
        in range by construction (``mttkrp_csf`` checks every factor's
        shape against the tree's dims), so clipping never actually clips.
        """
        out = self.buf(tag, (indices.shape[0],) + source.shape[1:], source.dtype)
        np.take(source, indices, axis=0, out=out, mode="clip")
        return out

    def nbytes(self) -> int:
        """Total bytes held by the arena."""
        return sum(a.nbytes for a in self._bufs.values())


class RowScatter:
    """Cached scatter structure for one invariant ``rows`` array.

    Precomputes the stable sort ``order``, the segment boundaries
    ``seg_starts`` of the sorted rows, and the unique output rows
    ``out_rows``.
    When ``pool_size`` is given, rows are additionally grouped by mutex
    bucket (``row % pool_size``, SPLATT's hashing) with cached per-bucket
    bounds, so the locked scatter needs no per-call ``argsort``.
    :meth:`slots` maps each input row to its segment, for compiled kernels
    that add into a compact buffer aligned with :attr:`out_rows`.
    """

    __slots__ = ("nrows_in", "order", "seg_starts", "out_rows",
                 "bucket_ids", "bucket_bounds", "tag", "_buckets64", "_slot",
                 "_segsums")

    def __init__(self, rows: np.ndarray, pool_size: int | None = None, tag=None):
        self.nrows_in = int(rows.shape[0])
        self.tag = ("scatter",) if tag is None else tag
        # order/seg_starts are int64 (np.intp on every supported platform),
        # so compiled backends take them as they are.
        self._buckets64 = None
        self._slot = None
        # the NumPy reduce's SegmentSum per ``presorted`` value, built on first use
        self._segsums = [None, None]
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

    def slots(self) -> np.ndarray:
        """``int64`` index of each input row's segment in :attr:`out_rows`.

        A slot-form compiled kernel adds input row ``i``'s contribution
        into row ``slots()[i]`` of a compact buffer, which then holds what
        :meth:`reduce` returns.  Built on first use: the NumPy path and
        single-task compiled calls never need it.
        """
        if self._slot is None:
            segment = np.zeros(self.nrows_in, dtype=np.int64)
            segment[self.seg_starts[1:]] = 1
            np.cumsum(segment, out=segment)
            slot = np.empty(self.nrows_in, dtype=np.int64)
            slot[self.order] = segment
            self._slot = slot
        return self._slot

    def arrays(self) -> Iterator[np.ndarray]:
        """Every index array the scatter holds."""
        yield from (self.order, self.seg_starts, self.out_rows)
        if self.bucket_ids is not None:
            yield from (self.bucket_ids, self.bucket_bounds)
        if self._slot is not None:
            yield self._slot
        for seg in self._segsums:
            if seg is not None:
                yield from seg.arrays()

    def _check_rows(self, contribs: np.ndarray, expected: int) -> None:
        # compiled kernels and scipy's CSR pass index without bounds checks
        if contribs.shape[0] != expected:
            raise ValueError(
                f"scatter over {self.nrows_in} rows ({self.out_rows.shape[0]} "
                f"unique) needs {expected} contribution rows, got {contribs.shape[0]}"
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

        Each segment gathers its rows of ``contribs`` in :attr:`order`
        order and sums them sequentially from zero, in one pass: a
        compiled ``backend``'s ``gather_segment_sum``, else the scatter's
        cached :class:`SegmentSum`, whose CSR column indices are
        :attr:`order`.  The two agree bit for bit.  ``presorted=True``
        promises ``contribs`` is already in :attr:`order` order (the
        producer folded the permutation into its own gathers); its
        segment sum reads the rows in place.  With ``ws`` the sums land
        in its ``tag + ("reduced",)`` buffer.
        """
        self._check_rows(contribs, self.nrows_in)
        tag = self.tag + ("reduced",)
        if presorted or backend is None or not backend.compiled:
            seg = self._segsums[presorted]
            if seg is None:
                seg = SegmentSum(self.seg_starts, self.nrows_in,
                                 None if presorted else self.order)
                self._segsums[presorted] = seg
            return seg.apply(contribs, ws, tag)
        contribs = np.ascontiguousarray(contribs, dtype=VALUE_DTYPE)
        shape = (self.seg_starts.size,) + contribs.shape[1:]
        if ws is None:
            reduced = np.empty(shape, dtype=VALUE_DTYPE)
        else:
            reduced = ws.buf(tag, shape)
        # The compiled kernel takes 2-D (n, width) arrays; trailing dims
        # (e.g. ALS's (nnz, R, R) outer-product stacks) flatten to views.
        width = prod(contribs.shape[1:])
        backend.gather_segment_sum(
            contribs.reshape(contribs.shape[0], width), self.order,
            self.seg_starts, reduced.reshape(reduced.shape[0], width))
        return reduced

    def scatter_accumulate(
        self,
        out: np.ndarray,
        contribs: np.ndarray,
        ws: Workspace | None = None,
        *,
        presorted: bool = False,
        backend=None,
        reduced: bool = False,
    ) -> None:
        """``out[rows] += contribs`` with duplicate rows pre-reduced.

        ``reduced=True`` says ``contribs`` already holds one row per
        :attr:`out_rows` entry (a slot-form kernel's compact buffer).
        """
        self._check_rows(contribs, self.out_rows.shape[0] if reduced else self.nrows_in)
        if self.nrows_in == 0:
            return
        if not reduced:
            contribs = self.reduce(contribs, ws, presorted=presorted, backend=backend)
        out[self.out_rows] += contribs
        p = _probe.current
        if p is not None:
            p.array_write(out, self.out_rows, "RowScatter.scatter_accumulate")

    def scatter_assign(self, out: np.ndarray, contribs: np.ndarray) -> None:
        """Overwrite ``out``'s :attr:`out_rows` with the segment sums.

        Rows outside :attr:`out_rows` are never written.  No MTTKRP path
        assigns; the sanitizer's certification runs it unlocked on shared
        rows as its seeded race.
        """
        self._check_rows(contribs, self.nrows_in)
        if self.nrows_in == 0:
            return
        out[self.out_rows] = self.reduce(contribs)
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
        backend=None,
        locks=None,
        reduced: bool = False,
    ) -> None:
        """Locked scatter: one pool acquire per cached bucket group.

        Lock traffic is identical to the seed path (one acquire per
        task-bucket pair, same hashed lock ids), but bucket grouping and
        per-row reduction come from the plan instead of a per-call sort.
        ``reduced`` is as in :meth:`scatter_accumulate`.

        ``locks`` (``pool``'s C lock array, passed when the caller chose
        the compiled path) runs the whole bucket loop in one
        ``backend.scatter_locked`` call with the GIL released; otherwise
        the loop below takes the pool's Python locks.
        """
        self._check_rows(contribs, self.out_rows.shape[0] if reduced else self.nrows_in)
        if self.nrows_in == 0:
            return
        if not reduced:
            contribs = self.reduce(contribs, ws, backend=backend)
        if locks is not None:
            self._scatter_locked(out, contribs, pool, locks, backend)
            return
        p = _probe.current
        for k in range(self.bucket_ids.size):
            s = int(self.bucket_bounds[k])
            e = int(self.bucket_bounds[k + 1])
            lid = int(self.bucket_ids[k])
            pool.acquire(lid)
            try:
                out[self.out_rows[s:e]] += contribs[s:e]
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


@cache
def _csr_matvecs():
    """scipy's compiled ``Y += A @ X`` over raw CSR arrays (private but
    long-stable), imported on first use so a compiled solve never imports
    scipy."""
    from scipy.sparse._sparsetools import csr_matvecs

    return csr_matvecs


class SegmentSum:
    """Segment-sum operator over contiguous segments of a gather.

    Row ``s`` of the result sums the input rows ``cols[i]`` for ``i`` in
    segment ``s`` (``starts[s]`` up to the next start, the last up to
    ``nin``), added in order from zero.  ``cols`` (``int64``) defaults to
    the identity, as in the tree walk's upward reductions; a
    :class:`RowScatter` passes its stable sort ``order``, so one pass
    gathers and sums, as the compiled ``gather_segment_sum`` does.

    The operator is a 0/1 CSR matrix applied with scipy's compiled
    matmul, which pays no per-segment dispatch cost (NumPy's own segment
    reduction does, and on fiber-sized segments that cost dominates).
    Only the NumPy path builds one (a traversal's on its first upward
    walk, a scatter's on its first NumPy reduce), so a compiled solve
    holds none and never imports scipy.
    """

    __slots__ = ("nseg", "nin", "indptr", "cols", "data")

    def __init__(self, starts: np.ndarray, nin: int, cols: np.ndarray | None = None):
        self.nseg = int(starts.shape[0])
        self.nin = int(nin)
        self.indptr = np.empty(self.nseg + 1, dtype=np.int64)
        self.indptr[:-1] = starts
        self.indptr[-1] = self.nin
        self.cols = np.arange(self.nin, dtype=np.int64) if cols is None else cols
        self.data = np.ones(self.nin, dtype=VALUE_DTYPE)

    def apply(self, w: np.ndarray, ws: Workspace | None = None, tag=None) -> np.ndarray:
        """Per-segment sums of ``w``'s rows (any trailing shape), in ``ws``'s
        reused ``tag`` buffer, or a new array without ``ws``."""
        if w.shape[0] != self.nin:
            raise ValueError(f"segment sum over {self.nin} rows got {w.shape[0]}")
        w = np.ascontiguousarray(w, dtype=VALUE_DTYPE)
        shape = (self.nseg,) + w.shape[1:]
        if ws is None:
            out = np.empty(shape, dtype=VALUE_DTYPE)
        else:
            out = ws.buf(tag, shape)
        out.fill(0.0)
        _csr_matvecs()(self.nseg, self.nin, prod(w.shape[1:]), self.indptr,
                       self.cols, self.data, w.reshape(-1), out.reshape(-1))
        return out

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Every array the operator holds; ``cols`` may be the caller's."""
        return (self.indptr, self.cols, self.data)


class TaskTraversal:
    """Cached CSF tree-walk structure for one task's root slices ``[lo, hi)``.

    Holds the per-level node ``ranges`` and ``fids``/``values`` views every
    backend reads.  The NumPy walk's arrays, per-level segment sums
    (``up_segsum``) and downward expansion indices (``down_expand``,
    replacing per-call ``np.repeat`` span math), are built on first read,
    so a compiled solve never builds them.  Only the task that owns the
    traversal reads them, or the dispatching thread before tasks start.
    """

    def __init__(self, csf: CsfTensor, lo: int, hi: int):
        self.lo, self.hi = lo, hi
        nmodes = csf.nmodes
        ranges = [(lo, hi)]
        for level in range(nmodes - 1):
            clo, chi = ranges[-1]
            ranges.append((int(csf.fptr[level][clo]), int(csf.fptr[level][chi])))
        self.ranges = ranges
        self._fptr = csf.fptr
        self.fids = [csf.fids[level][ranges[level][0] : ranges[level][1]] for level in range(nmodes)]
        self.values = csf.values[ranges[nmodes - 1][0] : ranges[nmodes - 1][1]]

    @cached_property
    def up_segsum(self) -> list[SegmentSum]:
        """Per-level segment sums of the upward walk."""
        return [
            SegmentSum(self._fptr[level][nlo:nhi] - clo, chi - clo)
            for level, ((nlo, nhi), (clo, chi))
            in enumerate(zip(self.ranges, self.ranges[1:]))
        ]

    @cached_property
    def down_expand(self) -> list[np.ndarray | None]:
        """Per-level parent index of each node (``None`` for the root)."""
        expand: list[np.ndarray | None] = [None]
        for level, (plo, phi) in enumerate(self.ranges[:-1]):
            spans = np.diff(self._fptr[level][plo : phi + 1])
            expand.append(np.repeat(np.arange(phi - plo, dtype=np.intp), spans))  # reprolint: allow(hot-loop-alloc) — one-time plan construction on first read, amortized over every later call
        return expand

    def arrays(self) -> Iterator[np.ndarray]:
        """The index arrays the traversal built (not its views of the tree)."""
        built = self.__dict__
        for seg in built.get("up_segsum", ()):
            yield from seg.arrays()
        yield from (a for a in built.get("down_expand", ()) if a is not None)


class ScatterPlan:
    """Everything invariant about one ``(tree, level, ntasks[, pool_size])``.

    ``bounds`` are the nnz-balanced root-slice blocks and ``traversals[tid]``
    the cached tree walk per task.  ``scatters[tid]`` is the cached scatter
    structure over the level's ``fids`` rows; only a multi-task compiled
    call or a NumPy call reads it, so it is built on first read, on the
    dispatching thread.  Build once (via :class:`MttkrpContext`), apply
    every iteration.

    For the **leaf** level the NumPy walk folds the scatter permutation
    into the traversal itself: ``leaf_expand_sorted[tid]`` composes the
    final downward expansion with the scatter sort order, and
    ``leaf_values_sorted[tid]`` pre-permutes the nonzero values, so the
    leaf kernel emits contributions already in sorted order and the
    scatter's segment sum reads them in place (``presorted=True``).  The
    NumPy dispatch reads both before it starts the tasks.
    """

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

    @cached_property
    def scatters(self) -> list[RowScatter]:
        lock_tag = "mutex" if self.pool_size is not None else "priv"
        return [
            RowScatter(trav.fids[self.level], self.pool_size,
                       tag=("scatter", self.level, lock_tag))
            for trav in self.traversals
        ]

    @cached_property
    def leaf_expand_sorted(self) -> list[np.ndarray]:
        return [trav.down_expand[self.level][sc.order]
                for trav, sc in zip(self.traversals, self.scatters)]

    @cached_property
    def leaf_values_sorted(self) -> list[np.ndarray]:
        return [trav.values[sc.order]
                for trav, sc in zip(self.traversals, self.scatters)]

    def arrays(self) -> Iterator[np.ndarray]:
        """Every index array the plan has built, its traversals' included."""
        for trav in self.traversals:
            yield from trav.arrays()
        built = self.__dict__
        for sc in built.get("scatters", ()):
            yield from sc.arrays()
        yield from built.get("leaf_expand_sorted", ())
        yield from built.get("leaf_values_sorted", ())

    def memory_bytes(self) -> int:
        """Plan storage footprint (the index arrays built so far)."""
        return _unique_nbytes(self.arrays())


def _unique_nbytes(arrays: Iterable[np.ndarray]) -> int:
    """Bytes of ``arrays``, each distinct array counted once."""
    return sum({id(a): a.nbytes for a in arrays}.values())


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
        self._workspaces: dict = {}
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

    def workspaces(self, tree: CsfTensor, ntasks: int) -> list[Workspace]:
        """One :class:`Workspace` per task, shared by all levels of a tree
        and by both backends: a compiled kernel's only scratch is the
        compact buffer the NumPy walk's scatter also reduces into (same
        tag, same shape)."""
        key = (self._tree_key(tree), ntasks)
        ws = self._workspaces.get(key)
        if ws is None:
            ws = [Workspace() for _ in range(ntasks)]
            self._workspaces[key] = ws
        return ws

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Cache accounting: plans held, hits, misses, bytes cached.

        ``plan_bytes`` counts each array the plans have built once, though
        every plan of one ``(tree, ntasks)`` holds the same shared
        traversals.
        """
        plan_bytes = _unique_nbytes(a for p in self._plans.values() for a in p.arrays())
        ws_bytes = sum(w.nbytes() for group in self._workspaces.values() for w in group)
        return {
            "plans": len(self._plans),
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_bytes": plan_bytes,
            "workspace_bytes": ws_bytes,
        }
