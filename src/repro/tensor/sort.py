"""Nonzero sorting: SPLATT's pre-processing counting sort + quicksort.

Before building the CSF for output mode ``n``, SPLATT sorts the tensor's
nonzeros lexicographically with mode ``n`` as the primary key (``tt_sort``).
The sort is a *counting sort* on the primary mode followed by per-bucket
quicksorts on the remaining modes.

The paper's Fig 1 studies four versions of the Chapel port of this routine;
we implement the same ladder so the optimization story can be measured for
real:

``initial``
    Faithful port of the naive Chapel code: a hand-written recursive
    quicksort that (a) allocates a small 2-element scratch array on *every*
    recursive call (the paper counts 46M such allocations on NELL-2) and
    (b) re-binds the per-mode index arrays with *copying* slice assignment
    before sorting.

``array_opt``
    ``initial`` with the per-call scratch array replaced by two scalar
    variables ("Array-opt" in Fig 1).

``slices_opt``
    ``initial`` with the copying re-binding replaced by pointer-style views
    ("Slices-opt" in Fig 1 — in Chapel this used ``c_ptrTo``; in NumPy the
    analogue is passing array *views* instead of copies).

``all_opts``
    Both fixes ("All-opts").

``lexsort``
    The role of the C reference: a fully vectorized sort with no
    interpreted inner loop.  It packs each coordinate tuple, in key-mode
    order, into one mixed-radix int64 (ALTO's linearized index used as a
    sort key) with the nonzero's position in the low bits and sorts those
    unique keys, falling back to :func:`numpy.lexsort` over the columns
    when the packed key does not fit in an int64.  :func:`lex_order` is that sort; CSF construction,
    :meth:`~repro.tensor.coo.SparseTensor.deduplicate` and the MTTKRP
    scatter plans use it too.

All variants produce byte-identical orderings of the nonzeros with respect to
the sort *key* (ties between identical coordinate tuples are broken
arbitrarily but deterministically) and each returns a
:class:`SortCounters` record of the work it performed, which feeds the
calibrated performance model.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._util import check_axis, prod
from repro.tensor.coo import SparseTensor

__all__ = ["SORT_VARIANTS", "SortCounters", "lex_order", "sort_tensor", "sort_perm_for_mode"]

#: Below this many elements the quicksort switches to insertion sort, the
#: same cutoff SPLATT uses (``MIN_QUICKSORT_SIZE``).
_INSERTION_CUTOFF = 8


@dataclass
class SortCounters:
    """Instrumentation of one sort run, consumed by :mod:`repro.perfmodel`.

    Attributes
    ----------
    quicksort_calls:
        Number of recursive quicksort invocations.
    scratch_allocs:
        Number of small scratch-array allocations performed (nonzero only in
        the un-optimized variants; the paper measured these at ~10% of the
        sort runtime).
    elements_copied:
        Elements copied by slice re-binding (nonzero only when the
        Slices-opt fix is off; SPLATT's C code re-binds pointers and copies
        nothing).
    comparisons:
        Lexicographic tuple comparisons made.
    swaps:
        Element swaps made.
    """

    quicksort_calls: int = 0
    scratch_allocs: int = 0
    elements_copied: int = 0
    comparisons: int = 0
    swaps: int = 0

    def merge(self, other: "SortCounters") -> None:
        self.quicksort_calls += other.quicksort_calls
        self.scratch_allocs += other.scratch_allocs
        self.elements_copied += other.elements_copied
        self.comparisons += other.comparisons
        self.swaps += other.swaps


def sort_perm_for_mode(mode: int, nmodes: int) -> tuple[int, ...]:
    """SPLATT's sort-key mode permutation for output mode ``mode``.

    The output mode is the primary key; the remaining modes follow in
    increasing order (``tt_sort``'s ``cmode`` handling).
    """
    mode = check_axis(mode, nmodes)
    return (mode, *[m for m in range(nmodes) if m != mode])


# ----------------------------------------------------------------------
# the "C" baseline: one packed key
# ----------------------------------------------------------------------
def lex_order(keys: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray:
    """Stable order that sorts rows lexicographically by ``keys``.

    ``keys`` are equal-length non-negative integer columns, primary first;
    ``keys[k]`` is below ``sizes[k]``.  The result is exactly
    ``np.lexsort(keys[::-1])``.  The columns are packed into one
    mixed-radix int64, whose order is the tuple order, with the row number
    in the low bits: the packed keys are then unique, so one plain value
    sort yields the stable order.  When ``prod(sizes)`` times the row
    count's power of two does not fit in an int64, it runs that lexsort.
    """
    shift = max(len(keys[0]) - 1, 0).bit_length()
    if prod(sizes) << shift > 2**63:
        return np.lexsort(tuple(reversed(keys)))
    packed = np.array(keys[0], dtype=np.int64)
    for key, size in zip(keys[1:], sizes[1:]):
        packed *= size
        packed += key
    packed <<= shift
    packed |= np.arange(packed.shape[0])
    packed.sort()
    return packed & ((1 << shift) - 1)


def _sort_lexsort(tensor: SparseTensor, perm: tuple[int, ...]) -> tuple[SparseTensor, SortCounters]:
    """Vectorized sort standing in for SPLATT's compiled C sort."""
    order = lex_order([tensor.coords[:, m] for m in perm], [tensor.dims[m] for m in perm])
    out = SparseTensor(
        np.ascontiguousarray(tensor.coords[order]),
        np.ascontiguousarray(tensor.values[order]),
        tensor.dims,
        name=tensor.name,
    )
    return out, SortCounters()


# ----------------------------------------------------------------------
# the ported quicksort (variant ladder)
# ----------------------------------------------------------------------
def _counting_sort_primary(
    coords: np.ndarray, values: np.ndarray, key_mode: int, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable counting sort on the primary mode; returns bucket boundaries.

    This mirrors SPLATT's histogram pass: after this step the nonzeros are
    grouped by primary-mode index and each group (bucket) can be quicksorted
    on the remaining modes independently (which is where SPLATT's sort
    parallelism comes from).
    """
    primary = coords[:, key_mode]
    counts = np.bincount(primary, minlength=dim)
    starts = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    order = np.argsort(primary, kind="stable")
    return coords[order], values[order], starts


def _cmp_rows(coords: np.ndarray, i: int, j: int, key_modes: tuple[int, ...]) -> int:
    """Three-way lexicographic comparison of nonzeros ``i`` and ``j``."""
    for m in key_modes:
        a = coords[i, m]
        b = coords[j, m]
        if a < b:
            return -1
        if a > b:
            return 1
    return 0


def _swap_rows(coords: np.ndarray, values: np.ndarray, i: int, j: int) -> None:
    """Swap two nonzeros (all mode indices + value), SPLATT-style."""
    tmp = coords[i].copy()
    coords[i] = coords[j]
    coords[j] = tmp
    values[i], values[j] = values[j], values[i]


def _insertion_sort(
    coords: np.ndarray,
    values: np.ndarray,
    lo: int,
    hi: int,
    key_modes: tuple[int, ...],
    counters: SortCounters,
) -> None:
    """Insertion sort on ``[lo, hi)`` — the small-range base case."""
    for i in range(lo + 1, hi):
        j = i
        while j > lo:
            counters.comparisons += 1
            if _cmp_rows(coords, j - 1, j, key_modes) <= 0:
                break
            _swap_rows(coords, values, j - 1, j)
            counters.swaps += 1
            j -= 1


def _quicksort(
    coords: np.ndarray,
    values: np.ndarray,
    lo: int,
    hi: int,
    key_modes: tuple[int, ...],
    counters: SortCounters,
    *,
    alloc_scratch: bool,
) -> None:
    """Recursive quicksort over nonzeros ``[lo, hi)``.

    ``alloc_scratch=True`` reproduces the un-optimized port: a fresh
    2-element array is allocated on every call (used to hold the partition
    walk state), which is exactly the overhead the paper's "Array-opt"
    removes by using two scalar variables instead.
    """
    counters.quicksort_calls += 1
    n = hi - lo
    if n < _INSERTION_CUTOFF:
        _insertion_sort(coords, values, lo, hi, key_modes, counters)
        return

    if alloc_scratch:
        # The naive port: allocate the partition cursor pair as an array.
        counters.scratch_allocs += 1
        cursor = np.empty(2, dtype=np.int64)
        cursor[0] = lo + 1
        cursor[1] = hi - 1
        i = int(cursor[0])
        j = int(cursor[1])
    else:
        # Array-opt: two plain scalars.
        i = lo + 1
        j = hi - 1

    # Median-of-three pivot selection, pivot parked at lo (SPLATT's scheme).
    mid = lo + n // 2
    counters.comparisons += 3
    if _cmp_rows(coords, mid, lo, key_modes) < 0:
        _swap_rows(coords, values, mid, lo)
        counters.swaps += 1
    if _cmp_rows(coords, hi - 1, lo, key_modes) < 0:
        _swap_rows(coords, values, hi - 1, lo)
        counters.swaps += 1
    if _cmp_rows(coords, mid, hi - 1, key_modes) < 0:
        _swap_rows(coords, values, mid, hi - 1)
        counters.swaps += 1
    pivot = hi - 1  # median now resides here

    while True:
        while i < pivot:
            counters.comparisons += 1
            if _cmp_rows(coords, i, pivot, key_modes) >= 0:
                break
            i += 1
        while j > lo:
            counters.comparisons += 1
            if _cmp_rows(coords, j, pivot, key_modes) < 0:
                break
            j -= 1
        if i >= j:
            break
        _swap_rows(coords, values, i, j)
        counters.swaps += 1
        i += 1
        j -= 1
    _swap_rows(coords, values, i, pivot)
    counters.swaps += 1

    _quicksort(coords, values, lo, i, key_modes, counters, alloc_scratch=alloc_scratch)
    _quicksort(coords, values, i + 1, hi, key_modes, counters, alloc_scratch=alloc_scratch)


def _rebind_mode_arrays(
    coords: np.ndarray, perm: tuple[int, ...], counters: SortCounters, *, use_views: bool
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Rearrange the per-mode arrays so the sort key is modes ``0..N-1``.

    SPLATT's C code does this by swapping *pointers* (``tt->ind[0] =
    tt->ind[cmode]``) — free.  The naive Chapel port copied whole sub-arrays
    instead, which Fig 1's "Slices-opt" eliminates via ``c_ptrTo``.

    ``use_views=False`` reproduces the copying behaviour: the coordinate
    matrix is physically permuted (every element copied).  ``use_views=True``
    reproduces the pointer swap: we leave the storage alone and return a
    permuted *key-mode order* for the comparator.
    """
    if use_views:
        # Pointer-style: zero copies; the comparator walks modes in perm order.
        return coords, perm
    counters.elements_copied += coords.size
    permuted = np.ascontiguousarray(coords[:, perm])
    identity = tuple(range(len(perm)))
    return permuted, identity


def _sort_ported(
    tensor: SparseTensor,
    perm: tuple[int, ...],
    *,
    alloc_scratch: bool,
    use_views: bool,
    env=None,
) -> tuple[SparseTensor, SortCounters]:
    """Counting sort + ported quicksort, with the chosen (de)optimizations.

    With ``env.num_tasks > 1`` the independent buckets are quicksorted on
    the tasking layer's threads (dynamic schedule — bucket sizes are
    skewed), which is exactly where SPLATT's sort parallelism lives.
    """
    counters = SortCounters()
    if tensor.nnz == 0:
        return tensor.copy(), counters

    coords = tensor.coords.copy()
    values = tensor.values.copy()

    work_coords, key_modes = _rebind_mode_arrays(coords, perm, counters, use_views=use_views)
    primary = key_modes[0]
    rest = key_modes[1:]

    work_coords, values, starts = _counting_sort_primary(
        work_coords, values, primary, tensor.dims[perm[0]]
    )

    # Per-bucket quicksort on the remaining modes.  Python's default
    # recursion limit is too small for pathological buckets; size it to the
    # worst case (quicksort depth is O(bucket) for adversarial inputs).
    max_bucket = int(np.max(np.diff(starts))) if starts.size > 1 else 0
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, max_bucket + 100))
    try:
        if rest:
            ntasks = getattr(env, "num_tasks", 1) if env is not None else 1
            if ntasks > 1:
                _parallel_bucket_sort(
                    work_coords, values, starts, rest, counters,
                    alloc_scratch=alloc_scratch, env=env,
                )
            else:
                for b in range(len(starts) - 1):
                    lo, hi = int(starts[b]), int(starts[b + 1])
                    if hi - lo > 1:
                        _quicksort(
                            work_coords, values, lo, hi, rest, counters,
                            alloc_scratch=alloc_scratch,
                        )
    finally:
        sys.setrecursionlimit(old_limit)

    if use_views:
        out_coords = work_coords  # original mode layout preserved
    else:
        # Undo the physical permutation so the output tensor keeps the
        # caller's mode order.
        inverse = np.empty(len(perm), dtype=np.int64)
        inverse[list(perm)] = np.arange(len(perm))
        counters.elements_copied += work_coords.size
        out_coords = np.ascontiguousarray(work_coords[:, inverse])

    out = SparseTensor(out_coords, values, tensor.dims, name=tensor.name)
    return out, counters


def _parallel_bucket_sort(
    work_coords: np.ndarray,
    values: np.ndarray,
    starts: np.ndarray,
    rest: tuple[int, ...],
    counters: SortCounters,
    *,
    alloc_scratch: bool,
    env,
) -> None:
    """Quicksort the counting-sort buckets on the tasking layer's threads.

    Buckets are disjoint row ranges, so no synchronization is needed on
    the data; each task keeps private counters that are merged afterwards.
    The dynamic schedule absorbs the skewed bucket-size distribution of
    hub-heavy tensors.
    """
    from repro.runtime.schedule import forall_scheduled
    from repro.runtime.tasking import make_tasking_layer

    layer = make_tasking_layer(env)
    nbuckets = len(starts) - 1
    task_counters = [SortCounters() for _ in range(env.num_tasks)]

    def body(blo: int, bhi: int, tid: int) -> None:
        local = task_counters[tid]
        for b in range(blo, bhi):
            lo, hi = int(starts[b]), int(starts[b + 1])
            if hi - lo > 1:
                _quicksort(
                    work_coords, values, lo, hi, rest, local,
                    alloc_scratch=alloc_scratch,
                )

    forall_scheduled(layer, nbuckets, body, schedule="dynamic", chunk=32)
    for local in task_counters:
        counters.merge(local)


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------
SORT_VARIANTS: tuple[str, ...] = ("initial", "array_opt", "slices_opt", "all_opts", "lexsort")

_VARIANT_FLAGS = {
    "initial": dict(alloc_scratch=True, use_views=False),
    "array_opt": dict(alloc_scratch=False, use_views=False),
    "slices_opt": dict(alloc_scratch=True, use_views=True),
    "all_opts": dict(alloc_scratch=False, use_views=True),
}


def sort_tensor(
    tensor: SparseTensor,
    mode: int,
    *,
    variant: str = "lexsort",
    return_counters: bool = False,
    env=None,
) -> SparseTensor | tuple[SparseTensor, SortCounters]:
    """Sort a tensor's nonzeros lexicographically with ``mode`` primary.

    Parameters
    ----------
    tensor:
        Input tensor (not modified).
    mode:
        Output mode; becomes the primary sort key via
        :func:`sort_perm_for_mode`.
    variant:
        One of :data:`SORT_VARIANTS`.  ``lexsort`` is the vectorized "C"
        baseline; the other four are the paper's Fig 1 ladder.
    return_counters:
        Also return the :class:`SortCounters` instrumentation.
    env:
        Optional :class:`~repro.runtime.env.ChapelEnv`: with
        ``num_tasks > 1`` the per-bucket quicksorts of the ported variants
        run on the tasking layer's threads (SPLATT's parallel counting
        sort structure; counters are still aggregated exactly).  Ignored
        by ``lexsort``.

    Returns
    -------
    A new, sorted :class:`SparseTensor` (and counters if requested).
    """
    perm = sort_perm_for_mode(mode, tensor.nmodes)
    if variant == "lexsort":
        result, counters = _sort_lexsort(tensor, perm)
    elif variant in _VARIANT_FLAGS:
        result, counters = _sort_ported(
            tensor, perm, env=env, **_VARIANT_FLAGS[variant]
        )
    else:
        raise ValueError(f"unknown sort variant {variant!r}; choose from {SORT_VARIANTS}")
    if return_counters:
        return result, counters
    return result
