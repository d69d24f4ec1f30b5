"""MTTKRP row-access variants and the top-level dispatcher.

The paper's Figs 2-3 ladder, reproduced as real implementations whose cost
ordering mirrors the Chapel port's:

``slicing``
    The naive port.  Every factor-row access materializes a *copy* (the
    NumPy analogue of Chapel's slice-descriptor overhead, Chapel issue
    #8203), accumulation allocates fresh arrays instead of updating in
    place, and a new accumulation buffer is allocated per slice/fiber.

``index2d``
    Direct 2-D indexing: factor rows are zero-copy basic-index views,
    accumulation is in-place, buffers are reused.

``pointer``
    The ``c_ptrTo`` translation: factor matrices are accessed through their
    flat 1-D storage with manually computed row offsets (pointer
    arithmetic), the closest an interpreted loop gets to the C code.

``vectorized``
    The compiled-speed baseline (:mod:`repro.mttkrp.csf_kernels`), playing
    the role of SPLATT's C in every comparison.

The interpreted variants implement the full root/internal/leaf algorithm
set for **3rd-order tensors only** — the same restriction the paper's port
made (§V-A); ``vectorized`` supports arbitrary order (the paper's stated
future work).

:func:`mttkrp_csf` is the entry point used by CP-ALS: it picks the tree and
algorithm from the :class:`~repro.csf.build.CsfSet`, decides locks vs
privatization for non-root modes (:func:`~repro.mttkrp.locks_policy.needs_locks`),
and returns the output matrix plus an :class:`MttkrpInfo` describing what
actually ran — which the tests and the performance model both consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import probe as _probe
from repro._util import VALUE_DTYPE, check_axis
from repro.backend import canonical_factors, prepare_call, resolve_backend
from repro.csf.build import CsfSet, build_csf_set
from repro.csf.tree import CsfTensor
from repro.mttkrp import csf_kernels
from repro.mttkrp.locks_policy import needs_locks
from repro.mttkrp.partition import nnz_balanced_blocks
from repro.observe import spans as _obs
from repro.runtime.env import ChapelEnv
from repro.runtime.locks import DEFAULT_POOL_SIZE, MutexPool, make_mutex_pool
from repro.runtime.tasking import TaskingLayer, make_tasking_layer
from repro.tensor.coo import SparseTensor

__all__ = ["ACCESS_VARIANTS", "MttkrpInfo", "mttkrp", "mttkrp_csf"]

ACCESS_VARIANTS: tuple[str, ...] = ("slicing", "index2d", "pointer", "vectorized")


@dataclass
class MttkrpInfo:
    """What one MTTKRP invocation actually executed.

    ``plan_hit`` reports scatter-plan cache behaviour for the vectorized
    variant: ``True`` (cached plan reused) or ``False`` (plan built this
    call); ``None`` for the interpreted variants, which use no plan.
    """

    mode: int
    algorithm: str  # "root" | "internal" | "leaf"
    variant: str
    used_locks: bool
    ntasks: int
    plan_hit: bool | None = None


# ======================================================================
# interpreted 3rd-order kernels
# ======================================================================
def _check_third_order(csf: CsfTensor, variant: str) -> None:
    if csf.nmodes != 3:
        raise NotImplementedError(
            f"the {variant!r} interpreted variant is 3rd-order only, mirroring "
            "the paper's port (§V-A); use variant='vectorized' for other orders"
        )


def _root_slicing(csf, factors, out, lo, hi, lock_row=None):  # reprolint: allow(hot-loop-alloc, row-slice-copy) — deliberate naive-port exhibit of the paper's Figs 2–3 anti-patterns
    """Naive-port root kernel: copying row 'slices', no in-place updates."""
    a_mode, b_mode, c_mode = csf.dim_perm
    b_mat, c_mat = factors[b_mode], factors[c_mode]
    fptr0, fptr1 = csf.fptr
    fids0, fids1, fids2 = csf.fids
    vals = csf.values
    rank = out.shape[1]
    for s in range(lo, hi):
        accum = np.zeros(rank, dtype=VALUE_DTYPE)  # fresh per slice
        for f in range(fptr0[s], fptr0[s + 1]):
            fib = np.zeros(rank, dtype=VALUE_DTYPE)  # fresh per fiber
            for nz in range(fptr1[f], fptr1[f + 1]):
                crow = c_mat[fids2[nz], :].copy()  # slice → copy
                fib = fib + vals[nz] * crow  # new array every nonzero
            brow = b_mat[fids1[f], :].copy()
            accum = accum + fib * brow
        out[fids0[s], :] = out[fids0[s], :] + accum


def _root_index2d(csf, factors, out, lo, hi, lock_row=None):
    """2-D-indexing root kernel: row views, in-place accumulation."""
    a_mode, b_mode, c_mode = csf.dim_perm
    b_mat, c_mat = factors[b_mode], factors[c_mode]
    fptr0, fptr1 = csf.fptr
    fids0, fids1, fids2 = csf.fids
    vals = csf.values
    rank = out.shape[1]
    accum = np.empty(rank, dtype=VALUE_DTYPE)
    fib = np.empty(rank, dtype=VALUE_DTYPE)
    for s in range(lo, hi):
        accum[:] = 0.0
        for f in range(fptr0[s], fptr0[s + 1]):
            fib[:] = 0.0
            for nz in range(fptr1[f], fptr1[f + 1]):
                fib += vals[nz] * c_mat[fids2[nz]]
            fib *= b_mat[fids1[f]]
            accum += fib
        out[fids0[s]] += accum


def _root_pointer(csf, factors, out, lo, hi, lock_row=None):
    """Pointer-arithmetic root kernel: flat storage + manual row offsets.

    The ``c_ptrTo`` translation: matrices are walked through their raw 1-D
    buffers, and the tree's index arrays are pre-extracted to plain Python
    ints (raw loads) instead of going through ndarray scalar descriptors on
    every access — the interpreter's analogue of dropping from Chapel array
    views to C pointers.
    """
    a_mode, b_mode, c_mode = csf.dim_perm
    rank = out.shape[1]
    b_flat = factors[b_mode].ravel()
    c_flat = factors[c_mode].ravel()
    out_flat = out.ravel()
    fptr0, fptr1 = (p.tolist() for p in csf.fptr)
    fids0, fids1, fids2 = (f.tolist() for f in csf.fids)
    vals = csf.values.tolist()
    accum = np.empty(rank, dtype=VALUE_DTYPE)
    fib = np.empty(rank, dtype=VALUE_DTYPE)
    for s in range(lo, hi):
        accum[:] = 0.0
        for f in range(fptr0[s], fptr0[s + 1]):
            fib[:] = 0.0
            for nz in range(fptr1[f], fptr1[f + 1]):
                off = fids2[nz] * rank
                fib += vals[nz] * c_flat[off : off + rank]
            off = fids1[f] * rank
            fib *= b_flat[off : off + rank]
            accum += fib
        off = fids0[s] * rank
        out_flat[off : off + rank] += accum


def _internal_slicing(csf, factors, out, lo, hi, lock_row=None):  # reprolint: allow(hot-loop-alloc, row-slice-copy) — deliberate naive-port exhibit of the paper's Figs 2–3 anti-patterns
    """Naive-port internal kernel (output rows at level 1; may need locks)."""
    a_mode, b_mode, c_mode = csf.dim_perm
    a_mat, c_mat = factors[a_mode], factors[c_mode]
    fptr0, fptr1 = csf.fptr
    fids0, fids1, fids2 = csf.fids
    vals = csf.values
    rank = out.shape[1]
    for s in range(lo, hi):
        arow = a_mat[fids0[s], :].copy()
        for f in range(fptr0[s], fptr0[s + 1]):
            fib = np.zeros(rank, dtype=VALUE_DTYPE)
            for nz in range(fptr1[f], fptr1[f + 1]):
                crow = c_mat[fids2[nz], :].copy()
                fib = fib + vals[nz] * crow
            row = int(fids1[f])
            contrib = fib * arow
            if lock_row is None:
                out[row, :] = out[row, :] + contrib
            else:
                with lock_row(row):
                    out[row, :] = out[row, :] + contrib


def _internal_index2d(csf, factors, out, lo, hi, lock_row=None):
    a_mode, b_mode, c_mode = csf.dim_perm
    a_mat, c_mat = factors[a_mode], factors[c_mode]
    fptr0, fptr1 = csf.fptr
    fids0, fids1, fids2 = csf.fids
    vals = csf.values
    rank = out.shape[1]
    fib = np.empty(rank, dtype=VALUE_DTYPE)
    for s in range(lo, hi):
        arow = a_mat[fids0[s]]
        for f in range(fptr0[s], fptr0[s + 1]):
            fib[:] = 0.0
            for nz in range(fptr1[f], fptr1[f + 1]):
                fib += vals[nz] * c_mat[fids2[nz]]
            fib *= arow
            row = int(fids1[f])
            if lock_row is None:
                out[row] += fib
            else:
                with lock_row(row):
                    out[row] += fib


def _internal_pointer(csf, factors, out, lo, hi, lock_row=None):
    a_mode, b_mode, c_mode = csf.dim_perm
    rank = out.shape[1]
    a_flat = factors[a_mode].ravel()
    c_flat = factors[c_mode].ravel()
    out_flat = out.ravel()
    fptr0, fptr1 = (p.tolist() for p in csf.fptr)
    fids0, fids1, fids2 = (f.tolist() for f in csf.fids)
    vals = csf.values.tolist()
    fib = np.empty(rank, dtype=VALUE_DTYPE)
    for s in range(lo, hi):
        aoff = fids0[s] * rank
        arow = a_flat[aoff : aoff + rank]
        for f in range(fptr0[s], fptr0[s + 1]):
            fib[:] = 0.0
            for nz in range(fptr1[f], fptr1[f + 1]):
                off = fids2[nz] * rank
                fib += vals[nz] * c_flat[off : off + rank]
            fib *= arow
            row = int(fids1[f])
            off = row * rank
            if lock_row is None:
                out_flat[off : off + rank] += fib
            else:
                with lock_row(row):
                    out_flat[off : off + rank] += fib


def _leaf_slicing(csf, factors, out, lo, hi, lock_row=None):  # reprolint: allow(hot-loop-alloc, row-slice-copy) — deliberate naive-port exhibit of the paper's Figs 2–3 anti-patterns
    """Naive-port leaf kernel (output rows at the leaf level)."""
    a_mode, b_mode, c_mode = csf.dim_perm
    a_mat, b_mat = factors[a_mode], factors[b_mode]
    fptr0, fptr1 = csf.fptr
    fids0, fids1, fids2 = csf.fids
    vals = csf.values
    for s in range(lo, hi):
        arow = a_mat[fids0[s], :].copy()
        for f in range(fptr0[s], fptr0[s + 1]):
            brow = b_mat[fids1[f], :].copy()
            prow = arow * brow
            for nz in range(fptr1[f], fptr1[f + 1]):
                row = int(fids2[nz])
                contrib = vals[nz] * prow
                if lock_row is None:
                    out[row, :] = out[row, :] + contrib
                else:
                    with lock_row(row):
                        out[row, :] = out[row, :] + contrib


def _leaf_index2d(csf, factors, out, lo, hi, lock_row=None):
    a_mode, b_mode, c_mode = csf.dim_perm
    a_mat, b_mat = factors[a_mode], factors[b_mode]
    fptr0, fptr1 = csf.fptr
    fids0, fids1, fids2 = csf.fids
    vals = csf.values
    rank = out.shape[1]
    prow = np.empty(rank, dtype=VALUE_DTYPE)
    for s in range(lo, hi):
        arow = a_mat[fids0[s]]
        for f in range(fptr0[s], fptr0[s + 1]):
            np.multiply(arow, b_mat[fids1[f]], out=prow)
            for nz in range(fptr1[f], fptr1[f + 1]):
                row = int(fids2[nz])
                if lock_row is None:
                    out[row] += vals[nz] * prow
                else:
                    with lock_row(row):
                        out[row] += vals[nz] * prow


def _leaf_pointer(csf, factors, out, lo, hi, lock_row=None):
    a_mode, b_mode, c_mode = csf.dim_perm
    rank = out.shape[1]
    a_flat = factors[a_mode].ravel()
    b_flat = factors[b_mode].ravel()
    out_flat = out.ravel()
    fptr0, fptr1 = (p.tolist() for p in csf.fptr)
    fids0, fids1, fids2 = (f.tolist() for f in csf.fids)
    vals = csf.values.tolist()
    prow = np.empty(rank, dtype=VALUE_DTYPE)
    for s in range(lo, hi):
        aoff = fids0[s] * rank
        arow = a_flat[aoff : aoff + rank]
        for f in range(fptr0[s], fptr0[s + 1]):
            boff = fids1[f] * rank
            np.multiply(arow, b_flat[boff : boff + rank], out=prow)
            for nz in range(fptr1[f], fptr1[f + 1]):
                row = int(fids2[nz])
                off = row * rank
                if lock_row is None:
                    out_flat[off : off + rank] += vals[nz] * prow
                else:
                    with lock_row(row):
                        out_flat[off : off + rank] += vals[nz] * prow


_INTERPRETED: dict[tuple[str, str], Callable] = {
    ("root", "slicing"): _root_slicing,
    ("root", "index2d"): _root_index2d,
    ("root", "pointer"): _root_pointer,
    ("internal", "slicing"): _internal_slicing,
    ("internal", "index2d"): _internal_index2d,
    ("internal", "pointer"): _internal_pointer,
    ("leaf", "slicing"): _leaf_slicing,
    ("leaf", "index2d"): _leaf_index2d,
    ("leaf", "pointer"): _leaf_pointer,
}


# ======================================================================
# drivers
# ======================================================================
def _run_interpreted(
    csf: CsfTensor,
    factors: Sequence[np.ndarray],
    out: np.ndarray,
    algorithm: str,
    variant: str,
    layer: TaskingLayer,
    pool: MutexPool | None,
) -> None:
    """Parallelize an interpreted kernel over nnz-balanced slice blocks.

    Root needs no synchronization; internal/leaf take the mutex pool when
    given one, otherwise privatize per-task buffers.
    """
    _check_third_order(csf, variant)
    kernel = _INTERPRETED[(algorithm, variant)]
    ntasks = layer.env.num_tasks
    bounds = nnz_balanced_blocks(csf, ntasks)

    if algorithm == "root" or ntasks == 1:
        def task(tid: int) -> None:
            kernel(csf, factors, out, int(bounds[tid]), int(bounds[tid + 1]))

        layer.coforall(ntasks, task)
        return

    if pool is not None:
        def task(tid: int) -> None:
            kernel(
                csf, factors, out,
                int(bounds[tid]), int(bounds[tid + 1]),
                lock_row=pool.guard_row,
            )

        layer.coforall(ntasks, task)
        return

    # privatization: thread-local outputs + parallel reduction
    buffers = [np.zeros_like(out) for _ in range(ntasks)]  # reprolint: allow(hot-loop-alloc) — interpreted ladder is deliberately unamortized; the amortized path lives in csf_kernels

    def task(tid: int) -> None:
        kernel(csf, factors, buffers[tid], int(bounds[tid]), int(bounds[tid + 1]))

    layer.coforall(ntasks, task)
    csf_kernels.array_reduce_buffers(layer, out, buffers)


def mttkrp_csf(
    csf_set: CsfSet,
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    variant: str = "vectorized",
    env: ChapelEnv | None = None,
    layer: TaskingLayer | None = None,
    mutex_kind: str = "atomic",
    pool_size: int = DEFAULT_POOL_SIZE,
    pool: MutexPool | None = None,
    force_locks: bool | None = None,
    out: np.ndarray | None = None,
    backend=None,
) -> tuple[np.ndarray, MttkrpInfo]:
    """MTTKRP for output ``mode`` using a prebuilt CSF set.

    Parameters
    ----------
    csf_set:
        Trees built by :func:`repro.csf.build_csf_set`.
    factors:
        All ``N`` factor matrices, each ``(dims[m], R)``; the values of
        ``factors[mode]`` are ignored.
    mode:
        Output mode.
    variant:
        Row-access variant from :data:`ACCESS_VARIANTS`.
    env / layer:
        Runtime configuration; ``layer`` wins if both given, default is a
        serial Qthreads layer.
    mutex_kind / pool_size / pool:
        Mutex pool configuration when locks are selected.  Without
        ``pool`` a locked call builds a fresh ``pool_size`` pool; repeated
        callers pass ``pool`` to share one pool (and its counters).
    force_locks:
        Override the lock decision (used by Fig 4's sweep); ``None`` defers
        to :func:`needs_locks`.
    out:
        Optional preallocated ``(I_mode, R)`` output, zeroed by this call.
    backend:
        Execution backend for the numerical hot spots (``vectorized``
        variant, order >= 2): a name (``"numpy"``, ``"cext"``, ``"auto"``),
        a :class:`~repro.backend.registry.Backend` instance, or ``None``
        (defer to ``$REPRO_BACKEND``, default ``numpy``).  See
        ``docs/BACKENDS.md``.  Compiled backends replace the NumPy tree
        walk and scatter reductions with GIL-releasing kernels; scatter
        structure, lock traffic and results (``allclose`` at 1e-10) are
        unchanged.  Interpreted variants always run in-process regardless
        of backend.

    Returns
    -------
    (out, info):
        The MTTKRP result and an :class:`MttkrpInfo` record.
    """
    if variant not in ACCESS_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {ACCESS_VARIANTS}")
    if layer is None:
        layer = make_tasking_layer(env if env is not None else ChapelEnv())
    env = layer.env

    nmodes = csf_set.nmodes
    mode = check_axis(mode, nmodes)
    tree, algorithm = csf_set.tree_for_mode(mode)
    bk = resolve_backend(backend)
    # Identical coercion for every backend (C-contiguous float64), so
    # backend choice can never change how an exotic input is interpreted.
    factors = canonical_factors(factors)
    if len(factors) != nmodes:
        raise ValueError(f"need {nmodes} factors, got {len(factors)}")
    rank = factors[0].shape[1]
    # every factor, not only factors[mode]: the walks gather rows of the
    # others without bounds checks (a clipped take, or C)
    for m, f in enumerate(factors):
        if f.shape != (tree.dims[m], rank):
            raise ValueError(
                f"factor {m} has shape {f.shape}, expected {(tree.dims[m], rank)}"
            )
    dim = tree.dims[mode]

    if out is None:
        out = np.zeros((dim, rank), dtype=VALUE_DTYPE)
    else:
        if out.shape != (dim, rank):
            raise ValueError(f"out has shape {out.shape}, expected {(dim, rank)}")
        out[:] = 0.0

    if algorithm == "root":
        use_locks = False
    elif force_locks is not None:
        use_locks = force_locks and env.num_tasks > 1
    else:
        use_locks = needs_locks(dim, tree.nnz, env.num_tasks)

    the_pool: MutexPool | None = None
    if use_locks:
        the_pool = pool if pool is not None else make_mutex_pool(
            mutex_kind, size=pool_size, env=env
        )

    plan_hit: bool | None = None

    # Compiled backends take over the vectorized tree walk for order >= 2
    # (order-1 trees have no kernel work to speak of).  Both backends add
    # into the output rows per task (a task's compact buffer when rows are
    # shared), through one driver that owns the plan's scatter structure,
    # mutex traffic and sanitizer hooks.
    use_compiled = bk.compiled and variant == "vectorized" and tree.nmodes >= 2
    bctx = None
    target = out
    if use_compiled:
        bctx = prepare_call(bk, tree, factors)
        _obs.count("backend.dispatch." + bk.name)
        if out.dtype != VALUE_DTYPE or not out.flags.c_contiguous:
            # the kernels add into C-contiguous float64 rows
            target = np.zeros((dim, rank), dtype=VALUE_DTYPE)

    p = _probe.current
    if p is not None:
        p.array_register(target, f"mttkrp.out.mode{mode}")

    def _execute() -> None:
        nonlocal plan_hit
        if variant != "vectorized":
            _run_interpreted(tree, factors, out, algorithm, variant, layer, the_pool)
            return
        # The CSF set's MttkrpContext holds the precomputed scatter plans
        # and reusable workspaces that make repeated calls allocation-free.
        ctx = csf_set.mttkrp_context
        ntasks = env.num_tasks
        level = 0 if algorithm == "root" else tree.level_of_mode(mode)
        psize = the_pool.size if the_pool is not None else None
        plan, plan_hit = ctx.plan(tree, level, ntasks, psize)
        workspaces = ctx.workspaces(tree, ntasks)
        if algorithm == "root":
            csf_kernels.run_root_parallel(
                tree, factors, target, layer, plan=plan, workspaces=workspaces,
                bctx=bctx,
            )
            return
        csf_kernels.run_scatter(
            tree, factors, level, target, layer, the_pool, plan=plan,
            workspaces=workspaces, backend=bk, bctx=bctx,
        )

    rec = None if p is None else p.recorder
    if rec is None:
        _execute()
    else:
        # Fold the CostCounters delta over this call into the span so the
        # trace carries the lock-pressure story (paper Fig 4) per mode.
        lock_before = the_pool.counters.snapshot() if the_pool is not None else None
        with rec.span(
            f"mttkrp.mode{mode}",
            {
                "mode": mode,
                "algorithm": algorithm,
                "variant": variant,
                "ntasks": env.num_tasks,
                "used_locks": use_locks,
                "backend": bk.name,
            },
        ) as sp:
            _execute()
            post: dict = {"plan_hit": plan_hit}
            if lock_before is not None:
                after = the_pool.counters.snapshot()
                for key in ("lock_acquires", "lock_contended", "sync_sleeps"):
                    post[key] = after[key] - lock_before[key]
            else:
                post.update(lock_acquires=0, lock_contended=0, sync_sleeps=0)
            sp.set_attrs(**post)

    if target is not out:
        out[:] = target
    info = MttkrpInfo(
        mode=mode,
        algorithm=algorithm,
        variant=variant,
        used_locks=use_locks,
        ntasks=env.num_tasks,
        plan_hit=plan_hit,
    )
    return out, info


def mttkrp(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    allocation: str = "two",
    **kwargs,
) -> np.ndarray:
    """One-shot MTTKRP on a COO tensor (builds a CSF set internally).

    Convenience wrapper for scripts and tests; CP-ALS builds the CSF set
    once and calls :func:`mttkrp_csf` directly.
    """
    csf_set = build_csf_set(tensor, allocation=allocation)
    out, _ = mttkrp_csf(csf_set, factors, mode, **kwargs)
    return out
