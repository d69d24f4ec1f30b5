"""The ``cext`` backend: the range kernels as C, compiled at first use.

The algorithms of :mod:`repro.backend.kernels_ref` in C, compiled with
the system C compiler (``$CC``, ``cc`` or ``gcc``) into a shared object
cached under a content-hash name, and called through :mod:`ctypes` —
which releases the GIL for the duration of every foreign call, so
per-task kernel calls from the worker pool can run on distinct cores,
with zero Python-package dependencies beyond a toolchain.

One MTTKRP task is one kernel call, which adds each contribution straight
into its output row: the MTTKRP output, or, given a ``slot`` array, the
task's compact buffer of the rows it touches (``kernels_ref`` states the
contract).  It reads the CSF tree's ``fptr``/``fids`` arrays and the
factor matrices in place, through per-level tables of pointers built on
each call, and checks every factor's shape first, since C indexes
without bounds checks.  The call walks the task's slices once per block
of factor columns (32, 16, 8 or 4 wide, then the rank's ``R mod 4``
tail), and the running sums of the two deepest tree levels stay in
vector registers for the whole walk instead of making a trip through
memory on every multiply-add.  Each element gets the arithmetic of ``kernels_ref``'s
loops over whole rows, in the same order and with the same rounding: a
multiply-add is fused where the compiler fuses the whole-row loop's, and
the products those loops keep in a row of their own are rounded on their
own.  Beyond the kernels, the mutex-pool scatter adds such a buffer into
the output: a task's whole locked bucket loop in one call, over C locks
(``repro_scatter_locked``; docs/RUNTIME.md says when it runs).
``subprocess`` and ``shutil`` are imported only when the shared object
must be compiled.

The cache directory is ``$REPRO_CEXT_CACHE`` if set, else a per-user
directory under the system temp dir.  The shared object's name embeds a
hash of the C source, so editing the kernels invalidates stale binaries
automatically; compilation is a one-time ``backend.compile`` cost of a
few seconds (one body per column-block width).

If no compiler is found, or compilation/loading fails, the backend
reports unavailable (``auto`` falls back; naming it explicitly raises
:class:`~repro.backend.registry.BackendUnavailableError`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os

import numpy as np

from repro._util import INDEX_DTYPE, VALUE_DTYPE
from repro.backend.registry import Backend, BackendUnavailableError

__all__ = ["CextBackend"]

_MAX_MODES = 64

_C_SOURCE = r"""
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_MODES 64
#define INLINE static inline __attribute__((always_inline))

/* Column blocks.  A range kernel walks the task's slices once per block
   of factor columns and keeps the block's running sums in vector
   registers: nv (8, 4, 2 or 1) vectors of 4 columns, or, for the rank's
   R mod 4 tail, one vector whose first `lanes` columns are real.  Each
   element goes through the same operations in the same order as in a
   walk over whole rows, so it rounds exactly as it would there. */
typedef double v4 __attribute__((vector_size(32)));
typedef struct { v4 v[8]; } blk;

/* KEEP_ROUNDED(x): x is rounded on its own before its next use, so the
   product it holds is never fused into the add that consumes it. */
#if defined(__x86_64__) && defined(__AVX__)
#define KEEP_ROUNDED(x) __asm__("" : "+x"(x))
#elif defined(__aarch64__)
#define KEEP_ROUNDED(x) __asm__("" : "+w"(x))
#else
#define KEEP_ROUNDED(x) __asm__("" : "+m"(x))
#endif

INLINE blk blk_fill(double s)
{
    blk b;
    for (int k = 0; k < 8; k++)
        b.v[k] = (v4){s, s, s, s};
    return b;
}

/* partial blocks touch only their `lanes` columns: a tail row may end
   its buffer */
INLINE blk blk_load(const double* p, int nv, int lanes)
{
    blk b = blk_fill(0.0);
    if (lanes == 4)
        for (int k = 0; k < nv; k++)
            memcpy(&b.v[k], p + 4 * k, sizeof(v4));
    else
        b.v[0] = (v4){p[0], lanes > 1 ? p[1] : 0.0, lanes > 2 ? p[2] : 0.0, 0.0};
    return b;
}

INLINE void blk_store(double* p, blk b, int nv, int lanes)
{
    if (lanes == 4)
        for (int k = 0; k < nv; k++)
            memcpy(p + 4 * k, &b.v[k], sizeof(v4));
    else
        for (int j = 0; j < lanes; j++)
            p[j] = b.v[0][j];
}

/* a + x*y: contracted into a fused multiply-add wherever the scalar
   `a[r] += x[r] * y[r]` is */
INLINE blk blk_madd(blk a, blk x, blk y, int nv)
{
    for (int k = 0; k < nv; k++)
        a.v[k] += x.v[k] * y.v[k];
    return a;
}

INLINE blk blk_mul(blk a, blk x, int nv)
{
    for (int k = 0; k < nv; k++)
        a.v[k] *= x.v[k];
    return a;
}

INLINE blk blk_add(blk a, blk x, int nv)
{
    for (int k = 0; k < nv; k++)
        a.v[k] += x.v[k];
    return a;
}

INLINE blk blk_rounded(blk a, int nv)
{
    for (int k = 0; k < nv; k++)
        KEEP_ROUNDED(a.v[k]);
    return a;
}

/* A task's view of the tree: each level's child pointers, fids and
   factor matrix, and the task's node range [lo[l], hi[l]) per level. */
typedef struct {
    const int64_t* fptr[MAX_MODES];
    const int64_t* fids[MAX_MODES];
    const double* rows[MAX_MODES];
    const double* values;
    int64_t nmodes, rank;
    int64_t lo[MAX_MODES], hi[MAX_MODES];
} walk_t;

/* fptr, fids and rows are the tree's per-level arrays and the factor
   matrices in tree-level order, read in place. */
static void walk_init(walk_t* w, const int64_t* const* fptr,
                      const int64_t* const* fids, const double* values,
                      const double* const* rows, int64_t nmodes,
                      int64_t rank, int64_t lo, int64_t hi)
{
    w->values = values;
    w->nmodes = nmodes;
    w->rank = rank;
    for (int64_t l = 0; l < nmodes; l++) {
        w->fids[l] = fids[l];
        w->rows[l] = rows[l];
    }
    w->lo[0] = lo;
    w->hi[0] = hi;
    for (int64_t l = 0; l < nmodes - 1; l++) {
        w->fptr[l] = fptr[l];
        w->lo[l + 1] = w->fptr[l][w->lo[l]];
        w->hi[l + 1] = w->fptr[l][w->hi[l]];
    }
}

INLINE blk factor_block(const walk_t* w, int64_t l, int64_t i, int64_t col,
                        int nv, int lanes)
{
    return blk_load(w->rows[l] + w->fids[l][i] * w->rank + col, nv, lanes);
}

/* Add the sum of node i at `level`, times the factor rows of its
   ancestors ptr[0..level), into its output row: out[fid], or row
   slot[i - lo] of a compact buffer. */
INLINE void emit(const walk_t* w, blk sum, int64_t level, int64_t i,
                 const int64_t* ptr, const int64_t* slot, double* out,
                 int64_t col, int nv, int lanes)
{
    for (int64_t a = 0; a < level; a++)
        sum = blk_mul(sum, factor_block(w, a, ptr[a], col, nv, lanes), nv);
    sum = blk_rounded(sum, nv);
    int64_t row = slot != NULL ? slot[i - w->lo[level]] : w->fids[level][i];
    double* o = out + row * w->rank + col;
    blk_store(o, blk_add(blk_load(o, nv, lanes), sum, nv), nv, lanes);
}

/* One column block of the upward walk shared by the root (level 0) and
   internal kernels.  A fiber sums its nonzeros' factor rows scaled by
   their values; a closed node adds its sum times its own factor row into
   its parent's sum, until a node at `level` closes and is emitted.  The
   fiber and parent sums are registers; the sums of the levels above
   them (trees of order 4 and more) live in up[].  ptr[l] is the open
   node at level l < fib, par_end the end of the open parent's fibers. */
INLINE void upward_block(const walk_t* w, int64_t level, const int64_t* slot,
                         double* out, blk* up, int64_t col, int nv, int lanes)
{
    const int64_t last = w->nmodes - 1, fib = last - 1;
    const int64_t lo = w->lo[fib], hi = w->hi[fib];
    const int64_t* fend = w->fptr[fib] + 1;
    const blk zero = blk_fill(0.0);
    int64_t ptr[MAX_MODES];
    for (int64_t l = 0; l < fib; l++)
        ptr[l] = w->lo[l];
    for (int64_t l = level; l < fib - 1; l++)
        up[l] = zero;
    int64_t par_end = fib > 0 && lo < hi ? w->fptr[fib - 1][ptr[fib - 1] + 1] : -1;
    blk par = zero;
    for (int64_t p = lo; p < hi; p++) {
        blk sum = zero;
        for (int64_t z = fend[p - 1]; z < fend[p]; z++)
            sum = blk_madd(sum, blk_fill(w->values[z]),
                           factor_block(w, last, z, col, nv, lanes), nv);
        if (fib == level)
            emit(w, sum, level, p, ptr, slot, out, col, nv, lanes);
        else
            par = blk_madd(par, sum, factor_block(w, fib, p, col, nv, lanes), nv);
        if (p + 1 != par_end)
            continue;
        int64_t l = fib - 1;
        if (l > level)
            up[l - 1] = blk_madd(up[l - 1], par,
                                 factor_block(w, l, ptr[l], col, nv, lanes), nv);
        else if (l == level)
            emit(w, par, level, ptr[l], ptr, slot, out, col, nv, lanes);
        par = zero;
        int64_t pos = ++ptr[l];
        for (l -= 1; l >= 0 && pos == w->fptr[l][ptr[l] + 1]; l--) {
            if (l > level) {
                up[l - 1] = blk_madd(up[l - 1], up[l],
                                     factor_block(w, l, ptr[l], col, nv, lanes), nv);
                up[l] = zero;
            } else if (l == level) {
                emit(w, up[l], level, ptr[l], ptr, slot, out, col, nv, lanes);
                up[l] = zero;
            }
            pos = ++ptr[l];
        }
        if (p + 1 < hi)
            par_end = w->fptr[fib - 1][ptr[fib - 1] + 1];
    }
}

/* Run BLOCK(col, nv, lanes) over the rank's column blocks: 32 columns at
   a time, then a block of 16, one of 8 and one of 4 where they fit, then
   the R mod 4 tail. */
#define FOR_EACH_BLOCK(rank, BLOCK)                          \
    do {                                                     \
        int64_t col = 0;                                     \
        for (; col + 32 <= (rank); col += 32)                \
            BLOCK(col, 8, 4);                                \
        if ((rank) - col >= 16) {                            \
            BLOCK(col, 4, 4);                                \
            col += 16;                                       \
        }                                                    \
        if ((rank) - col >= 8) {                             \
            BLOCK(col, 2, 4);                                \
            col += 8;                                        \
        }                                                    \
        if ((rank) - col >= 4) {                             \
            BLOCK(col, 1, 4);                                \
            col += 4;                                        \
        }                                                    \
        if ((rank) - col == 3)                               \
            BLOCK(col, 1, 3);                                \
        else if ((rank) - col == 2)                          \
            BLOCK(col, 1, 2);                                \
        else if ((rank) - col == 1)                          \
            BLOCK(col, 1, 1);                                \
    } while (0)

static void upward(const walk_t* w, int64_t level, const int64_t* slot,
                   double* out)
{
    blk up[MAX_MODES - 2];
#define UPWARD_BLOCK(col, nv, lanes) \
    upward_block(w, level, slot, out, up, col, nv, lanes)
    FOR_EACH_BLOCK(w->rank, UPWARD_BLOCK);
#undef UPWARD_BLOCK
}

/* One column block of the leaf kernel: each nonzero adds its value times
   its fiber's row product, a register, into its own row.  The product of
   the rows above the fiber level changes only when the fiber's parent
   does. */
INLINE void leaf_block(const walk_t* w, const int64_t* slot, double* out,
                       int64_t col, int nv, int lanes)
{
    const int64_t last = w->nmodes - 1, fib = last - 1;
    const int64_t lo = w->lo[fib], hi = w->hi[fib];
    const int64_t* fend = w->fptr[fib] + 1;
    int64_t ptr[MAX_MODES];
    for (int64_t l = 0; l < fib; l++)
        ptr[l] = w->lo[l];
    int64_t par_end = -1;
    blk above = blk_fill(1.0);
    for (int64_t p = lo; p < hi; p++) {
        if (p == lo || p == par_end) {
            /* a new parent: advance every ancestor whose children ended */
            for (int64_t l = fib - 1, pos = p; p > lo && l >= 0
                     && pos == w->fptr[l][ptr[l] + 1]; l--)
                pos = ++ptr[l];
            above = blk_fill(1.0);
            for (int64_t a = 0; a < fib; a++)
                above = blk_mul(above, factor_block(w, a, ptr[a], col, nv, lanes), nv);
            if (fib > 0)
                par_end = w->fptr[fib - 1][ptr[fib - 1] + 1];
        }
        blk prod = blk_mul(above, factor_block(w, fib, p, col, nv, lanes), nv);
        for (int64_t z = fend[p - 1]; z < fend[p]; z++) {
            blk term = blk_rounded(blk_mul(blk_fill(w->values[z]), prod, nv), nv);
            int64_t row = slot != NULL ? slot[z - w->lo[last]] : w->fids[last][z];
            double* o = out + row * w->rank + col;
            blk_store(o, blk_add(blk_load(o, nv, lanes), term, nv), nv, lanes);
        }
    }
}

/* Range kernels: one walk of the task's slices per column block, adding
   each contribution into its output row, out[fid] or (given slot) row
   slot[i] of the task's compact buffer of nout rows, zeroed first.
   kernels_ref.py states the contract. */
#define TREE_PARAMS const int64_t* const* fptr, const int64_t* const* fids, \
    const double* values, const double* const* rows, int64_t nmodes, int64_t rank
#define TREE_ARGS fptr, fids, values, rows, nmodes, rank

void repro_root_kernel(TREE_PARAMS, int64_t lo, int64_t hi, double* out)
{
    walk_t w;
    walk_init(&w, TREE_ARGS, lo, hi);
    upward(&w, 0, NULL, out);
}

static void clear_rows(double* out, const int64_t* slot, int64_t nout,
                       int64_t rank)
{
    if (slot != NULL)
        memset(out, 0, (size_t)(nout * rank) * sizeof(double));
}

void repro_internal_kernel(TREE_PARAMS, int64_t level, int64_t lo, int64_t hi,
                           const int64_t* slot, double* out, int64_t nout)
{
    walk_t w;
    walk_init(&w, TREE_ARGS, lo, hi);
    clear_rows(out, slot, nout, rank);
    upward(&w, level, slot, out);
}

void repro_leaf_kernel(TREE_PARAMS, int64_t lo, int64_t hi,
                       const int64_t* slot, double* out, int64_t nout)
{
    walk_t w;
    walk_init(&w, TREE_ARGS, lo, hi);
    clear_rows(out, slot, nout, rank);
#define LEAF_BLOCK(col, nv, lanes) leaf_block(&w, slot, out, col, nv, lanes)
    FOR_EACH_BLOCK(rank, LEAF_BLOCK);
#undef LEAF_BLOCK
}

void repro_gather_segment_sum(const double* x, const int64_t* order,
                              int64_t n, const int64_t* starts,
                              int64_t nseg, int64_t rank, double* out)
{
    for (int64_t s = 0; s < nseg; s++) {
        int64_t e = (s + 1 < nseg) ? starts[s + 1] : n;
        double* o = out + s * rank;
        for (int64_t r = 0; r < rank; r++)
            o[r] = 0.0;
        for (int64_t i = starts[s]; i < e; i++) {
            const double* xj = x + order[i] * rank;
            for (int64_t r = 0; r < rank; r++)
                o[r] += xj[r];
        }
    }
}

/* Mutex pools: one lock per LOCK_STRIDE bytes, padded to a cache line
   like SPLATT's pool.  Kind 0 is Listing 6's atomic test-and-set spinlock;
   kind 1 is the sync pool's pthread mutex, which either sleeps in
   pthread_mutex_lock after a failed trylock (sleep != 0, Qthreads) or
   spins on trylock with yields (fifo). */
#define LOCK_STRIDE 64
#define LOCK_ATOMIC 0
_Static_assert(sizeof(atomic_flag) <= LOCK_STRIDE, "atomic_flag exceeds a lock slot");
_Static_assert(sizeof(pthread_mutex_t) <= LOCK_STRIDE, "pthread_mutex_t exceeds a lock slot");

void repro_locks_init(char* locks, int64_t n, int64_t kind)
{
    for (int64_t i = 0; i < n; i++) {
        char* slot = locks + i * LOCK_STRIDE;
        if (kind == LOCK_ATOMIC)
            atomic_flag_clear((atomic_flag*)slot);
        else
            pthread_mutex_init((pthread_mutex_t*)slot, NULL);
    }
}

void repro_locks_destroy(char* locks, int64_t n, int64_t kind)
{
    if (kind == LOCK_ATOMIC)
        return;
    for (int64_t i = 0; i < n; i++)
        pthread_mutex_destroy((pthread_mutex_t*)(locks + i * LOCK_STRIDE));
}

/* counts: acquires, contended acquires, yields, sleeps */
static void lock_slot(char* slot, int64_t kind, int64_t sleep, int64_t* counts)
{
    int64_t contended = 0;
    if (kind == LOCK_ATOMIC) {
        atomic_flag* flag = (atomic_flag*)slot;
        while (atomic_flag_test_and_set_explicit(flag, memory_order_acquire)) {
            contended = 1;
            counts[2] += 1;
            sched_yield();
        }
    } else {
        pthread_mutex_t* m = (pthread_mutex_t*)slot;
        if (pthread_mutex_trylock(m) != 0) {
            contended = 1;
            if (sleep) {
                counts[3] += 1;
                pthread_mutex_lock(m);
            } else {
                do {
                    counts[2] += 1;
                    sched_yield();
                } while (pthread_mutex_trylock(m) != 0);
            }
        }
    }
    counts[0] += 1;
    counts[1] += contended;
}

static void unlock_slot(char* slot, int64_t kind)
{
    if (kind == LOCK_ATOMIC)
        atomic_flag_clear_explicit((atomic_flag*)slot, memory_order_release);
    else
        pthread_mutex_unlock((pthread_mutex_t*)slot);
}

void repro_scatter_locked(double* out, int64_t width, const int64_t* out_rows,
                          const double* reduced, const int64_t* bucket_bounds,
                          const int64_t* bucket_ids, int64_t nbuckets,
                          char* locks, int64_t kind, int64_t sleep,
                          int64_t* counts)
{
    for (int64_t c = 0; c < 4; c++)
        counts[c] = 0;
    for (int64_t k = 0; k < nbuckets; k++) {
        char* slot = locks + bucket_ids[k] * LOCK_STRIDE;
        lock_slot(slot, kind, sleep, counts);
        for (int64_t i = bucket_bounds[k]; i < bucket_bounds[k + 1]; i++) {
            double* o = out + out_rows[i] * width;
            const double* x = reduced + i * width;
            for (int64_t r = 0; r < width; r++)
                o[r] += x[r];
        }
        unlock_slot(slot, kind);
    }
}
"""

_I64 = ctypes.c_longlong
_PTR = ctypes.c_void_p

_SIGNATURES = {
    "repro_root_kernel": [_PTR] * 4 + [_I64] * 4 + [_PTR],
    "repro_internal_kernel": [_PTR] * 4 + [_I64] * 5 + [_PTR, _PTR, _I64],
    "repro_leaf_kernel": [_PTR] * 4 + [_I64] * 4 + [_PTR, _PTR, _I64],
    "repro_gather_segment_sum": [_PTR, _PTR, _I64, _PTR, _I64, _I64, _PTR],
    "repro_locks_init": [_PTR, _I64, _I64],
    "repro_locks_destroy": [_PTR, _I64, _I64],
    "repro_scatter_locked": [_PTR, _I64, _PTR, _PTR, _PTR, _PTR, _I64,
                             _PTR, _I64, _I64, _PTR],
}

#: Bytes per mutex-pool lock (``LOCK_STRIDE`` in the C source): one
#: cache line, so neighbouring locks never share one.
_LOCK_STRIDE = 64
#: Pool kind -> the C side's lock kind.
_LOCK_KINDS = {"atomic": 0, "sync": 1}


def _compiler() -> str | None:
    import shutil

    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_CEXT_CACHE")
    if override:
        path = override
    else:
        import tempfile  # numpy has imported it already

        uid = os.getuid() if hasattr(os, "getuid") else 0
        path = os.path.join(tempfile.gettempdir(), f"repro-cext-{uid}")
    os.makedirs(path, exist_ok=True)
    return path


def _build_library() -> ctypes.CDLL:
    # the cache key covers the build recipe too, so changing compile flags
    # invalidates stale shared objects
    digest = hashlib.sha256(
        (_C_SOURCE + "|-O3 -march=native -funroll-loops -pthread").encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_backend_{digest}.so")
    if not os.path.exists(so_path):
        import subprocess  # only a build needs it (or a compiler)

        cc = _compiler()
        if cc is None:
            raise BackendUnavailableError(
                "backend 'cext' is unavailable: no C compiler found (set $CC, "
                "or install cc/gcc/clang) — use --backend auto to fall back"
            )
        src_path = os.path.join(cache, f"repro_backend_{digest}.c")
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        tmp_so = so_path + f".tmp{os.getpid()}"
        # -march=native unlocks FMA/AVX on the rank-strided inner loops
        # (the .so cache is per-machine, so native codegen is safe); not
        # every toolchain accepts it, so fall back to plain -O3.
        flag_sets = (
            ["-O3", "-march=native", "-funroll-loops", "-pthread"],
            ["-O3", "-pthread"],
        )
        proc = None
        for flags in flag_sets:
            proc = subprocess.run(
                [cc, *flags, "-fPIC", "-shared", "-o", tmp_so, src_path],
                capture_output=True,
                text=True,
            )
            if proc.returncode == 0:
                break
        if proc is None or proc.returncode != 0:
            raise BackendUnavailableError(
                f"backend 'cext' is unavailable: {cc} failed "
                f"(exit {proc.returncode}): {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp_so, so_path)  # atomic under concurrent builders
    try:
        lib = ctypes.CDLL(so_path)
    except OSError as exc:
        raise BackendUnavailableError(
            f"backend 'cext' is unavailable: failed to load {so_path}: {exc}"
        ) from exc
    for fname, argtypes in _SIGNATURES.items():
        fn = getattr(lib, fname)
        fn.argtypes = argtypes
        fn.restype = None
    return lib


def _p(arr: np.ndarray, dtype) -> int:
    """Pointer to ``arr``'s buffer, guarding the layout the C side assumes."""
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise ValueError(
            f"cext kernel requires C-contiguous {np.dtype(dtype).name} "
            f"array, got {arr.dtype} (contiguous={arr.flags.c_contiguous})"
        )
    return arr.ctypes.data


def _table(arrays, dtype):
    """A C array of pointers to the buffers of ``arrays``."""
    return (_PTR * len(arrays))(*[_p(a, dtype) for a in arrays])


class CextBackend(Backend):
    """ctypes-dispatched C kernels (GIL released during every call)."""

    name = "cext"
    compiled = True
    locked_scatter = True

    def __init__(self) -> None:
        super().__init__()
        self._lib: ctypes.CDLL | None = None

    def _prepare(self) -> None:
        self._lib = _build_library()

    @staticmethod
    def _tree_args(tree, factors):
        """The range kernels' leading arguments: pointer tables to the
        tree's ``fptr``/``fids`` levels and to ``factors`` (tree-level
        order), read in place, plus the values, order and rank.

        C indexes without bounds checks, so every factor's shape is checked
        here: ``factors[l]`` must be ``(dims[dim_perm[l]], rank)``.
        """
        nmodes = tree.nmodes
        if nmodes > _MAX_MODES:
            raise ValueError(
                f"cext backend supports at most {_MAX_MODES} modes, got {nmodes}"
            )
        if len(factors) != nmodes:
            raise ValueError(f"need {nmodes} factors, got {len(factors)}")
        rank = factors[0].shape[1]
        for level, f in enumerate(factors):
            mode = tree.dim_perm[level]
            if f.shape != (tree.dims[mode], rank):
                raise ValueError(
                    f"factor {mode} has shape {f.shape}, expected "
                    f"{(tree.dims[mode], rank)}"
                )
        return (_table(tree.fptr, INDEX_DTYPE), _table(tree.fids, INDEX_DTYPE),
                _p(tree.values, VALUE_DTYPE), _table(factors, VALUE_DTYPE),
                nmodes, rank)

    def root_kernel(self, tree, factors, lo, hi, out) -> None:
        _, target, _ = self._target(tree, factors, 0, out, None)
        self._lib.repro_root_kernel(*self._tree_args(tree, factors), lo, hi, target)

    def internal_kernel(self, tree, factors, level, lo, hi, out, slot=None) -> None:
        self._lib.repro_internal_kernel(
            *self._tree_args(tree, factors), level, lo, hi,
            *self._target(tree, factors, level, out, slot))

    def leaf_kernel(self, tree, factors, lo, hi, out, slot=None) -> None:
        self._lib.repro_leaf_kernel(
            *self._tree_args(tree, factors), lo, hi,
            *self._target(tree, factors, tree.nmodes - 1, out, slot))

    @staticmethod
    def _target(tree, factors, level, out, slot):
        """``(slot, out, nout)`` pointers for a kernel adding into ``out``.

        C indexes without bounds checks, so the shapes are checked here:
        without ``slot``, ``out`` must cover every fid of ``level``; with
        it, the plan that built ``slot`` keeps its entries below ``nout``.
        """
        rank = factors[0].shape[1]
        dim = tree.dims[tree.dim_perm[level]]
        if (out.ndim != 2 or out.shape[1] != rank
                or (slot is None and out.shape[0] < dim)):
            raise ValueError(
                f"cext kernel output {out.shape} does not cover "
                f"{dim} rows of rank {rank}"
            )
        ptr = None if slot is None else _p(slot, INDEX_DTYPE)
        return ptr, _p(out, VALUE_DTYPE), out.shape[0]

    def gather_segment_sum(self, x, order, starts, out) -> None:
        if (x.ndim != 2 or order.shape != (x.shape[0],) or starts.ndim != 1
                or out.shape != (starts.shape[0], x.shape[1])):
            raise ValueError(
                f"gather_segment_sum: x {x.shape}, order {order.shape}, "
                f"starts {starts.shape}, out {out.shape}"
            )
        self._lib.repro_gather_segment_sum(
            _p(x, VALUE_DTYPE), _p(order, INDEX_DTYPE), order.shape[0],
            _p(starts, INDEX_DTYPE), starts.shape[0], x.shape[1],
            _p(out, VALUE_DTYPE))

    def make_locks(self, size, kind) -> np.ndarray:
        # over-allocate one stride so the pool can start on a line boundary
        raw = np.empty((size + 1) * _LOCK_STRIDE, dtype=np.uint8)
        start = -raw.ctypes.data % _LOCK_STRIDE
        locks = raw[start:start + size * _LOCK_STRIDE]
        self._lib.repro_locks_init(_p(locks, np.uint8), size, _LOCK_KINDS[kind])
        return locks

    def free_locks(self, locks, kind) -> None:
        self._lib.repro_locks_destroy(
            _p(locks, np.uint8), locks.shape[0] // _LOCK_STRIDE, _LOCK_KINDS[kind])

    def scatter_locked(self, out, reduced, out_rows, bucket_bounds, bucket_ids,
                       locks, kind, sleep, counts) -> None:
        if (reduced.shape != (out_rows.shape[0], out.shape[1])
                or bucket_bounds.shape != (bucket_ids.shape[0] + 1,)
                or counts.shape != (4,)):
            raise ValueError(
                f"scatter_locked: reduced {reduced.shape}, out {out.shape}, "
                f"{out_rows.shape[0]} rows, {bucket_ids.shape[0]} buckets with "
                f"{bucket_bounds.shape[0]} bounds, counts {counts.shape}"
            )
        self._lib.repro_scatter_locked(
            _p(out, VALUE_DTYPE), out.shape[1], _p(out_rows, INDEX_DTYPE),
            _p(reduced, VALUE_DTYPE), _p(bucket_bounds, INDEX_DTYPE),
            _p(bucket_ids, INDEX_DTYPE), bucket_ids.shape[0],
            _p(locks, np.uint8), _LOCK_KINDS[kind], int(sleep),
            _p(counts, INDEX_DTYPE))
