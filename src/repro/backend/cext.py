"""The ``cext`` backend: the packed kernels as C, compiled at first use.

A line-for-line C translation of :mod:`repro.backend.kernels_ref`,
compiled with the system C compiler (``$CC``, ``cc`` or ``gcc``) into a
shared object cached under a content-hash name, and called through
:mod:`ctypes` — which releases the GIL for the duration of every foreign
call, so per-task kernel calls from the worker pool can run on distinct
cores, with zero Python-package dependencies beyond a toolchain.

One MTTKRP task is one kernel call, which adds each contribution straight
into its output row: the MTTKRP output, or, given a ``slot`` array, the
task's compact buffer of the rows it touches (``kernels_ref`` states the
contract).  Beyond that translation it has the mutex-pool scatter that
adds such a buffer into the output: a task's whole locked bucket loop in
one call, over C locks (``repro_scatter_locked``; docs/RUNTIME.md says
when it runs).  ``subprocess`` and ``shutil`` are imported only when the
shared object must be compiled.

The cache directory is ``$REPRO_CEXT_CACHE`` if set, else a per-user
directory under the system temp dir.  The shared object's name embeds a
hash of the C source, so editing the kernels invalidates stale binaries
automatically; compilation is a one-time ``backend.compile`` cost
(tens of milliseconds for this small translation unit).

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

#define MAX_MODES 64

static void level_ranges(const int64_t* fptr_cat, const int64_t* fptr_off,
                         int64_t nmodes, int64_t lo, int64_t hi,
                         int64_t* lo_l, int64_t* hi_l, int64_t* ptr)
{
    lo_l[0] = lo;
    hi_l[0] = hi;
    for (int64_t l = 0; l < nmodes - 1; l++) {
        lo_l[l + 1] = fptr_cat[fptr_off[l] + lo_l[l]];
        hi_l[l + 1] = fptr_cat[fptr_off[l] + hi_l[l]];
    }
    for (int64_t l = 0; l < nmodes; l++)
        ptr[l] = lo_l[l];
}

/* Range kernels: one pass per task, adding each contribution into its
   output row, out[fid] or (given slot) row slot[i] of the task's compact
   buffer of nout rows, zeroed first.  kernels_ref.py states the contract. */
void repro_root_kernel(const int64_t* fptr_cat, const int64_t* fptr_off,
                       const int64_t* fids_cat, const int64_t* fids_off,
                       const double* values, const double* packed,
                       const int64_t* row_off, int64_t nmodes, int64_t rank,
                       int64_t lo, int64_t hi, double* out)
{
    int64_t last = nmodes - 1;
    int64_t lo_l[MAX_MODES], hi_l[MAX_MODES], ptr[MAX_MODES];
    level_ranges(fptr_cat, fptr_off, nmodes, lo, hi, lo_l, hi_l, ptr);
    double* acc = (double*)calloc((size_t)(last * rank), sizeof(double));
    for (int64_t z = lo_l[last]; z < hi_l[last]; z++) {
        const double* frow =
            packed + (row_off[last] + fids_cat[fids_off[last] + z]) * rank;
        double v = values[z];
        double* alast = acc + (last - 1) * rank;
        for (int64_t r = 0; r < rank; r++)
            alast[r] += v * frow[r];
        int64_t pos = z + 1;
        int64_t l = last - 1;
        while (pos == fptr_cat[fptr_off[l] + ptr[l] + 1]) {
            if (l == 0) {
                double* o = out + fids_cat[fids_off[0] + ptr[0]] * rank;
                for (int64_t r = 0; r < rank; r++) {
                    o[r] += acc[r];
                    acc[r] = 0.0;
                }
                ptr[0] += 1;
                break;
            }
            const double* f2 =
                packed + (row_off[l] + fids_cat[fids_off[l] + ptr[l]]) * rank;
            double* al = acc + l * rank;
            double* ap = acc + (l - 1) * rank;
            for (int64_t r = 0; r < rank; r++) {
                ap[r] += al[r] * f2[r];
                al[r] = 0.0;
            }
            ptr[l] += 1;
            pos = ptr[l];
            l -= 1;
        }
    }
    free(acc);
}

static void clear_rows(double* out, const int64_t* slot, int64_t nout,
                       int64_t rank)
{
    if (slot != NULL)
        for (int64_t i = 0; i < nout * rank; i++)
            out[i] = 0.0;
}

void repro_internal_kernel(const int64_t* fptr_cat, const int64_t* fptr_off,
                           const int64_t* fids_cat, const int64_t* fids_off,
                           const double* values, const double* packed,
                           const int64_t* row_off, int64_t nmodes,
                           int64_t rank, int64_t level, int64_t lo, int64_t hi,
                           const int64_t* slot, double* out, int64_t nout)
{
    int64_t last = nmodes - 1;
    int64_t lo_l[MAX_MODES], hi_l[MAX_MODES], ptr[MAX_MODES];
    level_ranges(fptr_cat, fptr_off, nmodes, lo, hi, lo_l, hi_l, ptr);
    clear_rows(out, slot, nout, rank);
    double* acc = (double*)calloc((size_t)(last * rank), sizeof(double));
    double* tmp = (double*)malloc((size_t)rank * sizeof(double));
    for (int64_t z = lo_l[last]; z < hi_l[last]; z++) {
        const double* frow =
            packed + (row_off[last] + fids_cat[fids_off[last] + z]) * rank;
        double v = values[z];
        double* alast = acc + (last - 1) * rank;
        for (int64_t r = 0; r < rank; r++)
            alast[r] += v * frow[r];
        int64_t pos = z + 1;
        int64_t l = last - 1;
        while (pos == fptr_cat[fptr_off[l] + ptr[l] + 1]) {
            if (l > level) {
                const double* f2 =
                    packed + (row_off[l] + fids_cat[fids_off[l] + ptr[l]]) * rank;
                double* al = acc + l * rank;
                double* ap = acc + (l - 1) * rank;
                for (int64_t r = 0; r < rank; r++) {
                    ap[r] += al[r] * f2[r];
                    al[r] = 0.0;
                }
                ptr[l] += 1;
                pos = ptr[l];
                l -= 1;
            } else if (l == level) {
                double* alev = acc + level * rank;
                for (int64_t r = 0; r < rank; r++) {
                    tmp[r] = alev[r];
                    alev[r] = 0.0;
                }
                for (int64_t a = 0; a < level; a++) {
                    const double* fa =
                        packed + (row_off[a] + fids_cat[fids_off[a] + ptr[a]]) * rank;
                    for (int64_t r = 0; r < rank; r++)
                        tmp[r] *= fa[r];
                }
                int64_t row = slot != NULL ? slot[ptr[level] - lo_l[level]]
                                           : fids_cat[fids_off[level] + ptr[level]];
                double* o = out + row * rank;
                for (int64_t r = 0; r < rank; r++)
                    o[r] += tmp[r];
                ptr[level] += 1;
                pos = ptr[level];
                l -= 1;
            } else {
                if (l == 0) {
                    ptr[0] += 1;
                    break;
                }
                ptr[l] += 1;
                pos = ptr[l];
                l -= 1;
            }
        }
    }
    free(tmp);
    free(acc);
}

void repro_leaf_kernel(const int64_t* fptr_cat, const int64_t* fptr_off,
                       const int64_t* fids_cat, const int64_t* fids_off,
                       const double* values, const double* packed,
                       const int64_t* row_off, int64_t nmodes, int64_t rank,
                       int64_t lo, int64_t hi,
                       const int64_t* slot, double* out, int64_t nout)
{
    int64_t last = nmodes - 1;
    int64_t lo_l[MAX_MODES], hi_l[MAX_MODES], ptr[MAX_MODES];
    level_ranges(fptr_cat, fptr_off, nmodes, lo, hi, lo_l, hi_l, ptr);
    clear_rows(out, slot, nout, rank);
    double* prow = (double*)malloc((size_t)(2 * rank) * sizeof(double));
    /* the product lands in its own row before the add, so it is rounded
       on its own and never fused into the add */
    double* term = prow + rank;
    int64_t fib = last - 1;
    for (int64_t p = lo_l[fib]; p < hi_l[fib]; p++) {
        for (int64_t r = 0; r < rank; r++)
            prow[r] = 1.0;
        for (int64_t a = 0; a < fib; a++) {
            const double* fa =
                packed + (row_off[a] + fids_cat[fids_off[a] + ptr[a]]) * rank;
            for (int64_t r = 0; r < rank; r++)
                prow[r] *= fa[r];
        }
        const double* fp =
            packed + (row_off[fib] + fids_cat[fids_off[fib] + p]) * rank;
        for (int64_t r = 0; r < rank; r++)
            prow[r] *= fp[r];
        for (int64_t z = fptr_cat[fptr_off[fib] + p];
             z < fptr_cat[fptr_off[fib] + p + 1]; z++) {
            double v = values[z];
            for (int64_t r = 0; r < rank; r++)
                term[r] = v * prow[r];
            int64_t row = slot != NULL ? slot[z - lo_l[last]]
                                       : fids_cat[fids_off[last] + z];
            double* o = out + row * rank;
            for (int64_t r = 0; r < rank; r++)
                o[r] += term[r];
        }
        int64_t pos = p + 1;
        int64_t l = fib - 1;
        while (l >= 0 && pos == fptr_cat[fptr_off[l] + ptr[l] + 1]) {
            ptr[l] += 1;
            pos = ptr[l];
            l -= 1;
        }
    }
    free(prow);
}

void repro_segment_sum(const double* x, int64_t n, const int64_t* starts,
                       int64_t nseg, int64_t rank, double* out)
{
    for (int64_t s = 0; s < nseg; s++) {
        int64_t e = (s + 1 < nseg) ? starts[s + 1] : n;
        double* o = out + s * rank;
        for (int64_t r = 0; r < rank; r++)
            o[r] = 0.0;
        for (int64_t i = starts[s]; i < e; i++) {
            const double* xi = x + i * rank;
            for (int64_t r = 0; r < rank; r++)
                o[r] += xi[r];
        }
    }
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

void repro_ata(const double* a, int64_t n, int64_t rank, double* out)
{
    for (int64_t i = 0; i < rank; i++)
        for (int64_t j = 0; j < rank; j++)
            out[i * rank + j] = 0.0;
    for (int64_t k = 0; k < n; k++) {
        const double* ak = a + k * rank;
        for (int64_t i = 0; i < rank; i++) {
            double aki = ak[i];
            double* oi = out + i * rank;
            for (int64_t j = i; j < rank; j++)
                oi[j] += aki * ak[j];
        }
    }
    for (int64_t i = 0; i < rank; i++)
        for (int64_t j = 0; j < i; j++)
            out[i * rank + j] = out[j * rank + i];
}
"""

_I64 = ctypes.c_longlong
_PTR = ctypes.c_void_p

_SIGNATURES = {
    "repro_root_kernel": [_PTR] * 7 + [_I64] * 4 + [_PTR],
    "repro_internal_kernel": [_PTR] * 7 + [_I64] * 5 + [_PTR, _PTR, _I64],
    "repro_leaf_kernel": [_PTR] * 7 + [_I64] * 4 + [_PTR, _PTR, _I64],
    "repro_segment_sum": [_PTR, _I64, _PTR, _I64, _I64, _PTR],
    "repro_gather_segment_sum": [_PTR, _PTR, _I64, _PTR, _I64, _I64, _PTR],
    "repro_ata": [_PTR, _I64, _I64, _PTR],
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

    def _tree_args(self, pk, packed):
        if pk.nmodes > _MAX_MODES:
            raise ValueError(
                f"cext backend supports at most {_MAX_MODES} modes, "
                f"got {pk.nmodes}"
            )
        return (
            _p(pk.fptr_cat, INDEX_DTYPE),
            _p(pk.fptr_off, INDEX_DTYPE),
            _p(pk.fids_cat, INDEX_DTYPE),
            _p(pk.fids_off, INDEX_DTYPE),
            _p(pk.values, VALUE_DTYPE),
            _p(packed, VALUE_DTYPE),
            _p(pk.row_off, INDEX_DTYPE),
            pk.nmodes,
            packed.shape[1],
        )

    def root_kernel(self, pk, packed, lo, hi, out) -> None:
        _, target, _ = self._target(pk, packed, 0, out, None)
        self._lib.repro_root_kernel(*self._tree_args(pk, packed), lo, hi, target)

    def internal_kernel(self, pk, packed, level, lo, hi, out, slot=None) -> None:
        self._lib.repro_internal_kernel(
            *self._tree_args(pk, packed), level, lo, hi,
            *self._target(pk, packed, level, out, slot))

    def leaf_kernel(self, pk, packed, lo, hi, out, slot=None) -> None:
        self._lib.repro_leaf_kernel(
            *self._tree_args(pk, packed), lo, hi,
            *self._target(pk, packed, pk.nmodes - 1, out, slot))

    @staticmethod
    def _target(pk, packed, level, out, slot):
        """``(slot, out, nout)`` pointers for a kernel adding into ``out``.

        C indexes without bounds checks, so the shapes are checked here:
        without ``slot``, ``out`` must cover every fid of ``level``; with
        it, the plan that built ``slot`` keeps its entries below ``nout``.
        """
        if (out.ndim != 2 or out.shape[1] != packed.shape[1]
                or (slot is None and out.shape[0] < pk.level_dims[level])):
            raise ValueError(
                f"cext kernel output {out.shape} does not cover "
                f"{pk.level_dims[level]} rows of rank {packed.shape[1]}"
            )
        ptr = None if slot is None else _p(slot, INDEX_DTYPE)
        return ptr, _p(out, VALUE_DTYPE), out.shape[0]

    def segment_sum(self, x, starts, out) -> None:
        self._lib.repro_segment_sum(
            _p(x, VALUE_DTYPE), x.shape[0], _p(starts, INDEX_DTYPE),
            starts.shape[0], x.shape[1], _p(out, VALUE_DTYPE))

    def gather_segment_sum(self, x, order, starts, out) -> None:
        self._lib.repro_gather_segment_sum(
            _p(x, VALUE_DTYPE), _p(order, INDEX_DTYPE), order.shape[0],
            _p(starts, INDEX_DTYPE), starts.shape[0], x.shape[1],
            _p(out, VALUE_DTYPE))

    def ata(self, a, out) -> None:
        self._lib.repro_ata(
            _p(a, VALUE_DTYPE), a.shape[0], a.shape[1], _p(out, VALUE_DTYPE))

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
