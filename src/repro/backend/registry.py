"""Backend registry, selection and per-call dispatch.

A **backend** supplies compiled implementations of the numerical hot spots
— the three CSF MTTKRP range kernels, the segment-sum scatter primitives
and symmetric AᵀA, optionally the locked mutex-pool scatter — behind a
uniform interface, mirroring how Genten
(Phipps & Kolda) ports the same sparse kernels across execution spaces
behind one dispatch layer.  Registered backends:

``numpy``
    The reference: the existing vectorized NumPy/SciPy code paths run
    untouched.  Always available.
``numba``
    ``@njit(nogil=True, cache=True)`` compilations of
    :mod:`repro.backend.kernels_ref`.  Available when the optional
    ``numba`` extra is installed (``pip install 'repro[numba]'``).
``cext``
    The same kernels as C, compiled on first use with the system C
    compiler and loaded through :mod:`ctypes` (which releases the GIL for
    the call's duration), plus the locked mutex-pool scatter.  Available
    when a C compiler is present.

Selection precedence (docs/BACKENDS.md): an explicit API argument beats
the ``REPRO_BACKEND`` environment variable beats the library default
(``numpy`` — the CLI passes ``--backend``, default ``auto``, explicitly).
``auto`` picks the first available of ``numba`` > ``cext`` > ``numpy`` and
*silently* falls back; naming an unavailable backend explicitly raises
:class:`BackendUnavailableError` with an actionable message instead.
``REPRO_BACKEND_DISABLE`` (comma-separated names) masks backends for
deterministic fallback testing.

Because compiled kernels release the GIL, task bodies running under the
existing :class:`~repro.runtime.pool.WorkerPool` stop serializing on the
interpreter; the pool's dispatch protocol is unchanged.  That buys no
reliable wall-clock scaling: on the 2-core VM stamped in
``benchmarks/BENCH_backend.json``, cext sweeps took 23.4 / 15.2 / 16.3 ms
at 1 / 2 / 4 tasks in the committed record and 27.8 / 47.4 / 39.3 ms in
another run.

Compile cost is accounted separately: every backend's one-time preparation
runs under a ``backend.compile`` observe span (plus a
``backend.compile_seconds`` counter), so traces and benchmarks never
attribute JIT warm-up to the kernels themselves.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Sequence

import numpy as np

from repro._util import VALUE_DTYPE
from repro.backend.packing import PackedTree, pack_factors
from repro.observe import spans as _obs

__all__ = [
    "Backend",
    "BackendCall",
    "BackendUnavailableError",
    "available_backends",
    "canonical_factors",
    "get_backend",
    "prepare_call",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]

#: ``auto`` preference order, best first.
AUTO_ORDER: tuple[str, ...] = ("numba", "cext", "numpy")

#: Environment variable naming the default backend (overridden by an
#: explicit API argument; ``auto`` allowed).
ENV_BACKEND = "REPRO_BACKEND"

#: Comma-separated backend names to treat as unavailable (test hook for
#: exercising fallback deterministically).
ENV_DISABLE = "REPRO_BACKEND_DISABLE"


class BackendUnavailableError(RuntimeError):
    """An explicitly requested backend cannot be used on this system."""


class Backend:
    """One execution backend: compiled kernels plus scatter/linalg primitives.

    Subclasses set :attr:`compiled` and implement :meth:`_prepare` plus the
    kernel entry points.  The ``numpy`` reference backend keeps
    ``compiled=False``: dispatch sites seeing it run the existing
    vectorized code paths unchanged, which *is* the reference
    implementation.
    """

    #: Registry name (``"numpy"``, ``"numba"``, ``"cext"``).
    name: str = "abstract"
    #: True when the packed-kernel path should replace the NumPy tree walk.
    compiled: bool = False
    #: True when the backend runs a task's whole mutex-pool scatter in one
    #: call (:meth:`make_locks`, :meth:`free_locks`, :meth:`scatter_locked`);
    #: without it the locked scatter stays the Python loop over pool locks.
    locked_scatter: bool = False

    def __init__(self) -> None:
        self._ready = not self.compiled
        #: One-time preparation cost in seconds (0.0 for ``numpy``).
        self.compile_seconds = 0.0

    # ------------------------------------------------------------------
    def ensure_ready(self) -> None:
        """Compile/load the kernels once, under a ``backend.compile`` span.

        Idempotent and cheap after the first call.  Preparation ends with a
        smoke check on a tiny synthetic tree (:func:`_warmup_check`), so a
        miscompiled backend fails loudly here rather than producing wrong
        numbers later.
        """
        if self._ready:
            return
        t0 = time.perf_counter()
        with _obs.span("backend.compile", backend=self.name):
            self._prepare()
            _warmup_check(self)
        self.compile_seconds = time.perf_counter() - t0
        _obs.count("backend.compile")
        _obs.count("backend.compile_seconds", self.compile_seconds)
        self._ready = True

    def _prepare(self) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError

    # -- packed MTTKRP range kernels (compiled backends only) ----------
    def root_kernel(self, pk: PackedTree, packed, lo: int, hi: int, out) -> None:
        raise NotImplementedError

    def internal_kernel(self, pk: PackedTree, packed, level: int,
                        lo: int, hi: int, out) -> None:
        raise NotImplementedError

    def leaf_kernel(self, pk: PackedTree, packed, lo: int, hi: int, out) -> None:
        raise NotImplementedError

    # -- scatter / linalg primitives (compiled backends only) ----------
    def segment_sum(self, x, starts, out) -> None:
        raise NotImplementedError

    def gather_segment_sum(self, x, order, starts, out) -> None:
        raise NotImplementedError

    def ata(self, a, out) -> None:
        raise NotImplementedError

    # -- mutex-pool scatter (``locked_scatter`` backends only) ---------
    def make_locks(self, size: int, kind: str) -> np.ndarray:
        """A byte buffer of ``size`` initialised locks of pool ``kind``
        (``"atomic"`` or ``"sync"``)."""
        raise NotImplementedError

    def free_locks(self, locks: np.ndarray, kind: str) -> None:
        """Release what :meth:`make_locks` initialised."""
        raise NotImplementedError

    def scatter_locked(self, out, reduced, out_rows, bucket_bounds, bucket_ids,
                       locks, kind: str, sleep: bool, counts) -> None:
        """``out[out_rows[s:e]] += reduced[s:e]`` for every bucket ``k``
        (``s, e = bucket_bounds[k:k+2]``) while holding lock
        ``bucket_ids[k]``; ``counts`` receives the acquires, contended
        acquires, yields and sleeps."""
        raise NotImplementedError


class BackendCall:
    """One MTTKRP invocation's backend state: packed tree + packed factors.

    Built by :func:`prepare_call` on the dispatching thread; the per-task
    ``*_contribs`` methods then run the GIL-releasing kernels from pool
    workers, writing into per-task workspace buffers.
    """

    __slots__ = ("backend", "pk", "packed")

    def __init__(self, backend: Backend, pk: PackedTree, packed: np.ndarray):
        self.backend = backend
        self.pk = pk
        self.packed = packed

    def _out(self, nrows: int, ws, tag):
        return ws.buf(tag, (nrows, self.packed.shape[1]), VALUE_DTYPE)

    def root_w(self, lo: int, hi: int, ws) -> np.ndarray:
        """Per-root-node subtree products for slices ``[lo, hi)``."""
        out = self._out(hi - lo, ws, ("backend", "root"))
        self.backend.root_kernel(self.pk, self.packed, lo, hi, out)
        return out

    def internal_contribs(self, level: int, lo: int, hi: int,
                          nnodes: int, ws) -> np.ndarray:
        """Per-``level``-node contributions under root slices ``[lo, hi)``."""
        out = self._out(nnodes, ws, ("backend", "internal", level))
        self.backend.internal_kernel(self.pk, self.packed, level, lo, hi, out)
        return out

    def leaf_contribs(self, lo: int, hi: int, nleaves: int, ws) -> np.ndarray:
        """Per-nonzero contributions under root slices ``[lo, hi)``."""
        out = self._out(nleaves, ws, ("backend", "leaf"))
        self.backend.leaf_kernel(self.pk, self.packed, lo, hi, out)
        return out


def prepare_call(backend: Backend, ctx, tree, factors: Sequence[np.ndarray]) -> BackendCall:
    """Build the :class:`BackendCall` for one MTTKRP on ``tree``.

    The packed tree comes from ``ctx``, the cache of the set owning ``tree``
    (built once per tree); the packed factor matrix is refreshed into a reused arena
    buffer every call.  ``factors`` must already be canonical.
    """
    backend.ensure_ready()
    pk = ctx.packed_tree(tree)
    packed = pack_factors(pk, tree, factors, ctx.pack_workspace(tree, backend.name))
    return BackendCall(backend, pk, packed)


def canonical_factors(factors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Coerce factor matrices to the backend-boundary canonical form.

    Every backend receives C-contiguous ``float64`` matrices: float32 or
    Fortran-ordered/non-contiguous inputs are copied (value-preserving —
    ``float32 → float64`` is exact, so results are identical to NumPy's
    implicit upcasting), and anything non-2-D is rejected.  Applied
    *identically for all backends* at the dispatch boundary, so backend
    choice can never change how an exotic input is interpreted.
    """
    canon = []
    for m, f in enumerate(factors):
        arr = np.asarray(f)
        if arr.ndim != 2:
            raise ValueError(f"factor {m} must be 2-D, got shape {arr.shape}")
        canon.append(np.ascontiguousarray(arr, dtype=VALUE_DTYPE))
    return canon


# ======================================================================
# registry
# ======================================================================
_FACTORIES: dict[str, Callable[[], Backend]] = {}
_INSTANCES: dict[str, Backend] = {}
_PROBED_UNAVAILABLE: dict[str, str] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register ``factory`` under ``name``.

    The factory is called lazily (imports of optional dependencies happen
    inside it) and must raise :class:`BackendUnavailableError` when the
    backend cannot be used on this system.
    """
    _FACTORIES[name] = factory


def registered_backends() -> list[str]:
    """Every registered backend name (available or not), ``auto`` order
    first, extras after."""
    ordered = [n for n in AUTO_ORDER if n in _FACTORIES]
    return ordered + sorted(set(_FACTORIES) - set(ordered))


def _disabled() -> set[str]:
    raw = os.environ.get(ENV_DISABLE, "")
    return {part.strip() for part in raw.split(",") if part.strip()}


def get_backend(name: str) -> Backend:
    """The backend instance for ``name``; raises
    :class:`BackendUnavailableError` when it cannot be provided."""
    if name in _disabled():
        raise BackendUnavailableError(
            f"backend {name!r} is disabled via {ENV_DISABLE}"
        )
    inst = _INSTANCES.get(name)
    if inst is not None:
        return inst
    factory = _FACTORIES.get(name)
    if factory is None:
        raise BackendUnavailableError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(registered_backends())}"
        )
    cached_reason = _PROBED_UNAVAILABLE.get(name)
    if cached_reason is not None:
        raise BackendUnavailableError(cached_reason)
    try:
        inst = factory()
    except BackendUnavailableError as exc:
        _PROBED_UNAVAILABLE[name] = str(exc)
        raise
    _INSTANCES[name] = inst
    return inst


def available_backends() -> list[str]:
    """Names of backends usable right now, in ``auto`` preference order.

    Probes each factory once per process (failures are cached), honoring
    ``REPRO_BACKEND_DISABLE``.  Always contains at least ``"numpy"``.
    """
    usable = []
    for name in registered_backends():
        try:
            get_backend(name)
        except BackendUnavailableError:
            continue
        usable.append(name)
    return usable


def resolve_backend(choice: "str | Backend | None" = None) -> Backend:
    """Resolve a backend selection to an instance.

    ``choice`` may be a :class:`Backend` (returned as-is), a name,
    ``"auto"``, or ``None``.  ``None`` defers to ``$REPRO_BACKEND``, then
    to the library default ``numpy`` (the CLI layer passes its ``--backend``
    value — default ``auto`` — explicitly).  ``auto`` silently falls back
    through :data:`AUTO_ORDER`; a concrete name that is unavailable raises
    :class:`BackendUnavailableError`.
    """
    if isinstance(choice, Backend):
        return choice
    if choice is None:
        choice = os.environ.get(ENV_BACKEND) or "numpy"
    if choice == "auto":
        last_exc: BackendUnavailableError | None = None
        for name in AUTO_ORDER:
            try:
                return get_backend(name)
            except BackendUnavailableError as exc:
                last_exc = exc
        raise BackendUnavailableError(
            f"no backend available (tried {', '.join(AUTO_ORDER)}): {last_exc}"
        )  # pragma: no cover - numpy is always registered
    return get_backend(choice)


# ======================================================================
# warm-up smoke check
# ======================================================================
def _warmup_check(backend: Backend) -> None:
    """Exercise every kernel of a freshly prepared backend on a tiny
    order-3 tree and compare against directly computed expectations.

    Doubles as the Numba warm-up: the flat-array signatures mean each
    kernel compiles exactly once here and is then hot for tensors of any
    order.  A mismatch means the backend miscompiled — better an exception
    at ``ensure_ready`` than silently wrong factor matrices.
    """
    from repro.csf.tree import CsfTensor
    from repro.mttkrp.scatter import Workspace

    # 1 root slice -> 1 fiber -> 2 leaves; dims (in tree order) 1, 1, 2.
    tree = CsfTensor(
        dims=(1, 1, 2),
        dim_perm=(0, 1, 2),
        fptr=[np.array([0, 1], dtype=np.int64), np.array([0, 2], dtype=np.int64)],
        fids=[np.array([0], dtype=np.int64), np.array([0], dtype=np.int64),
              np.array([0, 1], dtype=np.int64)],
        values=np.array([1.5, -2.0]),
    )
    pk = PackedTree(tree)
    rng = np.random.default_rng(7)
    factors = canonical_factors([rng.random((d, 3)) for d in tree.dims])
    packed = pack_factors(pk, tree, factors, Workspace())
    f0, f1, f2 = factors

    out = np.empty((1, 3))
    backend.root_kernel(pk, packed, 0, 1, out)
    expect_root = f1[0] * (1.5 * f2[0] - 2.0 * f2[1])
    _expect(backend, "root_kernel", out[0], expect_root)

    backend.internal_kernel(pk, packed, 1, 0, 1, out)
    _expect(backend, "internal_kernel", out[0], f0[0] * (1.5 * f2[0] - 2.0 * f2[1]))

    out2 = np.empty((2, 3))
    backend.leaf_kernel(pk, packed, 0, 1, out2)
    prow = f0[0] * f1[0]
    _expect(backend, "leaf_kernel", out2, np.stack([1.5 * prow, -2.0 * prow]))

    x = rng.random((5, 3))
    starts = np.array([0, 2, 2], dtype=np.int64)
    seg = np.empty((3, 3))
    backend.segment_sum(x, starts, seg)
    _expect(backend, "segment_sum",
            seg, np.stack([x[0] + x[1], np.zeros(3), x[2] + x[3] + x[4]]))

    order = np.array([4, 3, 2, 1, 0], dtype=np.int64)
    backend.gather_segment_sum(x, order, starts, seg)
    _expect(backend, "gather_segment_sum",
            seg, np.stack([x[4] + x[3], np.zeros(3), x[2] + x[1] + x[0]]))

    g = np.empty((3, 3))
    backend.ata(x, g)
    _expect(backend, "ata", g, x.T @ x)

    if backend.locked_scatter:
        from repro.mttkrp.scatter import RowScatter
        from repro.runtime.locks import make_mutex_pool

        # both leaves hash to the one lock of a size-1 pool
        leaves = RowScatter(tree.fids[2], pool_size=1)
        acc = np.empty((2, 3))
        for kind in ("atomic", "sync"):
            pool = make_mutex_pool(kind, size=1)
            acc.fill(1.0)
            leaves.scatter_mutex(acc, out2, pool, backend=backend,
                                 locks=pool.c_locks(backend))
            _expect(backend, f"scatter_locked[{kind}]", acc, 1.0 + out2)
            _expect(backend, f"scatter_locked[{kind}] acquires",
                    pool.counters.lock_acquires, 1)


def _expect(backend: Backend, kernel: str, got, want) -> None:
    if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
        raise BackendUnavailableError(
            f"backend {backend.name!r} failed its {kernel} self-check "
            f"(got {np.asarray(got).ravel()}, want {np.asarray(want).ravel()}); "
            "refusing to use a miscompiled backend"
        )
