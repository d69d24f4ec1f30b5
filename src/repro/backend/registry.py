"""Backend table, selection and per-call dispatch.

A **backend** supplies compiled implementations of the numerical hot spots
— the three CSF MTTKRP range kernels and the gather segment sum,
optionally the locked mutex-pool scatter — behind a uniform interface,
mirroring how Genten (Phipps & Kolda) keeps one kernel source per
execution space behind one dispatch layer.  A range kernel is one call
per task that reads the CSF tree and the factor matrices in place and
adds straight into its output rows: the MTTKRP output, or a task's
compact buffer addressed through a ``slot`` array
(:mod:`repro.backend.kernels_ref` states the contract).  The two
backends:

``numpy``
    The reference: the vectorized NumPy/SciPy tree walk of
    :mod:`repro.mttkrp.csf_kernels`, meeting the same output contract
    through its plan's scatters.  Always available.
``cext``
    The kernels of :mod:`repro.backend.kernels_ref` as C, compiled on
    first use with the system C compiler and loaded through :mod:`ctypes`
    (which releases the GIL for the call's duration), plus the locked
    mutex-pool scatter.  Available when a C compiler is present.

Selection precedence (docs/BACKENDS.md): an explicit API argument beats
the ``REPRO_BACKEND`` environment variable beats the library default
(``numpy`` — the CLI passes ``--backend``, default ``auto``, explicitly).
``auto`` picks ``cext`` when it builds and otherwise *silently* falls back
to ``numpy``; naming an unavailable backend explicitly raises
:class:`BackendUnavailableError` with an actionable message instead.
``REPRO_BACKEND_DISABLE`` (comma-separated names) masks backends for
deterministic fallback testing.

Because compiled kernels release the GIL, task bodies running under the
existing :class:`~repro.runtime.pool.WorkerPool` stop serializing on the
interpreter; the pool's dispatch protocol is unchanged.  That buys no
reliable wall-clock scaling: on the 2-core VM stamped in
``benchmarks/BENCH_backend.json``, the committed record's cext sweeps
took 4.9 / 4.6 / 4.6 ms at 1 / 2 / 4 tasks.

Compile cost is accounted separately: every backend's one-time preparation
runs under a ``backend.compile`` observe span (plus a
``backend.compile_seconds`` counter), so traces and benchmarks never
attribute the compiler run to the kernels themselves.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

import numpy as np

from repro._util import VALUE_DTYPE
from repro.observe import spans as _obs

__all__ = [
    "Backend",
    "BackendCall",
    "BackendUnavailableError",
    "available_backends",
    "canonical_factors",
    "check_backend_name",
    "get_backend",
    "prepare_call",
    "resolve_backend",
]

#: Every backend name, in ``auto`` preference order, best first.
AUTO_ORDER: tuple[str, ...] = ("cext", "numpy")

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

    #: Backend name (``"numpy"``, ``"cext"``).
    name: str = "abstract"
    #: True when the range kernels should replace the NumPy tree walk.
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

    # -- MTTKRP range kernels (compiled backends only) ----------------
    # One pass per task that adds straight into the output rows, reading
    # the CSF ``tree`` and ``factors`` (tree-level order: ``factors[l]``
    # belongs to mode ``tree.dim_perm[l]``) in place; the contract is
    # spelled out in :mod:`repro.backend.kernels_ref`.
    def root_kernel(self, tree, factors, lo: int, hi: int, out) -> None:
        """Add root slices ``[lo, hi)``'s rows into the MTTKRP output ``out``."""
        raise NotImplementedError

    def internal_kernel(self, tree, factors, level: int,
                        lo: int, hi: int, out, slot=None) -> None:
        """Add the ``level`` nodes under root slices ``[lo, hi)`` into their
        rows of ``out``: the node's fid, or ``slot[i]`` of a compact buffer
        (zeroed first) when ``slot`` is given."""
        raise NotImplementedError

    def leaf_kernel(self, tree, factors, lo: int, hi: int, out,
                    slot=None) -> None:
        """Add the leaves under root slices ``[lo, hi)`` into their rows of
        ``out``, chosen as in :meth:`internal_kernel`."""
        raise NotImplementedError

    # -- scatter primitive (compiled backends only) ----------------------
    def gather_segment_sum(self, x, order, starts, out) -> None:
        """``out[s]`` = the sum of rows ``x[order[i]]`` for ``i`` in segment
        ``s`` (``starts[s]`` to the next start, the last to the end)."""
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


class NumpyBackend(Backend):
    """Always-available reference backend (the NumPy tree walk)."""

    name = "numpy"


class BackendCall:
    """One MTTKRP invocation's backend state: the tree and its factors.

    Built by :func:`prepare_call` on the dispatching thread; each pool
    worker then hands ``tree`` and ``factors`` (tree-level order) to the
    backend's range kernel for its slice range, which adds into the output
    (or the task's compact buffer) with the GIL released.
    """

    __slots__ = ("backend", "tree", "factors")

    def __init__(self, backend: Backend, tree, factors: list[np.ndarray]):
        self.backend = backend
        self.tree = tree
        self.factors = factors


def prepare_call(backend: Backend, tree, factors: Sequence[np.ndarray]) -> BackendCall:
    """Build the :class:`BackendCall` for one MTTKRP on ``tree``.

    ``factors`` (mode order) must already be canonical; the call holds
    them, not copies, in the tree's level order.
    """
    backend.ensure_ready()
    return BackendCall(backend, tree, [factors[m] for m in tree.dim_perm])


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
# selection
# ======================================================================
_INSTANCES: dict[str, Backend] = {}
_UNAVAILABLE: dict[str, str] = {}


def check_backend_name(name: "str | None") -> None:
    """Raise :class:`ValueError` unless ``name`` is ``None``, ``"auto"`` or
    one of :data:`AUTO_ORDER`.  Availability is checked at run time."""
    if name is not None and name != "auto" and name not in AUTO_ORDER:
        raise ValueError(
            f"unknown backend {name!r}; choose from {', '.join(AUTO_ORDER)} or 'auto'"
        )


def _disabled() -> set[str]:
    raw = os.environ.get(ENV_DISABLE, "")
    return {part.strip() for part in raw.split(",") if part.strip()}


def get_backend(name: str) -> Backend:
    """The ready backend instance for ``name``; raises
    :class:`BackendUnavailableError` when it cannot be provided.

    Each backend is built once per process; so is the reason it failed to
    build (cext without a C compiler).
    """
    if name in _disabled():
        raise BackendUnavailableError(
            f"backend {name!r} is disabled via {ENV_DISABLE}"
        )
    inst = _INSTANCES.get(name)
    if inst is not None:
        return inst
    if name not in AUTO_ORDER:
        raise BackendUnavailableError(
            f"unknown backend {name!r}; choose from {', '.join(AUTO_ORDER)}"
        )
    reason = _UNAVAILABLE.get(name)
    if reason is not None:
        raise BackendUnavailableError(reason)
    if name == "numpy":
        cls = NumpyBackend
    else:
        from repro.backend.cext import CextBackend as cls
    inst = cls()
    try:
        # raises BackendUnavailableError without a C compiler
        inst.ensure_ready()
    except BackendUnavailableError as exc:
        _UNAVAILABLE[name] = str(exc)
        raise
    _INSTANCES[name] = inst
    return inst


def available_backends() -> list[str]:
    """Names of backends usable right now, in ``auto`` preference order.

    Builds each backend once per process (failures are cached), honoring
    ``REPRO_BACKEND_DISABLE``.  Always contains ``"numpy"`` unless it is
    disabled.
    """
    usable = []
    for name in AUTO_ORDER:
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
        )  # pragma: no cover - numpy is always in the table
    return get_backend(choice)


# ======================================================================
# warm-up smoke check
# ======================================================================
def _warmup_check(backend: Backend) -> None:
    """Exercise every kernel of a freshly prepared backend on a tiny
    order-3 tree and compare against directly computed expectations: the
    range kernels' direct write and slot form at a rank that reaches every
    column-block width, the gather segment sum and, on a
    ``locked_scatter`` backend, the C lock loop.

    A mismatch means the backend miscompiled — better an exception at
    ``ensure_ready`` than silently wrong factor matrices.
    """
    from repro.csf.tree import CsfTensor

    # 1 root slice -> 1 fiber -> 2 leaves; dims (in tree order) 1, 1, 2.
    tree = CsfTensor(
        dims=(1, 1, 2),
        dim_perm=(0, 1, 2),
        fptr=[np.array([0, 1], dtype=np.int64), np.array([0, 2], dtype=np.int64)],
        fids=[np.array([0], dtype=np.int64), np.array([0], dtype=np.int64),
              np.array([0, 1], dtype=np.int64)],
        values=np.array([1.5, -2.0]),
    )
    rng = np.random.default_rng(7)
    # rank 3 is the R mod 4 tail alone; rank 61 takes one block of every
    # width the C kernels have: 32+16+8+4+1 columns
    for rank in (3, 61):
        factors = canonical_factors([rng.random((d, rank)) for d in tree.dims])
        leaves = _check_range_kernels(backend, tree, factors)

    x = rng.random((5, 3))
    starts = np.array([0, 2, 2], dtype=np.int64)
    seg = np.empty((3, 3))
    order = np.array([4, 3, 2, 1, 0], dtype=np.int64)
    backend.gather_segment_sum(x, order, starts, seg)
    _expect(backend, "gather_segment_sum",
            seg, np.stack([x[4] + x[3], np.zeros(3), x[2] + x[1] + x[0]]))

    if backend.locked_scatter:
        from repro.mttkrp.scatter import RowScatter
        from repro.runtime.locks import make_mutex_pool

        # both leaves hash to the one lock of a size-1 pool; the locked
        # loop adds the slot-form buffer, one row per leaf (rank 61 factors)
        scatter = RowScatter(tree.fids[2], pool_size=1)
        rows = np.empty_like(leaves)
        backend.leaf_kernel(tree, factors, 0, 1, rows, scatter.slots())
        acc = np.empty_like(leaves)
        for kind in ("atomic", "sync"):
            pool = make_mutex_pool(kind, size=1)
            acc.fill(1.0)
            scatter.scatter_mutex(acc, rows, pool, reduced=True, backend=backend,
                                  locks=pool.c_locks(backend))
            _expect(backend, f"scatter_locked[{kind}]", acc, leaves)
            _expect(backend, f"scatter_locked[{kind}] acquires",
                    pool.counters.lock_acquires, 1)


def _check_range_kernels(backend: Backend, tree, factors):
    """Check the range kernels' direct write and slot form on the warm-up
    tree (tree-level order is mode order) with ``factors``; return the
    leaf rows the leaf kernel added onto ones."""
    f0, f1, f2 = factors
    rank = f0.shape[1]
    at = f"[rank {rank}]"

    # direct write: each kernel adds into out[fid], on top of what is there
    out = np.ones((1, rank))
    backend.root_kernel(tree, factors, 0, 1, out)
    subtree = 1.5 * f2[0] - 2.0 * f2[1]
    _expect(backend, "root_kernel" + at, out[0], 1.0 + f1[0] * subtree)

    out.fill(1.0)
    backend.internal_kernel(tree, factors, 1, 0, 1, out)
    _expect(backend, "internal_kernel" + at, out[0], 1.0 + f0[0] * subtree)

    leaves = np.ones((2, rank))
    backend.leaf_kernel(tree, factors, 0, 1, leaves)
    prow = f0[0] * f1[0]
    _expect(backend, "leaf_kernel" + at, leaves,
            1.0 + np.stack([1.5 * prow, -2.0 * prow]))

    # slot form: the compact buffer is zeroed, then node i adds into slot[i]
    both = np.zeros(2, dtype=np.int64)
    out.fill(7.0)
    backend.leaf_kernel(tree, factors, 0, 1, out, both)
    _expect(backend, "leaf_kernel[slot]" + at, out[0], -0.5 * prow)
    out.fill(7.0)
    backend.internal_kernel(tree, factors, 1, 0, 1, out, both[:1])
    _expect(backend, "internal_kernel[slot]" + at, out[0], f0[0] * subtree)
    return leaves


def _expect(backend: Backend, kernel: str, got, want) -> None:
    if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
        raise BackendUnavailableError(
            f"backend {backend.name!r} failed its {kernel} self-check "
            f"(got {np.asarray(got).ravel()}, want {np.asarray(want).ravel()}); "
            "refusing to use a miscompiled backend"
        )
