"""Per-layer timers for the traced run, kept outside the program.

:class:`Tracer` replaces, for the duration of a ``with`` block, the names
``repro.core.cpals.cp_als`` calls into each layer (and the few entry
points below them) with timing wrappers, and restores the originals on
exit.  Nothing under ``src/repro`` changes; an untraced run executes the
program exactly as shipped.

Every wrapped call is recorded as a span ``(scope, name, start, end)``.
A scope is one ``cp_als`` call; scope 0 is everything outside a solve
(tensor load and backend start-up in the daemon).  Lock acquires are too
frequent for one span each, so their wait time and count are summed per
scope instead.  :func:`layer_metrics` reduces one scope to the per-layer
numbers the benchmark reports.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict

from repro.backend.registry import Backend
from repro.core import cpals
from repro.mttkrp import csf_kernels
from repro.mttkrp.scatter import RowScatter
from repro.runtime.locks import AtomicLockPool, SyncLockPool
from repro.runtime.tasking import TaskingLayer
from repro.serve import engine as serve_engine

#: Metrics of the layers ``cp_als`` calls directly, on the solving thread.
#: A solve's wall time minus their sum is its ``core.unattributed_s``.
TOP_LEVEL = ("csf.build_s", "mttkrp.s", "linalg.inverse_s", "linalg.ata_s",
             "linalg.norm_s", "linalg.fit_s", "resilience.checkpoint_s")

_CPALS_NAMES = {
    "build_csf_set": "csf.build",
    "solve_normal_equations": "linalg.inverse",
    "gram": "linalg.ata",
    "hadamard_gram": "linalg.ata",
    "normalize_columns": "linalg.norm",
    "calc_fit": "linalg.fit",
    "save_checkpoint": "resilience.checkpoint",
}
# contribution kernels: the compiled backend runs inside these, the numpy
# backend's vectorised tree walk is these
_KERNELS = ("root_range_vectorized", "leaf_range_vectorized",
            "leaf_range_sorted", "internal_range_vectorized")
_SCATTERS = ("scatter_accumulate", "scatter_assign", "scatter_mutex")


class Tracer:
    """Context manager that installs the layer timers while active."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: list[tuple[int, str, float, float]] = []
        self.sums: dict[tuple[int, str], float] = defaultdict(float)
        self.scope = 0
        self._nscopes = 0
        self._setup_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _span(self, name: str, t0: float, t1: float) -> None:
        with self._lock:
            self.spans.append((self.scope, name, t0, t1))

    def _add(self, name: str, value: float) -> None:
        with self._lock:
            self.sums[(self.scope, name)] += value

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._span(name, t0, time.perf_counter())
        return wrapper

    # -- wrappers with extra accounting ---------------------------------
    def _wrap_solve(self, fn):
        def cp_als(*args, **kwargs):
            with self._lock:
                self._nscopes += 1
                self.scope = self._nscopes
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                self._span("solve", t0, time.perf_counter())
                stats = result.engine_stats
                self._add("runtime.lock_acquires", result.counters.lock_acquires)
                self._add("runtime.lock_contended", result.counters.lock_contended)
                self._add("runtime.threads_created", stats.get("threads_created", 0))
                self._add("mttkrp.plan_bytes", stats.get("plan_bytes", 0))
            finally:
                with self._lock:
                    self.scope = 0
            return result
        return cp_als

    def _wrap_mttkrp(self, fn):
        def mttkrp_csf(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out, info = fn(*args, **kwargs)
            finally:
                self._span("mttkrp", t0, time.perf_counter())
            self._add("mttkrp.locked_calls", int(info.used_locks))
            if info.plan_hit is not None:
                self._add("mttkrp.plan_hits", int(info.plan_hit))
                self._add("mttkrp.plan_lookups", 1)
            return out, info
        return mttkrp_csf

    def _wrap_acquire(self, fn):
        def acquire(pool, lock_id):
            t0 = time.perf_counter()
            fn(pool, lock_id)
            self._add("runtime.lock_wait", time.perf_counter() - t0)
        return acquire

    def _wrap_coforall(self, fn):
        # dispatch cost = the coforall's wall time beyond its slowest task
        def coforall(layer, ntasks, body):
            if ntasks <= 1:
                return fn(layer, ntasks, body)
            busy = [0.0] * ntasks

            def timed_body(tid):
                t0 = time.perf_counter()
                try:
                    body(tid)
                finally:
                    busy[tid] = time.perf_counter() - t0

            t0 = time.perf_counter()
            fn(layer, ntasks, timed_body)
            wall = time.perf_counter() - t0
            self._add("runtime.dispatch", max(wall - max(busy), 0.0))
            self._add("runtime.dispatches", 1)
        return coforall

    def _wrap_setup(self, name: str, fn):
        # backend start-up and tensor loads count only outside a solve, and
        # only the outermost call: resolve_backend runs ensure_ready itself
        def wrapper(*args, **kwargs):
            if self.scope or self._setup_depth:
                return fn(*args, **kwargs)
            self._setup_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._span(name, t0, time.perf_counter())
                self._setup_depth -= 1
        return wrapper

    # -- install / restore ----------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        self._patch(cpals, "cp_als", self._wrap_solve(cpals.cp_als))
        self._patch(serve_engine, "cp_als", self._wrap_solve(serve_engine.cp_als))
        self._patch(cpals, "mttkrp_csf", self._wrap_mttkrp(cpals.mttkrp_csf))
        for attr, name in _CPALS_NAMES.items():
            self._patch(cpals, attr, self._timed(name, getattr(cpals, attr)))
        for attr in _KERNELS:
            self._patch(csf_kernels, attr,
                        self._timed("backend.kernel", getattr(csf_kernels, attr)))
        self._patch(csf_kernels, "array_reduce_buffers",
                    self._timed("mttkrp.scatter", csf_kernels.array_reduce_buffers))
        for attr in _SCATTERS:
            self._patch(RowScatter, attr,
                        self._timed("mttkrp.scatter", getattr(RowScatter, attr)))
        for cls in (AtomicLockPool, SyncLockPool):
            self._patch(cls, "acquire", self._wrap_acquire(cls.acquire))
        self._patch(TaskingLayer, "coforall", self._wrap_coforall(TaskingLayer.coforall))
        self._patch(serve_engine, "load_tns",
                    self._wrap_setup("tensor.load", serve_engine.load_tns))
        self._patch(serve_engine, "resolve_backend",
                    self._wrap_setup("backend.ready", serve_engine.resolve_backend))
        self._patch(Backend, "ensure_ready",
                    self._wrap_setup("backend.ready", Backend.ensure_ready))
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- export -----------------------------------------------------------
    def export(self) -> dict:
        """JSON-safe dump of every span and per-scope sum."""
        with self._lock:
            return {
                "spans": [list(s) for s in self.spans],
                "sums": [[scope, name, value]
                         for (scope, name), value in self.sums.items()],
            }


def _by_scope(dump: dict) -> tuple[dict, dict]:
    # span seconds per (scope, name); span counts land in sums as "<name>#"
    times: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    sums: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for scope, name, t0, t1 in dump["spans"]:
        times[scope][name] += t1 - t0
        sums[scope][name + "#"] += 1
    for scope, name, value in dump["sums"]:
        sums[scope][name] += value
    return times, sums


def setup_metrics(dump: dict) -> dict[str, float]:
    """Tensor-load and backend-ready seconds recorded outside any solve."""
    times, _ = _by_scope(dump)
    return {"tensor.load_s": times[0]["tensor.load"],
            "backend.ready_s": times[0]["backend.ready"]}


def layer_metrics(dump: dict) -> list[dict[str, float]]:
    """One dict of per-layer numbers per traced solve, in solve order."""
    times, sums = _by_scope(dump)
    out = []
    for scope in sorted(s for s in times if s > 0):
        t, c = times[scope], sums[scope]
        lookups = c["mttkrp.plan_lookups"]
        m = {
            "trace.solve_s": t["solve"],
            "csf.build_s": t["csf.build"],
            "mttkrp.s": t["mttkrp"],
            "backend.kernel_s": t["backend.kernel"],
            "mttkrp.scatter_s": t["mttkrp.scatter"],
            "mttkrp.plan_hit_ratio": c["mttkrp.plan_hits"] / lookups if lookups else 0.0,
            "mttkrp.plan_bytes": c["mttkrp.plan_bytes"],
            "mttkrp.locked_calls": c["mttkrp.locked_calls"],
            "runtime.lock_acquires": c["runtime.lock_acquires"],
            "runtime.lock_contended": c["runtime.lock_contended"],
            "runtime.lock_wait_s": c["runtime.lock_wait"],
            "runtime.dispatch_s": c["runtime.dispatch"],
            "runtime.dispatches": c["runtime.dispatches"],
            "runtime.threads_created": c["runtime.threads_created"],
            "linalg.inverse_s": t["linalg.inverse"],
            "linalg.ata_s": t["linalg.ata"],
            "linalg.norm_s": t["linalg.norm"],
            "linalg.fit_s": t["linalg.fit"],
            "resilience.checkpoint_s": t["resilience.checkpoint"],
            "resilience.checkpoints": c["resilience.checkpoint#"],
        }
        m["core.unattributed_s"] = m["trace.solve_s"] - sum(m[k] for k in TOP_LEVEL)
        out.append(m)
    return out


def median_layers(per_solve: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer number over the traced solves."""
    return {k: statistics.median(d[k] for d in per_solve) for k in per_solve[0]}
