"""The compiled mutex-pool scatter (``cext``'s ``repro_scatter_locked``).

On a backend with ``locked_scatter`` and no sanitizer installed, each
task's whole bucket loop runs in C over the pool's C lock array.  These
tests pin down that it really excludes (one shared lock, many tasks,
repeated calls), that it keeps the lock traffic of the Python loop, that
the Python locks are bypassed on that path and used again under the
sanitizer, and that a single task's result and counters are bit-identical
to the Python loop's.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.backend import resolve_backend
from repro.backend.cext import _compiler
from repro.csf.build import build_csf_set
from repro.mttkrp.reference import dense_mttkrp_reference
from repro.mttkrp.scatter import RowScatter
from repro.mttkrp.variants import mttkrp_csf
from repro.probe import Probe
from repro.runtime.env import ChapelEnv
from repro.runtime.locks import AtomicLockPool, SyncLockPool, make_mutex_pool
from repro.sanitize.detector import sanitizing
from repro.tensor.generate import random_tensor

# skip only without a compiler: a build that fails its self-check must fail
pytestmark = pytest.mark.skipif(
    _compiler() is None, reason="no C compiler for the cext backend"
)

POOLS = [("atomic", "qthreads"), ("sync", "qthreads"), ("sync", "fifo")]


@pytest.fixture(scope="module")
def case():
    # small dims: every non-root mode's rows overlap across tasks
    tensor = random_tensor((12, 9, 7), 500, seed=4)
    rng = np.random.default_rng(8)
    factors = [rng.random((d, 5)) for d in tensor.dims]
    refs = [dense_mttkrp_reference(tensor, factors, m) for m in range(tensor.nmodes)]
    return tensor, factors, refs


def _locked_modes(csf_set):
    return [m for m in range(csf_set.nmodes) if csf_set.tree_for_mode(m)[1] != "root"]


def _buckets(csf_set, mode, ntasks):
    """Σ over tasks of the lock buckets each task's plan takes."""
    tree, _ = csf_set.tree_for_mode(mode)
    plan, _ = csf_set.mttkrp_context.plan(tree, tree.level_of_mode(mode), ntasks, 1)
    return sum(sc.bucket_ids.size for sc in plan.scatters if sc.nrows_in)


class _CountCalls:
    """Replaces a method with a wrapper that counts its calls (from any
    thread)."""

    def __init__(self, monkeypatch, owner, name, keep=lambda *a: True):
        self.calls = 0
        mutex = threading.Lock()
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if keep(*args):
                with mutex:
                    self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("kind,layer", POOLS)
@pytest.mark.parametrize("ntasks", [2, 4])
def test_one_shared_lock_excludes(case, monkeypatch, kind, layer, ntasks):
    tensor, factors, refs = case
    csf_set = build_csf_set(tensor)
    env = ChapelEnv(num_tasks=ntasks, tasking_layer=layer)
    acquires = [_CountCalls(monkeypatch, cls, "acquire")
                for cls in (AtomicLockPool, SyncLockPool)]
    for mode in _locked_modes(csf_set):
        pool = make_mutex_pool(kind, size=1, env=env)
        for _ in range(50):
            out, info = mttkrp_csf(csf_set, factors, mode, env=env, pool=pool,
                                   force_locks=True, backend="cext")
            assert info.used_locks
            np.testing.assert_allclose(out, refs[mode], rtol=1e-10, atol=1e-12)
        assert pool.counters.lock_acquires == 50 * _buckets(csf_set, mode, ntasks)
    assert [a.calls for a in acquires] == [0, 0]


@pytest.mark.parametrize("kind,layer", POOLS)
def test_concurrent_long_critical_sections_lose_no_update(kind, layer):
    # Four threads (more than this host's cores), each holding the one lock
    # while it adds 1.0 to the same eight doubles 200k times: any overlap
    # without exclusion loses updates, and ctypes releases the GIL, so the
    # threads do overlap.
    bk = resolve_backend("cext")
    bk.ensure_ready()
    pool = make_mutex_pool(kind, size=1, env=ChapelEnv(tasking_layer=layer))
    locks = pool.c_locks(bk)
    nthreads, n, calls = 4, 200_000, 20
    out = np.zeros((1, 8))
    rows = np.zeros(n, dtype=np.int64)
    ones = np.ones((n, 8))
    bounds = np.array([0, n], dtype=np.int64)
    ids = np.zeros(1, dtype=np.int64)
    acquires = [0] * nthreads

    def task(tid):
        counts = np.empty(4, dtype=np.int64)
        for _ in range(calls):
            bk.scatter_locked(out, ones, rows, bounds, ids, locks, pool.kind,
                              pool.sleeps, counts)
            acquires[tid] += int(counts[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=task, args=(t,)) for t in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert acquires == [calls] * nthreads
    np.testing.assert_array_equal(out, np.full((1, 8), float(nthreads * n * calls)))


@pytest.mark.parametrize("kind,layer", POOLS)
def test_sanitizer_runs_take_the_python_locks(case, monkeypatch, kind, layer):
    tensor, factors, refs = case
    csf_set = build_csf_set(tensor)
    env = ChapelEnv(num_tasks=2, tasking_layer=layer)
    mode = _locked_modes(csf_set)[0]
    pool = make_mutex_pool(kind, size=1, env=env)
    acquire = _CountCalls(monkeypatch, type(pool), "acquire")
    writes = _CountCalls(monkeypatch, Probe, "array_write",
                         keep=lambda probe, array, rows, site:
                         site == "RowScatter.scatter_mutex")
    with sanitizing() as san:
        out, _ = mttkrp_csf(csf_set, factors, mode, env=env, pool=pool,
                            force_locks=True, backend="cext")
    report = san.report()
    assert report.ok, report.render()
    np.testing.assert_allclose(out, refs[mode], rtol=1e-10, atol=1e-12)
    assert acquire.calls == pool.counters.lock_acquires == _buckets(csf_set, mode, 2)
    assert writes.calls == acquire.calls
    assert report.stats["lock_events"] > 0


@pytest.mark.parametrize("kind,layer", POOLS)
@pytest.mark.parametrize("pool_size", [1, 3, 1024])
def test_single_task_matches_python_loop_bit_for_bit(kind, layer, pool_size):
    bk = resolve_backend("cext")
    bk.ensure_ready()
    env = ChapelEnv(num_tasks=1, tasking_layer=layer)
    rng = np.random.default_rng(pool_size)
    rows = rng.integers(0, 40, 300)
    contribs = rng.standard_normal((300, 6))
    start = rng.standard_normal((40, 6))
    sc = RowScatter(rows, pool_size=pool_size)
    results = []
    for compiled in (False, True):
        pool = make_mutex_pool(kind, size=pool_size, env=env)
        out = start.copy()
        locks = pool.c_locks(bk) if compiled else None
        sc.scatter_mutex(out, contribs, pool, backend=bk, locks=locks)
        results.append((out, pool.counters.snapshot()))
    (py_out, py_counts), (c_out, c_counts) = results
    np.testing.assert_array_equal(c_out, py_out)
    assert c_counts == py_counts
    assert c_counts["lock_acquires"] == sc.bucket_ids.size


@pytest.mark.parametrize("pool_size,out_rows", [(4, 8), (8, 7)])
def test_plan_outside_pool_or_out_is_refused(pool_size, out_rows):
    bk = resolve_backend("cext")
    bk.ensure_ready()
    sc = RowScatter(np.arange(8), pool_size=8)
    pool = make_mutex_pool("atomic", size=pool_size)
    with pytest.raises(ValueError, match="scatter plan needs 8 locks and 8 rows"):
        sc.scatter_mutex(np.zeros((out_rows, 2)), np.ones((8, 2)), pool, backend=bk,
                         locks=pool.c_locks(bk))
    assert pool.counters.lock_acquires == 0
