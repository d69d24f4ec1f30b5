"""Plan-cache lifecycle tests for :class:`repro.mttkrp.scatter.MttkrpContext`.

Each :class:`~repro.csf.build.CsfSet` owns one context, keyed by
``id(tree)``; the context holds every tree it has seen, so an id cannot be
reused while its entries exist and the cache lives exactly as long as the
set.  These tests pin the ``stats()`` accounting, verify fresh sets and
runs never share plans, and check that a locked MTTKRP without ``pool=``
builds its own pool.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core.cpals import cp_als
from repro.core.options import CpalsOptions
from repro.csf.build import build_csf_set
from repro.mttkrp import variants
from repro.mttkrp.scatter import MttkrpContext
from repro.mttkrp.variants import mttkrp_csf
from repro.runtime.env import ChapelEnv
from repro.runtime.locks import make_mutex_pool
from repro.runtime.tasking import make_tasking_layer
from repro.tensor.generate import random_tensor


def _factors(tensor, rank=4, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.random((d, rank)) for d in tensor.dims]


def _sweep(csf_set, factors):
    return [
        mttkrp_csf(csf_set, factors, mode)[0].copy()
        for mode in range(csf_set.nmodes)
    ]


def test_cache_entries_accounting():
    tensor = random_tensor((10, 8, 6), 120, seed=0)
    csf_set = build_csf_set(tensor)
    ctx = csf_set.mttkrp_context
    assert ctx.stats()["plans"] == 0
    factors = _factors(tensor)
    _sweep(csf_set, factors)
    stats = ctx.stats()
    assert stats["plans"] > 0
    assert stats["plan_bytes"] > 0
    assert ctx.plan_misses == stats["plans"]
    assert ctx.plan_hits == 0
    # a second sweep is all hits: no new plans
    _sweep(csf_set, factors)
    assert ctx.stats()["plans"] == stats["plans"]
    assert ctx.plan_hits == ctx.plan_misses


def test_fresh_decompositions_do_not_retain_stale_plans():
    """Each CsfSet owns its context: new sets start with cold caches and
    never see another set's plans."""
    tensor_a = random_tensor((11, 9, 7), 140, seed=4)
    tensor_b = random_tensor((11, 9, 7), 140, seed=5)

    set_a = build_csf_set(tensor_a)
    _sweep(set_a, _factors(tensor_a))
    ctx_a = set_a.mttkrp_context
    assert ctx_a.plan_misses > 0 and ctx_a.plan_hits == 0

    set_b = build_csf_set(tensor_b)
    ctx_b = set_b.mttkrp_context
    assert ctx_b is not ctx_a
    assert ctx_b.stats()["plans"] == 0
    _sweep(set_b, _factors(tensor_b))
    # b built its own plans; a's cache is untouched
    assert ctx_b.plan_misses > 0 and ctx_b.plan_hits == 0
    assert ctx_a.stats()["plans"] == ctx_b.stats()["plans"]


def test_cp_als_runs_have_independent_plan_caches():
    tensor = random_tensor((12, 10, 8), 150, seed=6)
    opts = CpalsOptions(max_iterations=2, tolerance=0.0, seed=0)
    r1 = cp_als(tensor, 4, opts)
    r2 = cp_als(tensor, 4, opts)
    # identical runs: same hit/miss profile (no cross-run retention) and
    # identical numerics
    assert r1.engine_stats["plan_misses"] == r2.engine_stats["plan_misses"]
    assert r1.engine_stats["plan_hits"] == r2.engine_stats["plan_hits"]
    assert r1.engine_stats["plan_misses"] > 0
    np.testing.assert_allclose(r1.kruskal.weights, r2.kruskal.weights)
    for f1, f2 in zip(r1.kruskal.factors, r2.kruskal.factors):
        np.testing.assert_allclose(f1, f2)


def test_shared_context_survives_dropped_trees():
    """One context fed a new set's trees per generation, each set dropped
    and collected by the caller, must keep matching a fresh set: the
    context holds every tree it keyed, so a new tree can never reuse a
    dead tree's id and pick up its plan."""
    ctx = MttkrpContext()
    plans = 0
    for i in range(6):
        tensor = random_tensor((10, 8, 6), 120, seed=i)
        csf_set = build_csf_set(tensor)
        # share one context across generations (CsfSet is frozen)
        object.__setattr__(csf_set, "_mttkrp_context", ctx)
        factors = _factors(tensor, seed=i)
        got = _sweep(csf_set, factors)
        fresh = build_csf_set(random_tensor((10, 8, 6), 120, seed=i))
        for g, want in zip(got, _sweep(fresh, factors)):
            np.testing.assert_allclose(g, want)
        # every generation builds its own plans: none is a stale hit
        assert ctx.plan_hits == 0
        assert ctx.stats()["plans"] > plans
        plans = ctx.stats()["plans"]
        del tensor, csf_set, fresh
        gc.collect()


@pytest.mark.parametrize("kind", ["atomic", "sync"])
def test_locked_call_without_pool_builds_its_own(kind, monkeypatch):
    """``force_locks=True`` with no ``pool=`` matches an explicit pool in
    result and lock traffic, building one fresh pool per call."""
    tensor = random_tensor((12, 10, 8), 160, seed=8)
    factors = _factors(tensor)
    env = ChapelEnv(num_tasks=2, tasking_layer="fifo")
    layer = make_tasking_layer(env)
    built = []

    def recording_pool(*args, **kwargs):
        built.append(make_mutex_pool(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(variants, "make_mutex_pool", recording_pool)
    try:
        csf_set = build_csf_set(tensor)
        mode = next(m for m in range(tensor.nmodes)
                    if csf_set.tree_for_mode(m)[1] != "root")
        explicit = make_mutex_pool(kind, size=64, env=env)
        want, info = mttkrp_csf(csf_set, factors, mode, layer=layer,
                                pool=explicit, force_locks=True)
        assert info.used_locks and not built
        for _ in range(2):
            got, _ = mttkrp_csf(csf_set, factors, mode, layer=layer,
                                mutex_kind=kind, pool_size=64, force_locks=True)
            np.testing.assert_allclose(got, want)
        assert len(built) == 2 and built[0] is not built[1]
        for pool in built:
            assert pool.kind == kind and pool.size == 64
            assert pool.counters.lock_acquires == explicit.counters.lock_acquires > 0
    finally:
        layer.shutdown()


def test_workspace_buf_keyed_by_dtype():
    """The arena keys on (tag, dtype): reusing a tag with a second dtype
    must neither evict nor alias the first."""
    from repro.mttkrp.scatter import Workspace

    ws = Workspace()
    f64 = ws.buf("t", (4, 3), np.float64)
    f32 = ws.buf("t", (4, 3), np.float32)
    assert f64.dtype == np.float64 and f32.dtype == np.float32
    # both stay cached: asking again returns the same arrays, no thrash
    assert ws.buf("t", (4, 3), np.float64) is f64
    assert ws.buf("t", (4, 3), np.float32) is f32
    # shape change still reallocates within a dtype slot
    bigger = ws.buf("t", (5, 3), np.float64)
    assert bigger.shape == (5, 3)
    assert ws.buf("t", (4, 3), np.float32) is f32  # other slot untouched
