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

from repro.backend import resolve_backend
from repro.backend.cext import _compiler
from repro.core.cpals import cp_als
from repro.core.options import CpalsOptions
from repro.csf.build import build_csf_set
from repro.mttkrp import variants
from repro.mttkrp.scatter import MttkrpContext, Workspace
from repro.mttkrp.variants import mttkrp_csf
from repro.runtime.env import ChapelEnv
from repro.runtime.locks import make_mutex_pool
from repro.runtime.tasking import make_tasking_layer
from repro.tensor.generate import random_tensor, synthetic_dataset


def _factors(tensor, rank=4, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.random((d, rank)) for d in tensor.dims]


def _sweep(csf_set, factors, backend=None):
    return [
        mttkrp_csf(csf_set, factors, mode, backend=backend)[0].copy()
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
    # whatever the backend's walk built, and nothing else
    assert stats["plan_bytes"] == _unique_plan_array_bytes(ctx._plans.values())
    assert ctx.plan_misses == stats["plans"]
    assert ctx.plan_hits == 0
    # a second sweep is all hits: no new plans
    _sweep(csf_set, factors)
    assert ctx.stats()["plans"] == stats["plans"]
    assert ctx.plan_hits == ctx.plan_misses


def _unique_plan_array_bytes(plans):
    """Bytes of every distinct index array the plans have built, walked by
    hand.  Lazily built state sits in each object's ``__dict__`` once
    read; reading it through the attribute here would build it."""
    seen = {}

    def add(*arrays):
        for a in arrays:
            if a is not None:
                seen[id(a)] = a.nbytes

    for plan in plans:
        for trav in plan.traversals:
            add(*trav.__dict__.get("down_expand", ()))
        for sc in plan.__dict__.get("scatters", ()):
            add(sc.order, sc.seg_starts, sc.out_rows, sc.bucket_ids,
                sc.bucket_bounds, sc._slot)
        for seg in _segment_sums([plan]):
            add(seg.indptr, seg.cols, seg.data)
        add(*plan.__dict__.get("leaf_expand_sorted", ()),
            *plan.__dict__.get("leaf_values_sorted", ()))
    return sum(seen.values())


def test_plan_bytes_count_shared_traversals_once():
    tensor = random_tensor((10, 8, 6), 120, seed=0)
    csf_set = build_csf_set(tensor)
    tree = csf_set.trees[0]
    ctx = csf_set.mttkrp_context
    root, _ = ctx.plan(tree, 0, 2)
    internal, _ = ctx.plan(tree, 1, 2, pool_size=8)
    # every plan of one (tree, ntasks) holds the same traversals
    assert root.traversals is internal.traversals
    # nothing is built until a walk reads it
    assert ctx.stats()["plan_bytes"] == 0
    for trav in root.traversals:
        trav.up_segsum, trav.down_expand
    internal.scatters
    stats = ctx.stats()
    assert stats["plans"] == 2
    assert stats["plan_bytes"] == _unique_plan_array_bytes([root, internal])
    # a standalone plan still reports its own footprint, traversals included
    assert root.memory_bytes() == _unique_plan_array_bytes([root])
    assert stats["plan_bytes"] < root.memory_bytes() + internal.memory_bytes()


def _segment_sums(plans):
    """The segment sums a walk has built (reading none into being): the
    traversals' upward reductions and the scatters' NumPy reductions."""
    segs = [seg for plan in plans for trav in plan.traversals
            for seg in trav.__dict__.get("up_segsum", ())]
    segs += [seg for plan in plans for sc in plan.__dict__.get("scatters", ())
             for seg in sc._segsums if seg is not None]
    return segs


def test_cext_plans_hold_no_csr_matrix():
    """A 1-task compiled pass over every mode reads only the plans'
    ``bounds`` and tree views: no plan array is built and ``plan_bytes``
    stays 0.  A NumPy pass afterwards builds the arrays it reads (CSR
    segment sums, expansions, scatters) and matches the compiled
    result."""
    backend = resolve_backend("auto")
    if not backend.compiled:
        pytest.skip("no compiled backend on this host")
    tensor = random_tensor((10, 8, 6), 120, seed=0)
    factors = _factors(tensor)
    for allocation in ("one", "two", "all"):
        csf_set = build_csf_set(tensor, allocation=allocation)
        ctx = csf_set.mttkrp_context
        compiled = [mttkrp_csf(csf_set, factors, mode, backend=backend)[0]
                    for mode in range(tensor.nmodes)]
        plans = list(ctx._plans.values())
        assert len(plans) == tensor.nmodes
        assert ctx.stats()["plan_bytes"] == 0
        assert _unique_plan_array_bytes(plans) == 0

        for mode in range(tensor.nmodes):
            got, _ = mttkrp_csf(csf_set, factors, mode, backend="numpy")
            np.testing.assert_allclose(got, compiled[mode], rtol=1e-12, atol=1e-12)
        assert list(ctx._plans.values()) == plans  # the same plans, now filled
        assert _segment_sums(plans)  # every tree has a root walk
        # each scatter a NumPy walk read reduced through its CSR operator
        assert all(sc._segsums != [None, None] for plan in plans
                   for sc in plan.__dict__.get("scatters", ()))
        for plan in plans:
            leaf = plan.level == tensor.nmodes - 1
            built = {name for name in ("scatters", "leaf_expand_sorted")
                     if name in plan.__dict__}
            assert built == ({"scatters", "leaf_expand_sorted"} if leaf
                             else {"scatters"} if plan.level else set())
            if plan.level:
                assert all("down_expand" in trav.__dict__ for trav in plan.traversals)
        assert ctx.stats()["plan_bytes"] == _unique_plan_array_bytes(plans) > 0


@pytest.mark.skipif(_compiler() is None, reason="no C compiler for the cext backend")
def test_one_task_cext_solve_holds_no_plan_array_or_scratch():
    """A 1-task cext ``cp_als`` on the NETFLIX stand-in reads the CSF
    trees and the factor matrices in place: it builds no plan array, uses
    no workspace byte and holds no copied tree or factor layout."""
    tensor = synthetic_dataset("netflix", seed=1)
    opts = CpalsOptions(max_iterations=2, tolerance=0.0, seed=1, backend="cext")
    stats = cp_als(tensor, 16, opts).engine_stats
    assert stats["backend"] == "cext" and stats["plans"] > 0
    assert stats["plan_bytes"] == 0
    assert stats["workspace_bytes"] == 0
    # and reports no copied-layout footprint
    assert not [key for key in stats if "pack" in key]


def test_numpy_segment_sums_match_the_eager_csr_operator():
    """The NumPy path's segment sums, the scatters' with their sort order
    as column indices, equal those of a scipy matrix built from the same
    segments bit for bit."""
    import scipy.sparse as sp

    tensor = random_tensor((10, 8, 6), 120, seed=0)
    csf_set = build_csf_set(tensor)
    factors = _factors(tensor)
    _sweep(csf_set, factors, backend="numpy")
    ctx = csf_set.mttkrp_context
    plans = list(ctx._plans.values())
    segs = [seg for seg in _segment_sums(plans) if seg.nseg]
    orders = {id(sc.order) for plan in plans for sc in plan.__dict__.get("scatters", ())}
    assert segs and any(id(seg.cols) in orders for seg in segs)  # a scatter's gather
    assert ctx.stats()["plan_bytes"] == _unique_plan_array_bytes(plans)
    rng = np.random.default_rng(1)
    for seg in segs:
        eager = sp.csr_matrix((np.ones(seg.nin), seg.cols, seg.indptr),
                              shape=(seg.nseg, seg.nin))
        w = rng.standard_normal((seg.nin, 4))
        got = seg.apply(w, Workspace(), "s")
        np.testing.assert_array_equal(got, eager @ w)
        # a non-contiguous input is copied first: same sums
        wf = np.asfortranarray(w)
        np.testing.assert_array_equal(seg.apply(wf, Workspace(), "f"), eager @ w)


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
