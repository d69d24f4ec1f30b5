"""Tests for the amortized MTTKRP engine: scatter plans, workspaces, pool.

Covers the three tentpole layers:

* :mod:`repro.mttkrp.scatter` — segmented scatter-add equivalence with
  ``np.add.at`` (the seed implementation) for the one-shot helper, the
  cached :class:`RowScatter` in all three flavours, and the plan cache;
* cold (plan-building) and warm (plan-reusing) :func:`repro.mttkrp.mttkrp_csf`
  calls against the dense oracle across tensor orders 2–5, all algorithms
  (root/internal/leaf) and both sync policies (privatized/mutex);
* the persistent worker pool — worker-thread identity must be stable
  across consecutive ``coforall`` dispatches.
"""

import threading

import numpy as np
import pytest

from repro.backend import available_backends, get_backend, resolve_backend
from repro.backend import kernels_ref as kref
from repro.core.cpals import cp_als
from repro.core.options import CpalsOptions
from repro.csf.build import build_csf_set
from repro.mttkrp.scatter import (
    MttkrpContext,
    RowScatter,
    ScatterPlan,
    SegmentSum,
    Workspace,
)
from repro.mttkrp.reference import dense_mttkrp_reference
from repro.mttkrp.variants import mttkrp_csf
from repro.runtime.env import ChapelEnv
from repro.runtime.locks import make_mutex_pool
from repro.runtime.pool import WorkerPool
from repro.runtime.tasking import make_tasking_layer
from repro.tensor.generate import random_tensor

ORDER_CASES = {
    2: ((14, 11), 120),
    3: ((12, 9, 15), 200),
    4: ((6, 5, 7, 4), 150),
    5: ((5, 4, 3, 6, 4), 220),
}


def _tensor_for_order(order):
    dims, nnz = ORDER_CASES[order]
    return random_tensor(dims, nnz, seed=31 + order)


class TestOneShotRowScatter:
    """A RowScatter built for one call: TTMc's per-chunk scatter."""

    def test_matches_add_at(self):
        rng = np.random.default_rng(0)
        backends = (None, resolve_backend("auto"))  # NumPy, then compiled
        for _ in range(25):
            n = int(rng.integers(0, 300))
            dim = int(rng.integers(1, 40))
            rows = rng.integers(0, dim, n)
            contribs = rng.standard_normal((n, 4))
            expected = np.zeros((dim, 4))
            np.add.at(expected, rows, contribs)
            for backend in backends:
                got = np.zeros((dim, 4))
                RowScatter(rows).scatter_accumulate(got, contribs, backend=backend)
                np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_empty_rows_is_noop(self):
        out = np.ones((3, 2))
        RowScatter(np.empty(0, dtype=np.int64)).scatter_accumulate(out, np.empty((0, 2)))
        np.testing.assert_array_equal(out, np.ones((3, 2)))

    def test_accumulates_onto_existing(self):
        out = np.ones((4, 2))
        RowScatter(np.array([1, 1, 3])).scatter_accumulate(out, np.full((3, 2), 2.0))
        expected = np.ones((4, 2))
        expected[1] += 4.0
        expected[3] += 2.0
        np.testing.assert_allclose(out, expected)


class TestRowScatter:
    def _case(self, seed=3, n=200, dim=17, rank=5):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, dim, n)
        contribs = rng.standard_normal((n, rank))
        expected = np.zeros((dim, rank))
        np.add.at(expected, rows, contribs)
        return rows, contribs, expected

    @pytest.mark.parametrize("use_ws", [False, True])
    def test_accumulate_matches_add_at(self, use_ws):
        rows, contribs, expected = self._case()
        sc = RowScatter(rows)
        ws = Workspace() if use_ws else None
        out = np.zeros_like(expected)
        sc.scatter_accumulate(out, contribs, ws)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_assign_keeps_untouched_rows_zero(self):
        rows, contribs, expected = self._case()
        sc = RowScatter(rows)
        buf = np.zeros_like(expected)
        for _ in range(3):  # repeated use must not require re-zeroing
            sc.scatter_assign(buf, contribs)
            np.testing.assert_allclose(buf, expected, atol=1e-12)
        untouched = np.setdiff1d(np.arange(expected.shape[0]), rows)
        assert (buf[untouched] == 0.0).all()

    @pytest.mark.parametrize("pool_size", [1, 4, 1024])
    def test_mutex_matches_add_at(self, pool_size):
        rows, contribs, expected = self._case()
        env = ChapelEnv(num_tasks=1)
        pool = make_mutex_pool("atomic", size=pool_size, env=env)
        sc = RowScatter(rows, pool_size=pool.size)
        out = np.zeros_like(expected)
        sc.scatter_mutex(out, contribs, pool)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        # one acquire per distinct bucket touched
        assert pool.counters.lock_acquires == len(set(int(r) % pool.size for r in rows))

    def test_empty_rows(self):
        sc = RowScatter(np.empty(0, dtype=np.int64))
        out = np.ones((3, 2))
        sc.scatter_accumulate(out, np.empty((0, 2)))
        sc.scatter_assign(out, np.empty((0, 2)))
        np.testing.assert_array_equal(out, np.ones((3, 2)))

    def test_reduce_3d_contribs(self):
        # completion scatters (nnz, R, R) outer-product stacks
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 6, 40)
        contribs = rng.standard_normal((40, 3, 3))
        expected = np.zeros((6, 3, 3))
        np.add.at(expected, rows, contribs)
        out = np.zeros((6, 3, 3))
        RowScatter(rows).scatter_accumulate(out, contribs)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("case", ["2d", "stack", "empty", "presorted"])
    def test_reduce_matches_kernels_ref_bit_for_bit(self, case):
        """The NumPy reduce (the scatter's CSR segment sum) and every
        compiled backend's gather segment sum equal the ``kernels_ref``
        loops byte for byte."""
        rng = np.random.default_rng(11)
        n = 0 if case == "empty" else 150
        rows = rng.integers(0, 23, n)
        trailing = (3, 3) if case == "stack" else (5,)
        contribs = rng.standard_normal((n,) + trailing)
        sc = RowScatter(rows)
        width = int(np.prod(trailing))
        want = np.empty((sc.out_rows.size, width))
        kref.gather_segment_sum_kernel(contribs.reshape(n, width), sc.order,
                                       sc.seg_starts, want)
        want = want.reshape((sc.out_rows.size,) + trailing)
        presorted = case == "presorted"
        given = contribs[sc.order] if presorted else contribs
        reductions = [sc.reduce(given, Workspace(), presorted=presorted)]
        for name in available_backends():
            backend = get_backend(name)
            if backend.compiled:
                reductions.append(sc.reduce(contribs, Workspace(), backend=backend))
        for got in reductions:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_contribution_row_count_is_checked(self):
        """Too few or too many contribution rows raise before any compiled
        or scipy call reads past a buffer or drops rows, on every path."""
        rows = np.array([3, 1, 3, 0, 2, 1, 3, 0])  # 8 rows, 4 unique
        backends = [None] + [get_backend(name) for name in available_backends()]
        for backend in backends:
            compiled = backend is not None and backend.compiled
            pool = make_mutex_pool("atomic", size=2)
            locks = pool.c_locks(backend) if compiled else None
            for reduced, count in ((False, 8), (True, 4)):
                for n in (2, 12):
                    sc = RowScatter(rows, pool_size=pool.size)
                    out = np.zeros((4, 3))
                    contribs = np.ones((n, 3))
                    with pytest.raises(ValueError, match=f"needs {count} contribution rows"):
                        sc.scatter_accumulate(out, contribs, backend=backend,
                                              reduced=reduced)
                    with pytest.raises(ValueError, match=f"needs {count} contribution rows"):
                        sc.scatter_mutex(out, contribs, pool, backend=backend,
                                         locks=locks, reduced=reduced)
                    if not reduced:
                        with pytest.raises(ValueError, match="needs 8 contribution rows"):
                            sc.reduce(contribs, Workspace(), backend=backend)
                        with pytest.raises(ValueError, match="needs 8 contribution rows"):
                            sc.scatter_assign(out, contribs)
                    np.testing.assert_array_equal(out, 0.0)
            if compiled:
                # the C primitive itself refuses an order that does not fit x
                x = np.ones((2, 3))
                with pytest.raises(ValueError, match="gather_segment_sum"):
                    backend.gather_segment_sum(x, np.arange(8), np.array([0, 4]),
                                               np.empty((2, 3)))


class TestWorkspace:
    def test_buffers_are_reused(self):
        ws = Workspace()
        a = ws.buf("x", (5, 3))
        b = ws.buf("x", (5, 3))
        assert a is b
        c = ws.buf("x", (6, 3))  # shape change reallocates
        assert c is not a
        assert ws.nbytes() == c.nbytes

    def test_take_matches_fancy_index(self):
        rng = np.random.default_rng(2)
        src = rng.standard_normal((10, 4))
        idx = rng.integers(0, 10, 23)
        ws = Workspace()
        np.testing.assert_array_equal(ws.take(src, idx, "t"), src[idx])
        # second take with the same tag reuses the buffer
        out1 = ws.take(src, idx, "t")
        out2 = ws.take(src, idx, "t")
        assert out1 is out2


class TestSegmentSum:
    def test_matches_reduceat(self):
        rng = np.random.default_rng(9)
        n = 400
        w = rng.standard_normal((n, 5))
        starts = np.unique(rng.integers(0, n, 90))
        starts[0] = 0
        seg = SegmentSum(starts.astype(np.intp), n)
        ws = Workspace()
        got = seg.apply(w, ws, "s")
        np.testing.assert_allclose(got, np.add.reduceat(w, starts, axis=0), atol=1e-12)
        # reused buffer, and repeat application gives the same sums
        again = seg.apply(w, ws, "s")
        assert again is got
        np.testing.assert_allclose(again, np.add.reduceat(w, starts, axis=0), atol=1e-12)

    def test_empty(self):
        seg = SegmentSum(np.empty(0, dtype=np.intp), 0)
        out = seg.apply(np.empty((0, 3)), Workspace(), "s")
        assert out.shape == (0, 3)


class TestPlanEquivalence:
    """Cold and warm mttkrp_csf vs the dense oracle across orders,
    algorithms and sync paths."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    @pytest.mark.parametrize("allocation", ["one", "two"])
    @pytest.mark.parametrize("ntasks", [1, 4])
    @pytest.mark.parametrize("force_locks", [False, True])
    def test_all_paths_agree(self, order, allocation, ntasks, force_locks, rng):
        tensor = _tensor_for_order(order)
        rank = 4
        factors = [np.asarray(rng.random((d, rank))) for d in tensor.dims]
        csf_set = build_csf_set(tensor, allocation=allocation)
        env = ChapelEnv(num_tasks=ntasks)
        layer = make_tasking_layer(env)
        algorithms_seen = set()
        try:
            for mode in range(tensor.nmodes):
                oracle = dense_mttkrp_reference(tensor, factors, mode)
                # cold call builds the plan, warm call hits the cache —
                # both must agree with the oracle
                cold, info_c = mttkrp_csf(
                    csf_set, factors, mode, layer=layer, force_locks=force_locks,
                )
                np.testing.assert_allclose(cold, oracle, atol=1e-10)
                assert info_c.plan_hit is False
                warm, info_w = mttkrp_csf(
                    csf_set, factors, mode, layer=layer, force_locks=force_locks,
                )
                np.testing.assert_allclose(warm, oracle, atol=1e-10)
                assert info_w.plan_hit is True
                algorithms_seen.add(info_c.algorithm)
        finally:
            layer.shutdown()
        if allocation == "one" and order >= 3:
            # single tree: every algorithm class exercised
            assert algorithms_seen == {"root", "internal", "leaf"}

    def test_amortized_is_default_and_stable_across_factor_updates(self, rng):
        tensor = _tensor_for_order(3)
        csf_set = build_csf_set(tensor, allocation="one")
        layer = make_tasking_layer(ChapelEnv(num_tasks=2))
        try:
            for trial in range(3):
                factors = [np.asarray(rng.random((d, 4))) for d in tensor.dims]
                for mode in range(3):
                    out, info = mttkrp_csf(csf_set, factors, mode, layer=layer)
                    assert isinstance(info.plan_hit, bool)
                    assert info.plan_hit is (trial > 0)
                    np.testing.assert_allclose(
                        out, dense_mttkrp_reference(tensor, factors, mode),
                        atol=1e-10,
                    )
        finally:
            layer.shutdown()


class TestMttkrpContext:
    def test_plan_cache_hits(self):
        tensor = _tensor_for_order(3)
        csf_set = build_csf_set(tensor, allocation="one")
        ctx = csf_set.mttkrp_context
        assert ctx is csf_set.mttkrp_context  # lazily created once
        tree = csf_set.trees[0]
        plan1, hit1 = ctx.plan(tree, 1, 2)
        plan2, hit2 = ctx.plan(tree, 1, 2)
        assert (hit1, hit2) == (False, True)
        assert plan1 is plan2
        # different level / task count / pool size are distinct plans
        assert ctx.plan(tree, 2, 2)[0] is not plan1
        assert ctx.plan(tree, 1, 4)[0] is not plan1
        assert ctx.plan(tree, 1, 2, 64)[0] is not plan1
        stats = ctx.stats()
        assert stats["plan_hits"] == 1 and stats["plan_misses"] == 4
        # plans build their arrays when a walk first reads them
        assert stats["plan_bytes"] == 0
        assert len(plan1.scatters) == 2
        assert ctx.stats()["plan_bytes"] > 0
        # one workspace per task, shared by every plan of the tree
        ws1 = ctx.workspaces(tree, 2)
        ws2 = ctx.workspaces(tree, 2)
        assert ws1 is ws2 and len(ws1) == 2

    def test_plan_structures_cover_the_tree(self):
        tensor = _tensor_for_order(4)
        tree = build_csf_set(tensor, allocation="one").trees[0]
        plan = ScatterPlan(tree, tree.nmodes - 1, 3)
        assert len(plan.traversals) == 3 and len(plan.scatters) == 3
        total = sum(sc.nrows_in for sc in plan.scatters)
        assert total == tree.nnz  # leaf level: one row per nonzero
        assert plan.memory_bytes() > 0


class TestWorkerPoolIdentity:
    def test_worker_identity_stable_across_coforalls(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=4))
        seen: list[dict[int, int]] = []
        try:
            for _ in range(3):
                idents: dict[int, int] = {}
                lock = threading.Lock()

                def body(tid):
                    with lock:
                        idents[tid] = threading.get_ident()

                layer.coforall(4, body)
                seen.append(idents)
            # same worker thread serves the same tid on every dispatch
            assert seen[0] == seen[1] == seen[2]
            assert len(set(seen[0].values())) == 4
            pool = layer.worker_pool
            assert pool.stats()["dispatches"] == 3
            assert pool.stats()["threads_created"] == 4
            assert sorted(pool.worker_idents()) == sorted(seen[0].values())
        finally:
            layer.shutdown()

    def test_nested_coforall_falls_back_without_deadlock(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=2))
        hits = []
        lock = threading.Lock()
        try:
            def outer(tid):
                def inner(jid):
                    with lock:
                        hits.append((tid, jid))
                layer.coforall(2, inner)

            layer.coforall(2, outer)
            assert sorted(hits) == [(0, 0), (0, 1), (1, 0), (1, 1)]
            assert layer.worker_pool.stats()["fallback_dispatches"] == 2
        finally:
            layer.shutdown()

    def test_shutdown_then_run_uses_ephemeral(self):
        pool = WorkerPool()
        pool.run(2, lambda tid: None)
        assert pool.stats()["dispatches"] == 1
        pool.shutdown()
        assert pool.num_workers == 0
        ran = []
        pool.run(2, ran.append)  # served ephemerally, never deadlocks
        assert sorted(ran) == [0, 1]
        assert pool.stats()["fallback_dispatches"] == 1


class TestCpalsEngineStats:
    def test_engine_stats_reported(self):
        tensor = _tensor_for_order(3)
        opts = CpalsOptions(env=ChapelEnv(num_tasks=2), max_iterations=3, tolerance=0)
        res = cp_als(tensor, 4, opts)
        es = res.engine_stats
        assert es["plan_misses"] >= 1
        assert es["plan_hits"] > es["plan_misses"]  # steady state dominates
        assert es["dispatches"] > 0
        assert es["workers"] >= 1
        assert "amortized engine:" in res.summary()
