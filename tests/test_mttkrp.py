"""Unit tests for MTTKRP: all variants, all algorithms, all sync policies."""

import numpy as np
import pytest

from repro.csf.build import build_csf_set
from repro.mttkrp.csf_kernels import (
    internal_range_vectorized,
    leaf_range_vectorized,
    root_range_vectorized,
)
from repro.mttkrp.locks_policy import needs_locks
from repro.mttkrp.partition import leaf_counts_per_slice, nnz_balanced_blocks
from repro.mttkrp.reference import dense_mttkrp_reference
from repro.mttkrp.variants import ACCESS_VARIANTS, mttkrp, mttkrp_csf
from repro.runtime.env import ChapelEnv
from repro.runtime.locks import AtomicLockPool
from repro.runtime.tasking import make_tasking_layer
from repro.tensor.generate import random_tensor


class TestReference:
    def test_matches_by_definition(self, tiny_tensor, factors_for):
        """M = X_(n) (A ⊙ B) computed two independent ways."""
        factors = factors_for(tiny_tensor, 3)
        for mode in range(3):
            ref = dense_mttkrp_reference(tiny_tensor, factors, mode)
            # elementwise definition: M[i, r] = Σ_nz x · Π_{m≠mode} A^m[i_m, r]
            expected = np.zeros_like(ref)
            for coord, val in zip(tiny_tensor.coords, tiny_tensor.values):
                for r in range(3):
                    prod = val
                    for m in range(3):
                        if m != mode:
                            prod *= factors[m][coord[m], r]
                    expected[coord[mode], r] += prod
            np.testing.assert_allclose(ref, expected)

    def test_factor_count_checked(self, tiny_tensor, factors_for):
        with pytest.raises(ValueError, match="factors"):
            dense_mttkrp_reference(tiny_tensor, factors_for(tiny_tensor)[:2], 0)

    def test_factor_rows_checked(self, tiny_tensor, rng):
        bad = [rng.random((2, 3))] * 3
        with pytest.raises(ValueError, match="rows"):
            dense_mttkrp_reference(tiny_tensor, bad, 0)


class TestAllVariantsMatchReference:
    @pytest.mark.parametrize("variant", ACCESS_VARIANTS)
    @pytest.mark.parametrize("allocation", ["one", "two", "all"])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_agreement(self, small_tensor, factors_for, variant, allocation, mode):
        factors = factors_for(small_tensor, 5)
        ref = dense_mttkrp_reference(small_tensor, factors, mode)
        csf_set = build_csf_set(small_tensor, allocation=allocation)
        out, info = mttkrp_csf(csf_set, factors, mode, variant=variant)
        np.testing.assert_allclose(out, ref, atol=1e-10)
        assert info.mode == mode
        assert info.variant == variant

    @pytest.mark.parametrize("variant", ACCESS_VARIANTS)
    def test_rank_one(self, small_tensor, factors_for, variant):
        factors = factors_for(small_tensor, 1)
        ref = dense_mttkrp_reference(small_tensor, factors, 0)
        out = mttkrp(small_tensor, factors, 0, variant=variant)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_vectorized_order4(self, order4_tensor, factors_for):
        factors = factors_for(order4_tensor, 4)
        for mode in range(4):
            ref = dense_mttkrp_reference(order4_tensor, factors, mode)
            out = mttkrp(order4_tensor, factors, mode, variant="vectorized")
            np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_vectorized_order2(self, factors_for):
        t = random_tensor((9, 7), 25, seed=4)
        factors = factors_for(t, 3)
        for mode in range(2):
            ref = dense_mttkrp_reference(t, factors, mode)
            out = mttkrp(t, factors, mode, variant="vectorized")
            np.testing.assert_allclose(out, ref, atol=1e-10)

    @pytest.mark.parametrize("variant", ["slicing", "index2d", "pointer"])
    def test_interpreted_rejects_order4(self, order4_tensor, factors_for, variant):
        factors = factors_for(order4_tensor, 3)
        with pytest.raises(NotImplementedError, match="3rd-order"):
            mttkrp(order4_tensor, factors, 0, variant=variant)

    def test_unknown_variant(self, small_tensor, factors_for):
        with pytest.raises(ValueError, match="unknown variant"):
            mttkrp(small_tensor, factors_for(small_tensor), 0, variant="simd")


class TestParallelCorrectness:
    @pytest.mark.parametrize("ntasks", [2, 3, 4, 7])
    @pytest.mark.parametrize("variant", ["vectorized", "pointer"])
    def test_root_parallel(self, small_tensor, factors_for, ntasks, variant):
        factors = factors_for(small_tensor, 4)
        csf_set = build_csf_set(small_tensor, allocation="all")
        env = ChapelEnv(num_tasks=ntasks)
        for mode in range(3):
            ref = dense_mttkrp_reference(small_tensor, factors, mode)
            out, info = mttkrp_csf(csf_set, factors, mode, variant=variant, env=env)
            assert info.algorithm == "root"
            assert not info.used_locks
            np.testing.assert_allclose(out, ref, atol=1e-10)

    @pytest.mark.parametrize("ntasks", [2, 4])
    @pytest.mark.parametrize("variant", ["vectorized", "index2d"])
    def test_privatized_parallel(self, small_tensor, factors_for, ntasks, variant):
        factors = factors_for(small_tensor, 4)
        csf_set = build_csf_set(small_tensor, allocation="two")
        env = ChapelEnv(num_tasks=ntasks)
        for mode in range(3):
            ref = dense_mttkrp_reference(small_tensor, factors, mode)
            out, info = mttkrp_csf(
                csf_set, factors, mode, variant=variant, env=env, force_locks=False
            )
            np.testing.assert_allclose(out, ref, atol=1e-10)
            assert not info.used_locks

    @pytest.mark.parametrize("mutex_kind", ["atomic", "sync"])
    @pytest.mark.parametrize("layer_name", ["qthreads", "fifo"])
    @pytest.mark.parametrize("variant", ["vectorized", "pointer"])
    def test_mutex_parallel(self, small_tensor, factors_for, mutex_kind, layer_name, variant):
        factors = factors_for(small_tensor, 4)
        csf_set = build_csf_set(small_tensor, allocation="two")
        env = ChapelEnv(num_tasks=4, tasking_layer=layer_name)
        nonroot = [m for m in range(3) if csf_set.tree_for_mode(m)[1] != "root"]
        for mode in nonroot:
            ref = dense_mttkrp_reference(small_tensor, factors, mode)
            out, info = mttkrp_csf(
                csf_set, factors, mode, variant=variant, env=env,
                mutex_kind=mutex_kind, force_locks=True,
            )
            assert info.used_locks
            np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_locks_never_on_root(self, small_tensor, factors_for):
        factors = factors_for(small_tensor, 3)
        csf_set = build_csf_set(small_tensor, allocation="all")
        env = ChapelEnv(num_tasks=4)
        _, info = mttkrp_csf(csf_set, factors, 0, env=env, force_locks=True)
        assert info.algorithm == "root"
        assert not info.used_locks

    def test_shared_pool_counts(self, small_tensor, factors_for):
        factors = factors_for(small_tensor, 3)
        csf_set = build_csf_set(small_tensor, allocation="two")
        env = ChapelEnv(num_tasks=3)
        pool = AtomicLockPool(size=16)
        nonroot = next(m for m in range(3) if csf_set.tree_for_mode(m)[1] != "root")
        mttkrp_csf(csf_set, factors, nonroot, env=env, pool=pool, force_locks=True)
        assert pool.counters.lock_acquires > 0

    def test_out_buffer_reused_and_zeroed(self, small_tensor, factors_for):
        factors = factors_for(small_tensor, 3)
        csf_set = build_csf_set(small_tensor)
        buf = np.full((small_tensor.dims[0], 3), 99.0)
        ref = dense_mttkrp_reference(small_tensor, factors, 0)
        out, _ = mttkrp_csf(csf_set, factors, 0, out=buf)
        assert out is buf
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_wrong_out_shape(self, small_tensor, factors_for):
        factors = factors_for(small_tensor, 3)
        csf_set = build_csf_set(small_tensor)
        with pytest.raises(ValueError, match="out has shape"):
            mttkrp_csf(csf_set, factors, 0, out=np.zeros((2, 2)))

    def test_wrong_factor_shape(self, small_tensor, factors_for):
        factors = factors_for(small_tensor, 3)
        factors[0] = factors[0][:-1]
        csf_set = build_csf_set(small_tensor)
        with pytest.raises(ValueError, match="factor 0"):
            mttkrp_csf(csf_set, factors, 0)


class TestRangeKernels:
    def test_root_ranges_compose(self, small_tensor, factors_for):
        factors = factors_for(small_tensor, 4)
        csf_set = build_csf_set(small_tensor, allocation="all")
        tree, _ = csf_set.tree_for_mode(0)
        full = np.zeros((small_tensor.dims[0], 4))
        root_range_vectorized(tree, factors, full, 0, tree.nslices)
        split = np.zeros_like(full)
        mid = tree.nslices // 2
        root_range_vectorized(tree, factors, split, 0, mid)
        root_range_vectorized(tree, factors, split, mid, tree.nslices)
        np.testing.assert_allclose(split, full)

    def test_leaf_empty_range(self, small_tensor, factors_for):
        factors = factors_for(small_tensor, 4)
        csf_set = build_csf_set(small_tensor, allocation="one")
        tree = csf_set.trees[0]
        rows, contribs = leaf_range_vectorized(tree, factors, 3, 3)
        assert rows.size == 0
        assert contribs.shape == (0, 4)

    def test_internal_level_validation(self, small_tensor, factors_for):
        factors = factors_for(small_tensor, 4)
        tree = build_csf_set(small_tensor, allocation="one").trees[0]
        with pytest.raises(ValueError, match="internal level"):
            internal_range_vectorized(tree, factors, 0, 0, 1)
        with pytest.raises(ValueError, match="internal level"):
            internal_range_vectorized(tree, factors, 2, 0, 1)

    def test_trav_and_ws_go_together(self, small_tensor, factors_for):
        from repro.mttkrp.scatter import TaskTraversal, Workspace

        factors = factors_for(small_tensor, 4)
        tree = build_csf_set(small_tensor, allocation="one").trees[0]
        trav = TaskTraversal(tree, 0, tree.nslices)
        for planned in ({"trav": trav}, {"ws": Workspace()}):
            with pytest.raises(ValueError, match="trav and ws together"):
                leaf_range_vectorized(tree, factors, 0, tree.nslices, **planned)
        plain = leaf_range_vectorized(tree, factors, 0, tree.nslices)
        rows, contribs = leaf_range_vectorized(
            tree, factors, 0, tree.nslices, trav=trav, ws=Workspace())
        np.testing.assert_array_equal(rows, plain[0])
        np.testing.assert_allclose(contribs, plain[1])


class TestPartition:
    def test_blocks_cover_all_slices(self, small_tensor):
        tree = build_csf_set(small_tensor).trees[0]
        for ntasks in (1, 2, 5, 16):
            b = nnz_balanced_blocks(tree, ntasks)
            assert b[0] == 0
            assert b[-1] == tree.nslices
            assert (np.diff(b) >= 0).all()

    def test_balanced_by_nnz(self):
        t = random_tensor((40, 6, 6), 600, seed=2)
        tree = build_csf_set(t).trees[0]
        counts = leaf_counts_per_slice(tree)
        b = nnz_balanced_blocks(tree, 4)
        per_task = [counts[b[i]:b[i + 1]].sum() for i in range(4)]
        assert max(per_task) <= 2 * (t.nnz / 4)  # no task more than 2x average

    def test_more_tasks_than_slices(self, small_tensor):
        tree = build_csf_set(small_tensor).trees[0]
        b = nnz_balanced_blocks(tree, tree.nslices * 3)
        assert b[-1] == tree.nslices
        assert (np.diff(b) >= 0).all()

    def test_leaf_counts_sum_to_nnz(self, small_tensor):
        tree = build_csf_set(small_tensor).trees[0]
        assert leaf_counts_per_slice(tree).sum() == small_tensor.nnz

    def test_invalid_ntasks(self, small_tensor):
        tree = build_csf_set(small_tensor).trees[0]
        with pytest.raises(ValueError):
            nnz_balanced_blocks(tree, 0)


class TestLocksPolicy:
    def test_serial_never_locks(self):
        assert not needs_locks(10**9, 1, 1)

    def test_large_dim_small_nnz_locks(self):
        assert needs_locks(100_000, 10_000, 4)

    def test_small_dim_large_nnz_privatizes(self):
        assert needs_locks(100, 10_000_000, 32) is False

    def test_monotone_in_tasks(self):
        # once locks engage, more tasks keep them engaged
        prev = False
        for p in (1, 2, 4, 8, 16, 32, 64):
            cur = needs_locks(41_000, 8_000_000, p)
            assert cur >= prev
            prev = cur

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            needs_locks(0, 1, 1)
        with pytest.raises(ValueError):
            needs_locks(1, -1, 1)
        with pytest.raises(ValueError):
            needs_locks(1, 1, 0)
