"""Unit tests for the sorting variant ladder."""

import numpy as np
import pytest

from repro.tensor.coo import SparseTensor
from repro.tensor.generate import random_tensor
from repro.tensor.sort import SORT_VARIANTS, lex_order, sort_perm_for_mode, sort_tensor


def _is_sorted_by(tensor: SparseTensor, perm) -> bool:
    keys = tuple(tensor.coords[:, m] for m in reversed(perm))
    order = np.lexsort(keys)
    return bool((order == np.arange(tensor.nnz)).all())


class TestSortPerm:
    def test_mode_first_rest_ascending(self):
        assert sort_perm_for_mode(1, 3) == (1, 0, 2)
        assert sort_perm_for_mode(0, 3) == (0, 1, 2)
        assert sort_perm_for_mode(2, 3) == (2, 0, 1)

    def test_negative_mode(self):
        assert sort_perm_for_mode(-1, 3) == (2, 0, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sort_perm_for_mode(3, 3)


class TestLexOrder:
    """The packed-key order is exactly ``np.lexsort`` over the same keys."""

    @staticmethod
    def _tuples(dims, n, seed):
        rng = np.random.default_rng(seed)
        cols = [rng.integers(0, d, n) for d in dims]
        # duplicate tuples at shuffled positions: the stable tie order shows
        dup = rng.integers(0, n, n // 4)
        cols = [np.concatenate([c, c[dup]]) for c in cols]
        shuffle = rng.permutation(cols[0].size)
        return [c[shuffle] for c in cols]

    @pytest.mark.parametrize("dims", [(7,), (5, 3, 4), (9, 2, 6, 3), (40, 30, 50)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_lexsort(self, dims, seed):
        keys = self._tuples(dims, 300, seed)
        np.testing.assert_array_equal(lex_order(keys, dims), np.lexsort(keys[::-1]))

    @pytest.mark.parametrize("dims", [
        (2**20, 2**20, 2**20),  # the key fits, key plus row number does not
        (2**22, 2**22, 2**22),  # prod(dims) > 2**63
    ])
    def test_lexsort_fallback(self, dims):
        keys = self._tuples(dims, 300, 2)
        keys[0][:10] = dims[0] - 1  # top bits set: a packed key would overflow
        np.testing.assert_array_equal(lex_order(keys, dims), np.lexsort(keys[::-1]))

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert lex_order([empty, empty], (3, 4)).size == 0

    @pytest.mark.parametrize("pool_size", [1, 3, 1024])
    def test_locked_scatter_plan_order(self, pool_size):
        from repro.mttkrp.scatter import RowScatter

        rows = np.random.default_rng(pool_size).integers(0, 40, 300)
        np.testing.assert_array_equal(RowScatter(rows, pool_size=pool_size).order,
                                      np.lexsort((rows, rows % pool_size)))

    def test_deduplicate_order(self):
        coords = np.stack(self._tuples((5, 3, 4), 300, 3), axis=1)
        t = SparseTensor(coords, np.ones(coords.shape[0]), (5, 3, 4)).deduplicate()
        np.testing.assert_array_equal(t.coords, np.unique(coords, axis=0))


class TestAllVariantsAgree:
    @pytest.mark.parametrize("variant", SORT_VARIANTS)
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_sorted_order(self, small_tensor, variant, mode):
        out = sort_tensor(small_tensor, mode, variant=variant)
        assert _is_sorted_by(out, sort_perm_for_mode(mode, 3))

    @pytest.mark.parametrize("variant", SORT_VARIANTS)
    def test_is_permutation_of_input(self, small_tensor, variant):
        out = sort_tensor(small_tensor, 0, variant=variant)
        # same multiset of (coord, value) rows
        def key(t):
            rows = np.column_stack([t.coords, t.values])
            return rows[np.lexsort(rows.T[::-1])]
        np.testing.assert_allclose(key(out), key(small_tensor))

    @pytest.mark.parametrize("variant", SORT_VARIANTS)
    def test_matches_lexsort_exactly(self, variant):
        t = random_tensor((9, 7, 8), 150, seed=3)
        ref = sort_tensor(t, 1, variant="lexsort")
        out = sort_tensor(t, 1, variant=variant)
        # unique coordinates -> the sorted order is unique
        np.testing.assert_array_equal(out.coords, ref.coords)
        np.testing.assert_allclose(out.values, ref.values)

    @pytest.mark.parametrize("variant", SORT_VARIANTS)
    def test_input_untouched(self, small_tensor, variant):
        before = small_tensor.copy()
        sort_tensor(small_tensor, 0, variant=variant)
        assert small_tensor == before

    @pytest.mark.parametrize("variant", SORT_VARIANTS)
    def test_empty_tensor(self, variant):
        t = SparseTensor(np.empty((0, 3), dtype=int), np.empty(0), (2, 2, 2))
        out = sort_tensor(t, 0, variant=variant)
        assert out.nnz == 0

    @pytest.mark.parametrize("variant", SORT_VARIANTS)
    def test_single_nonzero(self, variant):
        t = SparseTensor(np.array([[1, 0, 1]]), np.array([2.0]), (2, 2, 2))
        out = sort_tensor(t, 2, variant=variant)
        assert out == t

    @pytest.mark.parametrize("variant", SORT_VARIANTS)
    def test_duplicate_coordinates_kept(self, variant):
        coords = np.array([[1, 1], [0, 0], [1, 1]])
        t = SparseTensor(coords, np.array([1.0, 2.0, 3.0]), (2, 2))
        out = sort_tensor(t, 0, variant=variant)
        assert out.nnz == 3
        np.testing.assert_array_equal(out.coords[0], [0, 0])

    @pytest.mark.parametrize("variant", SORT_VARIANTS)
    def test_order4(self, order4_tensor, variant):
        out = sort_tensor(order4_tensor, 3, variant=variant)
        assert _is_sorted_by(out, sort_perm_for_mode(3, 4))

    def test_adversarial_already_sorted(self):
        # pre-sorted input exercises quicksort's worst-case pivot behaviour
        t = random_tensor((6, 6, 6), 120, seed=0)
        t = sort_tensor(t, 0, variant="lexsort")
        out = sort_tensor(t, 0, variant="all_opts")
        np.testing.assert_array_equal(out.coords, t.coords)

    def test_reverse_sorted_input(self):
        t = random_tensor((6, 6, 6), 120, seed=0)
        t = sort_tensor(t, 0, variant="lexsort")
        rev = SparseTensor(t.coords[::-1].copy(), t.values[::-1].copy(), t.dims)
        out = sort_tensor(rev, 0, variant="initial")
        np.testing.assert_array_equal(out.coords, t.coords)

    def test_unknown_variant(self, small_tensor):
        with pytest.raises(ValueError, match="unknown sort variant"):
            sort_tensor(small_tensor, 0, variant="bogus")


class TestParallelSort:
    @pytest.mark.parametrize("variant", ["initial", "array_opt", "slices_opt", "all_opts"])
    @pytest.mark.parametrize("ntasks", [2, 4])
    def test_parallel_matches_serial(self, variant, ntasks):
        from repro.runtime.env import ChapelEnv

        t = random_tensor((12, 10, 14), 500, seed=8)
        serial = sort_tensor(t, 0, variant=variant)
        parallel = sort_tensor(
            t, 0, variant=variant, env=ChapelEnv(num_tasks=ntasks)
        )
        np.testing.assert_array_equal(parallel.coords, serial.coords)
        np.testing.assert_allclose(parallel.values, serial.values)

    def test_parallel_counters_aggregate(self):
        from repro.runtime.env import ChapelEnv

        t = random_tensor((12, 10, 14), 500, seed=8)
        _, serial = sort_tensor(t, 0, variant="initial", return_counters=True)
        _, parallel = sort_tensor(
            t, 0, variant="initial", env=ChapelEnv(num_tasks=3),
            return_counters=True,
        )
        # quicksort work is identical, only its distribution differs
        assert parallel.quicksort_calls == serial.quicksort_calls
        assert parallel.comparisons == serial.comparisons
        assert parallel.swaps == serial.swaps

    def test_serial_env_equivalent_to_none(self):
        from repro.runtime.env import ChapelEnv

        t = random_tensor((8, 8, 8), 120, seed=1)
        a = sort_tensor(t, 2, variant="all_opts")
        b = sort_tensor(t, 2, variant="all_opts", env=ChapelEnv(num_tasks=1))
        assert a == b


class TestCounters:
    def test_lexsort_does_no_interpreted_work(self, small_tensor):
        _, counters = sort_tensor(small_tensor, 0, variant="lexsort", return_counters=True)
        assert counters.quicksort_calls == 0
        assert counters.comparisons == 0

    def test_initial_allocates_scratch(self, small_tensor):
        _, counters = sort_tensor(small_tensor, 0, variant="initial", return_counters=True)
        assert counters.scratch_allocs > 0
        assert counters.elements_copied > 0

    def test_array_opt_removes_allocs_keeps_copies(self, small_tensor):
        _, counters = sort_tensor(small_tensor, 0, variant="array_opt", return_counters=True)
        assert counters.scratch_allocs == 0
        assert counters.elements_copied > 0

    def test_slices_opt_removes_copies_keeps_allocs(self, small_tensor):
        _, counters = sort_tensor(small_tensor, 0, variant="slices_opt", return_counters=True)
        assert counters.elements_copied == 0

    def test_all_opts_removes_both(self, small_tensor):
        _, counters = sort_tensor(small_tensor, 0, variant="all_opts", return_counters=True)
        assert counters.scratch_allocs == 0
        assert counters.elements_copied == 0
        assert counters.comparisons > 0  # still the interpreted quicksort

    def test_scratch_allocs_bounded_by_calls(self, small_tensor):
        _, counters = sort_tensor(small_tensor, 0, variant="initial", return_counters=True)
        assert counters.scratch_allocs <= counters.quicksort_calls

    def test_counters_merge(self, small_tensor):
        _, a = sort_tensor(small_tensor, 0, variant="initial", return_counters=True)
        _, b = sort_tensor(small_tensor, 1, variant="initial", return_counters=True)
        total = a.quicksort_calls + b.quicksort_calls
        a.merge(b)
        assert a.quicksort_calls == total
