"""Unit tests for CSF construction, validation, and mode policies."""

import numpy as np
import pytest

from repro.csf.build import build_csf, build_csf_set
from repro.csf.permute import mode_order
from repro.csf.tree import CsfTensor
from repro.tensor.coo import SparseTensor
from repro.tensor.generate import random_tensor
from repro.tensor.sort import SORT_VARIANTS


class TestModeOrder:
    def test_sorted_smallest(self):
        assert mode_order((10, 3, 7)) == (1, 2, 0)

    def test_sorted_biggest(self):
        assert mode_order((10, 3, 7), ordering="sorted_biggest") == (0, 2, 1)

    def test_inorder(self):
        assert mode_order((10, 3, 7), ordering="inorder") == (0, 1, 2)

    def test_root_forced(self):
        assert mode_order((10, 3, 7), root=0) == (0, 1, 2)
        assert mode_order((10, 3, 7), root=2) == (2, 1, 0)

    def test_ties_broken_by_index(self):
        assert mode_order((5, 5, 5)) == (0, 1, 2)

    def test_unknown_ordering(self):
        with pytest.raises(ValueError, match="unknown ordering"):
            mode_order((2, 3), ordering="zigzag")

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            mode_order((2, 3), root=5)


class TestBuildCsf:
    def test_tiny_structure(self, tiny_tensor):
        # dims (3,2,2): smallest-first perm = (1,2,0)
        csf = build_csf(tiny_tensor)
        assert csf.dim_perm == (1, 2, 0)
        assert csf.nnz == 4
        assert csf.nfibs[-1] == 4
        # root level: mode-1 values present = {0, 1}
        np.testing.assert_array_equal(np.unique(csf.fids[0]), [0, 1])

    def test_coordinate_roundtrip(self, small_tensor):
        csf = build_csf(small_tensor)
        coords = csf.expand_coords()
        # same multiset of rows
        original = small_tensor.coords[np.lexsort(small_tensor.coords.T[::-1])]
        rebuilt = coords[np.lexsort(coords.T[::-1])]
        np.testing.assert_array_equal(rebuilt, original)

    def test_values_align_with_coords(self, small_tensor):
        csf = build_csf(small_tensor)
        coords = csf.expand_coords()
        dense = small_tensor.to_dense()
        for coord, value in zip(coords, csf.values):
            assert dense[tuple(coord)] == pytest.approx(value)

    @pytest.mark.parametrize("perm", [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
    def test_explicit_perm(self, small_tensor, perm):
        csf = build_csf(small_tensor, perm)
        assert csf.dim_perm == perm
        coords = csf.expand_coords()
        rebuilt = coords[np.lexsort(coords.T[::-1])]
        original = small_tensor.coords[np.lexsort(small_tensor.coords.T[::-1])]
        np.testing.assert_array_equal(rebuilt, original)

    @pytest.mark.parametrize("variant", SORT_VARIANTS)
    def test_any_sort_variant_builds_identical_tree(self, small_tensor, variant):
        ref = build_csf(small_tensor, sort_variant="lexsort")
        out = build_csf(small_tensor, sort_variant=variant)
        for a, b in zip(ref.fids, out.fids):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(ref.fptr, out.fptr):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(ref.values, out.values)

    def test_fiber_counts_decrease_up_tree(self, small_tensor):
        csf = build_csf(small_tensor)
        nfibs = csf.nfibs
        assert all(a <= b for a, b in zip(nfibs, nfibs[1:]))

    def test_empty_tensor(self):
        t = SparseTensor(np.empty((0, 3), dtype=int), np.empty(0), (2, 3, 4))
        csf = build_csf(t)
        assert csf.nnz == 0
        assert csf.nslices == 0

    def test_single_nonzero(self):
        t = SparseTensor(np.array([[1, 2, 3]]), np.array([5.0]), (2, 3, 4))
        csf = build_csf(t, (0, 1, 2))
        assert csf.nfibs == (1, 1, 1)
        assert csf.values[0] == 5.0

    def test_order2(self):
        t = random_tensor((8, 6), 20, seed=1)
        csf = build_csf(t)
        coords = csf.expand_coords()
        assert coords.shape == (20, 2)

    def test_order4(self, order4_tensor):
        csf = build_csf(order4_tensor)
        assert len(csf.fids) == 4
        assert len(csf.fptr) == 3
        coords = csf.expand_coords()
        rebuilt = coords[np.lexsort(coords.T[::-1])]
        original = order4_tensor.coords[np.lexsort(order4_tensor.coords.T[::-1])]
        np.testing.assert_array_equal(rebuilt, original)

    def test_invalid_perm(self, small_tensor):
        with pytest.raises(ValueError, match="permutation"):
            build_csf(small_tensor, (0, 0, 1))

    def test_memory_bytes_positive(self, small_tensor):
        assert build_csf(small_tensor).memory_bytes() > 0

    def test_level_of_mode(self, small_tensor):
        csf = build_csf(small_tensor, (2, 0, 1))
        assert csf.level_of_mode(2) == 0
        assert csf.level_of_mode(0) == 1
        assert csf.level_of_mode(1) == 2


def _parent_build(tensor, dim_perm):
    """CSF construction by mode-permuting, lexsorting and ranking prefix
    starts with a cumulative sum: the reference for :func:`build_csf`."""
    permuted = tensor.permute_modes(dim_perm)
    order = np.lexsort(permuted.coords.T[::-1])
    coords, values = permuted.coords[order], permuted.values[order]
    nmodes, nnz = tensor.nmodes, tensor.nnz
    new_prefix = np.zeros((nmodes, nnz), dtype=bool)
    new_prefix[:, 0] = True
    running = np.zeros(nnz - 1, dtype=bool)
    for level in range(nmodes):
        running |= coords[1:, level] != coords[:-1, level]
        new_prefix[level, 1:] = running
    fids = [coords[np.flatnonzero(new_prefix[level]), level] for level in range(nmodes)]
    fptr = []
    for level in range(nmodes - 1):
        child_rank = np.cumsum(new_prefix[level + 1]) - 1
        fptr.append(np.append(child_rank[np.flatnonzero(new_prefix[level])],
                              fids[level + 1].shape[0]))
    return fptr, fids, values


class TestBuildMatchesPermuteThenSort:
    @pytest.mark.parametrize("allocation", ["one", "two", "all"])
    @pytest.mark.parametrize("dims,nnz", [((40, 9, 25), 900), ((6, 5, 7, 4), 400)])
    def test_byte_identical(self, allocation, dims, nnz):
        t = random_tensor(dims, nnz, seed=4)
        # shuffled input, so the sort does real work
        shuffle = np.random.default_rng(0).permutation(t.nnz)
        t = SparseTensor(t.coords[shuffle], t.values[shuffle], t.dims)
        for tree in build_csf_set(t, allocation=allocation).trees:
            fptr, fids, values = _parent_build(t, tree.dim_perm)
            for got, want in zip(tree.fptr + tree.fids, fptr + fids):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert tree.values.tobytes() == values.tobytes()


class TestCsfValidation:
    def test_bad_fptr_length(self, small_tensor):
        csf = build_csf(small_tensor)
        with pytest.raises(ValueError, match="fptr length"):
            CsfTensor(csf.dims, csf.dim_perm,
                      [csf.fptr[0][:-1], csf.fptr[1]], csf.fids, csf.values)

    def test_empty_fiber_rejected(self, small_tensor):
        csf = build_csf(small_tensor)
        bad = csf.fptr[0].copy()
        bad[1] = bad[0]  # empty first fiber
        with pytest.raises(ValueError, match="empty fiber|span"):
            CsfTensor(csf.dims, csf.dim_perm, [bad, csf.fptr[1]], csf.fids, csf.values)

    def test_leaf_value_mismatch(self, small_tensor):
        csf = build_csf(small_tensor)
        with pytest.raises(ValueError, match="mismatch"):
            CsfTensor(csf.dims, csf.dim_perm, csf.fptr, csf.fids, csf.values[:-1])

    def test_fids_out_of_range(self, small_tensor):
        csf = build_csf(small_tensor)
        bad = [f.copy() for f in csf.fids]
        bad[0][0] = 10_000
        with pytest.raises(ValueError, match="out of range"):
            CsfTensor(csf.dims, csf.dim_perm, csf.fptr, bad, csf.values)

    def test_bad_perm(self, small_tensor):
        csf = build_csf(small_tensor)
        with pytest.raises(ValueError, match="permutation"):
            CsfTensor(csf.dims, (0, 0, 2), csf.fptr, csf.fids, csf.values)


class TestCsfSet:
    def test_one_allocation(self, small_tensor):
        cs = build_csf_set(small_tensor, allocation="one")
        assert len(cs.trees) == 1
        # smallest mode (dim 9 -> mode 1) at root
        assert cs.trees[0].dim_perm[0] == 1

    def test_two_allocation(self, small_tensor):
        cs = build_csf_set(small_tensor, allocation="two")
        assert len(cs.trees) == 2
        roots = {t.dim_perm[0] for t in cs.trees}
        assert roots == {1, 2}  # smallest (9) and biggest (15) dims

    def test_all_allocation(self, small_tensor):
        cs = build_csf_set(small_tensor, allocation="all")
        assert len(cs.trees) == 3
        assert {t.dim_perm[0] for t in cs.trees} == {0, 1, 2}

    def test_tree_for_mode_root_priority(self, small_tensor):
        cs = build_csf_set(small_tensor, allocation="all")
        for mode in range(3):
            tree, alg = cs.tree_for_mode(mode)
            assert alg == "root"
            assert tree.dim_perm[0] == mode

    def test_tree_for_mode_internal(self, small_tensor):
        cs = build_csf_set(small_tensor, allocation="two")
        tree, alg = cs.tree_for_mode(0)  # middle-dim mode is non-root
        assert alg == "internal"

    def test_tree_for_mode_leaf_fallback(self):
        t = random_tensor((4, 9), 12, seed=0)
        cs = build_csf_set(t, allocation="one")
        _, alg = cs.tree_for_mode(t.dims.index(max(t.dims)))
        assert alg == "leaf"

    def test_memory_grows_with_allocation(self, small_tensor):
        m1 = build_csf_set(small_tensor, allocation="one").memory_bytes()
        m2 = build_csf_set(small_tensor, allocation="two").memory_bytes()
        m3 = build_csf_set(small_tensor, allocation="all").memory_bytes()
        assert m1 < m2 < m3

    def test_unknown_allocation(self, small_tensor):
        with pytest.raises(ValueError, match="unknown allocation"):
            build_csf_set(small_tensor, allocation="four")

    def test_two_collapses_for_degenerate(self):
        t = random_tensor((5,), 3, seed=0)
        cs = build_csf_set(t, allocation="two")
        assert len(cs.trees) == 1


class TestPublicApiSurface:
    def test_top_level_all_resolves(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    def test_subpackage_all_resolves(self):
        import importlib

        for pkg in ("repro.tensor", "repro.csf", "repro.linalg", "repro.mttkrp",
                    "repro.runtime", "repro.core", "repro.perfmodel",
                    "repro.completion", "repro.constrained", "repro.distributed",
                    "repro.analysis", "repro.tucker", "repro.bench"):
            module = importlib.import_module(pkg)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{pkg}.__all__ lists missing {name!r}"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"
