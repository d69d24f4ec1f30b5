"""Every column-block width of the cext range kernels, against kernels_ref.

The cext kernels walk a task's slices once per block of factor columns:
32, 16, 8 and 4 columns, then the rank's R mod 4 tail as one partial
vector.  The ranks below reach every width, every tail and several blocks
of one width; the orders 2-5 reach every tree level, both register levels
of the running sums and, from order 4, the levels held on the stack.
Each kernel runs on the whole tree and on a sub-range of root slices:
the root kernel, the internal kernel at every internal level and the leaf
kernel, the last two both adding into ``out[fid]`` and filling a
slot-form compact buffer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import canonical_factors, get_backend
from repro.backend import kernels_ref as kref
from repro.backend.cext import _compiler
from repro.csf.build import build_csf_set
from repro.tensor.generate import random_tensor

# skip only without a compiler: a build that fails its self-check must fail
pytestmark = pytest.mark.skipif(
    _compiler() is None, reason="no C compiler for the cext backend"
)

RTOL = ATOL = 1e-12

#: 32+3, 32+32, 16+8+4+1 and the widths and tails on their own
RANKS = (1, 3, 4, 5, 8, 15, 16, 17, 29, 35, 64)

#: order -> (dims, nnz); small, so the interpreted reference stays quick
TENSORS = {
    2: ((9, 7), 40),
    3: ((6, 5, 7), 50),
    4: ((4, 5, 3, 6), 60),
    5: ((3, 4, 3, 4, 3), 60),
}


def _level_range(tree, level, lo, hi):
    """The node range ``[lo_l, hi_l)`` at ``level`` under root slices ``[lo, hi)``."""
    for l in range(level):
        lo, hi = int(tree.fptr[l][lo]), int(tree.fptr[l][hi])
    return lo, hi


def _check_level(bk, tree, factors, level, lo, hi, rng):
    rank = factors[0].shape[1]
    ref = np.zeros((tree.dims[tree.dim_perm[level]], rank))
    base = rng.standard_normal(ref.shape)
    got = base.copy()
    args = (tree.fptr, tree.fids, tree.values, factors)
    last = tree.nmodes - 1
    # direct write: every kernel adds on top of what out holds
    if level == 0:
        kref.root_kernel(*args, lo, hi, ref)
        bk.root_kernel(tree, factors, lo, hi, got)
    elif level == last:
        kref.leaf_kernel(*args, lo, hi, None, ref)
        bk.leaf_kernel(tree, factors, lo, hi, got)
    else:
        kref.internal_kernel(*args, level, lo, hi, None, ref)
        bk.internal_kernel(tree, factors, level, lo, hi, got)
    np.testing.assert_allclose(got, base + ref, rtol=RTOL, atol=ATOL,
                               err_msg=f"level {level}, slices [{lo}, {hi})")
    if level == 0:
        return
    # slot form: one compact row per distinct fid the range touches; the
    # kernel zeroes the buffer first, so NaNs left in it would show
    lo_l, hi_l = _level_range(tree, level, lo, hi)
    uniq, slot = np.unique(tree.fids[level][lo_l:hi_l], return_inverse=True)
    slot = slot.astype(np.int64)
    buf = np.full((uniq.size, rank), np.nan)
    if level == last:
        bk.leaf_kernel(tree, factors, lo, hi, buf, slot)
    else:
        bk.internal_kernel(tree, factors, level, lo, hi, buf, slot)
    np.testing.assert_allclose(buf, ref[uniq], rtol=RTOL, atol=ATOL,
                               err_msg=f"slot form, level {level}, slices [{lo}, {hi})")


@pytest.mark.parametrize("rank", RANKS)
@pytest.mark.parametrize("order", sorted(TENSORS))
def test_cext_matches_kernels_ref(order, rank):
    bk = get_backend("cext")
    dims, nnz = TENSORS[order]
    tensor = random_tensor(dims, nnz, seed=order)
    rng = np.random.default_rng(10 * order + rank)
    factors = canonical_factors([rng.standard_normal((d, rank)) for d in dims])
    tree = build_csf_set(tensor, allocation="one").trees[0]
    # the kernels take the factors in tree-level order
    factors = [factors[m] for m in tree.dim_perm]
    nroot = tree.fids[0].size
    assert nroot >= 3
    for lo, hi in ((0, nroot), (1, nroot - 1)):
        for level in range(order):
            _check_level(bk, tree, factors, level, lo, hi, rng)
