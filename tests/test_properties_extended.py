"""Property-based tests for the extension subsystems.

Invariants: completion losses/solvers (ALS optimality, CCD residual
exactness, prediction multilinearity), constrained proxes (prox inequality,
feasibility), distributed partitions (conservation, layer containment, grid
algebra).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.completion.als import als_update_mode
from repro.completion.ccd import ccd_epoch
from repro.completion.losses import predict_entries, residuals, squared_loss
from repro.constrained.constraints import (
    LassoConstraint,
    NonNegConstraint,
    RidgeConstraint,
)
from repro.distributed.grid import LocaleGrid, choose_grid
from repro.distributed.partition import partition_medium_grain
from repro.tensor.coo import SparseTensor


@st.composite
def observed_tensor(draw):
    """A small 3rd-order tensor with unique observed coordinates."""
    dims = tuple(draw(st.integers(2, 7)) for _ in range(3))
    total = int(np.prod(dims))
    nnz = draw(st.integers(3, min(40, total)))
    flat = draw(st.lists(st.integers(0, total - 1), min_size=nnz, max_size=nnz,
                         unique=True))
    coords = np.stack(np.unravel_index(np.asarray(flat), dims), axis=1)
    values = np.asarray(draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=nnz, max_size=nnz)))
    return SparseTensor(coords, values, dims)


def _factors(tensor, rank, seed):
    rng = np.random.default_rng(seed)
    return [rng.random((d, rank)) * 0.7 + 0.1 for d in tensor.dims]


# ----------------------------------------------------------------------
# completion
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(observed_tensor(), st.integers(1, 3), st.integers(0, 2**16))
def test_prediction_multilinear_in_each_factor(tensor, rank, seed):
    """Scaling one factor by c scales every prediction by c."""
    factors = _factors(tensor, rank, seed)
    base = predict_entries(tensor.coords, factors)
    scaled = [f.copy() for f in factors]
    scaled[1] = scaled[1] * 3.0
    np.testing.assert_allclose(
        predict_entries(tensor.coords, scaled), 3.0 * base, rtol=1e-10
    )


@settings(max_examples=20, deadline=None)
@given(observed_tensor(), st.integers(1, 3), st.integers(0, 2**16))
def test_als_mode_update_never_increases_loss(tensor, rank, seed):
    factors = _factors(tensor, rank, seed)
    lam = 1e-2
    before = squared_loss(tensor.coords, tensor.values, factors, lam)
    als_update_mode(tensor, factors, 0, lam)
    after = squared_loss(tensor.coords, tensor.values, factors, lam)
    assert after <= before + 1e-8


@settings(max_examples=20, deadline=None)
@given(observed_tensor(), st.integers(1, 3), st.integers(0, 2**16))
def test_ccd_returns_exact_residual(tensor, rank, seed):
    factors = _factors(tensor, rank, seed)
    res = ccd_epoch(tensor, factors, regularization=1e-3)
    np.testing.assert_allclose(
        res, residuals(tensor.coords, tensor.values, factors), atol=1e-9
    )


# ----------------------------------------------------------------------
# constrained proxes
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**16),
       st.floats(0.01, 2.0), st.floats(0.1, 5.0))
def test_prox_inequality_lasso(i, r, seed, weight, rho):
    """prox output must achieve an objective no worse than the input."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((i, r))
    c = LassoConstraint(weight=weight)
    out = c.prox(m, rho)
    obj = lambda a: c.penalty(a) + rho / 2 * float(((a - m) ** 2).sum())
    assert obj(out) <= obj(m) + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**16),
       st.floats(0.1, 5.0))
def test_prox_nonneg_is_projection(i, r, seed, rho):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((i, r))
    c = NonNegConstraint()
    out = c.prox(m, rho)
    assert c.satisfied(out)
    np.testing.assert_allclose(out, np.maximum(m, 0.0))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**16),
       st.floats(0.01, 3.0), st.floats(0.1, 5.0))
def test_prox_ridge_closed_form(i, r, seed, weight, rho):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((i, r))
    c = RidgeConstraint(weight=weight)
    out = c.prox(m, rho)
    # stationarity: weight*out + rho*(out - m) == 0
    np.testing.assert_allclose(weight * out + rho * (out - m), 0.0, atol=1e-10)


# ----------------------------------------------------------------------
# distributed partitions
# ----------------------------------------------------------------------
@st.composite
def tensor_and_grid(draw):
    tensor = draw(observed_tensor())
    shape = tuple(
        draw(st.integers(1, min(3, tensor.dims[m]))) for m in range(3)
    )
    return tensor, LocaleGrid(shape)


@settings(max_examples=25, deadline=None)
@given(tensor_and_grid())
def test_partition_conserves_and_contains(tg):
    tensor, grid = tg
    part = partition_medium_grain(tensor, grid)
    assert sum(part.nnz_per_locale) == tensor.nnz
    # each locale's indices stay within one layer per mode
    for sub in part.locale_tensors:
        if sub.nnz == 0:
            continue
        for m in range(3):
            layers = {part.layer_of_index(m, int(i)) for i in sub.mode_indices(m)}
            assert len(layers) == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2**16))
def test_choose_grid_locale_count(nlocales, seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(64, 1000, 3))
    grid = choose_grid(dims, nlocales)
    assert grid.nlocales == nlocales
    assert all(g <= d for g, d in zip(grid.shape, dims))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_grid_rank_bijection(shape):
    grid = LocaleGrid(tuple(shape))
    ranks = [grid.rank_of(c) for c in grid.coords()]
    assert sorted(ranks) == list(range(grid.nlocales))
