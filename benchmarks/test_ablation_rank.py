"""Ablation: decomposition rank vs kernel cost.

The paper fixes R=35 throughout; these benchmarks sweep the rank to show
the expected linear MTTKRP scaling (work is R per nonzero) and the
quadratic/cubic growth of the dense kernels (R² Grams, R³ Cholesky).
"""

import numpy as np
import pytest

from repro._util import as_rng
from repro.bench.runner import best_of
from repro.linalg.ata import gram, hadamard_gram
from repro.linalg.inverse import solve_normal_equations
from repro.mttkrp.variants import mttkrp_csf

RANKS = (4, 8, 16, 32)


@pytest.mark.parametrize("rank", RANKS)
def test_ablation_rank_mttkrp(benchmark, yelp_csf, yelp_tensor, rank):
    rng = as_rng(0)
    factors = [np.asarray(rng.random((d, rank))) for d in yelp_tensor.dims]

    def sweep():
        for mode in range(3):
            mttkrp_csf(yelp_csf, factors, mode)

    benchmark(sweep)


@pytest.mark.parametrize("rank", RANKS)
def test_ablation_rank_dense_kernels(benchmark, yelp_tensor, rank):
    rng = as_rng(0)
    factors = [np.asarray(rng.random((d, rank))) for d in yelp_tensor.dims]

    def kernels():
        grams = [gram(f) for f in factors]
        v = hadamard_gram(factors, 0, grams=grams)
        return solve_normal_equations(factors[0], v + np.eye(rank))

    benchmark(kernels)


def test_ablation_rank_scaling_is_subquadratic_for_mttkrp(benchmark, yelp_csf, yelp_tensor):
    """Measured MTTKRP time grows ~linearly in R (not quadratically)."""
    rng = as_rng(0)
    factors = {
        rank: [np.asarray(rng.random((d, rank))) for d in yelp_tensor.dims]
        for rank in (8, 32)
    }

    def sweep(rank):
        for mode in range(3):
            mttkrp_csf(yelp_csf, factors[rank], mode)

    times = benchmark.pedantic(
        lambda: best_of({"r8": lambda: sweep(8), "r32": lambda: sweep(32)}, 5),
        rounds=1, iterations=1,
    )
    # 4x rank should cost clearly less than the quadratic 4^2 = 16x
    # (generous bound: timing noise under a loaded benchmark session)
    assert times["r32"] / times["r8"] < 11
