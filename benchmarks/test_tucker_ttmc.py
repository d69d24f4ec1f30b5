"""Benchmark: the TTMc kernel and Tucker HOOI (SPLATT's second workload).

TTMc's per-nonzero cost is the *outer* product of factor rows (Π R_m
flops) where MTTKRP's is the Hadamard (R flops) — the blow-up this
benchmark quantifies at matched ranks.
"""

import numpy as np
import pytest

from repro._util import as_rng
from repro.bench.runner import best_of
from repro.mttkrp.variants import mttkrp
from repro.tucker.hooi import tucker_hooi
from repro.tucker.ttmc import ttmc

RANKS = (8, 8, 8)


@pytest.fixture(scope="module")
def tucker_factors(yelp_tensor):
    rng = as_rng(0)
    return [np.asarray(rng.random((d, r))) for d, r in zip(yelp_tensor.dims, RANKS)]


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_ttmc_kernel(benchmark, yelp_tensor, tucker_factors, mode):
    benchmark(lambda: ttmc(yelp_tensor, tucker_factors, mode))


def test_ttmc_vs_mttkrp_cost(benchmark, yelp_tensor, tucker_factors):
    """At rank 8, TTMc moves ~8x the per-nonzero data of MTTKRP; assert the
    measured ordering (TTMc costlier) without pinning the exact factor."""

    def sweep(kernel):
        for mode in range(3):
            kernel(yelp_tensor, tucker_factors, mode)

    t = benchmark.pedantic(
        lambda: best_of({"ttmc": lambda: sweep(ttmc),
                         "mttkrp": lambda: sweep(mttkrp)}, 2),
        rounds=1, iterations=1,
    )
    assert t["ttmc"] > t["mttkrp"] * 0.8  # TTMc is not cheaper


def test_tucker_hooi_run(benchmark, nell2_tensor):
    result = benchmark.pedantic(
        lambda: tucker_hooi(nell2_tensor, (6, 6, 6), max_iterations=3, tolerance=0),
        rounds=2, iterations=1,
    )
    assert result.iterations == 3
    fits = np.asarray(result.fits)
    assert (np.diff(fits) > -1e-9).all()
