"""§V-E — Qthreads × OpenMP interference on the LAPACK inverse.

Benchmarks the real normal-equations solve (the routine at the center of
§V-E) and asserts the interference model's published anchors.
"""

import numpy as np
import pytest

from _bench_utils import print_experiment
from repro.bench.runner import get_experiment
from repro.linalg.inverse import solve_normal_equations


def test_sec5e_real_inverse_kernel(benchmark, yelp_factors):
    """The actual solve on bench-scale factor matrices: potrf, potrs against
    the R×R identity, then one GEMM with the tall MTTKRP result."""
    rank = yelp_factors[0].shape[1]
    v = yelp_factors[0].T @ yelp_factors[0] + np.eye(rank)
    m = np.ascontiguousarray(yelp_factors[2])

    out = benchmark(lambda: solve_normal_equations(m, v))
    np.testing.assert_allclose(out @ v, m, atol=1e-8)


def test_sec5e_simulated_anchors(benchmark):
    result = benchmark.pedantic(get_experiment("sec5e"), rounds=1, iterations=1)
    rows = {row[0]: row for row in result.rows}
    serial = rows[1][1]
    # paper §V-E anchors at 32 OpenMP threads:
    assert rows[32][1] == pytest.approx(serial * 15, rel=0.05)    # 15x slower
    assert rows[32][2] == pytest.approx(serial / 2, rel=0.05)     # 2x faster
    assert rows[32][3] == pytest.approx(serial / 4.6, rel=0.05)   # +2.3x more
    # ... but even fully mitigated, still ~4x slower than C's inverse
    assert 3.0 <= rows[32][3] / rows[32][4] <= 6.0
    # mat_norm penalty in the paper's 7-13x band at 32
    penalty = float(rows[32][5].rstrip("x"))
    assert 7.0 <= penalty <= 13.0
    print_experiment("sec5e")
