"""Shared fixtures for the pytest-benchmark harness.

Each ``benchmarks/test_*.py`` regenerates one of the paper's tables or
figures: it wall-clocks the real kernels that experiment exercises (the
``benchmark`` fixture), prints the paper-scale simulated series, and
asserts the experiment's shape criteria (DESIGN.md §4).

Run with::

    pytest benchmarks/ --benchmark-only

Heavier interpreted kernels use ``benchmark.pedantic`` with few rounds; the
whole suite is sized to finish in a few minutes.
"""

from __future__ import annotations

import numpy as np
import pytest

from _bench_utils import BENCH_RANK
from repro._util import as_rng
from repro.bench.datasets import bench_dataset
from repro.csf.build import build_csf_set
from repro.tensor.generate import random_tensor


@pytest.fixture(scope="session")
def yelp_tensor():
    return bench_dataset("yelp")


@pytest.fixture(scope="session")
def nell2_tensor():
    return bench_dataset("nell-2")


@pytest.fixture(scope="session")
def yelp_csf(yelp_tensor):
    return build_csf_set(yelp_tensor, allocation="two")


@pytest.fixture(scope="session")
def nell2_csf(nell2_tensor):
    return build_csf_set(nell2_tensor, allocation="two")


@pytest.fixture(scope="session")
def yelp_factors(yelp_tensor):
    rng = as_rng(0)
    return [np.asarray(rng.random((d, BENCH_RANK))) for d in yelp_tensor.dims]


@pytest.fixture(scope="session")
def nell2_factors(nell2_tensor):
    rng = as_rng(0)
    return [np.asarray(rng.random((d, BENCH_RANK))) for d in nell2_tensor.dims]


@pytest.fixture(scope="module")
def mttkrp_workload():
    """The steady-state MTTKRP guards' workload: a 400x300x200 tensor with
    120k nonzeros, its factors and a root+internal+leaf CSF set, so every
    MTTKRP algorithm runs.  Module scope gives each guard its own CSF set,
    so the plan-cache counters in its record are its own."""
    tensor = random_tensor((400, 300, 200), 120_000, seed=7)
    rng = np.random.default_rng(123)
    factors = [np.asarray(rng.random((d, BENCH_RANK))) for d in tensor.dims]
    return tensor, factors, build_csf_set(tensor, allocation="one")
