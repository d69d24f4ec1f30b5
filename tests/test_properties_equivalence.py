"""Property-based equivalence suite: every execution configuration of the
simulated runtime must produce the *same numbers*.

Randomized COO tensors (orders 2-5, with duplicate coordinates and empty
slices as explicit edge cases) are decomposed/MTTKRP'd under every axis the
runtime exposes — tasking layer (qthreads/fifo), lock policy, task count,
tracing enabled vs disabled — and the results
must agree to ``allclose`` with the canonical serial run.  This is the
"non-perturbing" contract of docs/OBSERVABILITY.md plus the paper's claim
that its parallelization choices are bitwise-benign reorderings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import available_backends
from repro.core.cpals import cp_als
from repro.core.options import CpalsOptions
from repro.csf.build import build_csf_set
from repro.mttkrp.reference import dense_mttkrp_reference
from repro.mttkrp.variants import mttkrp_csf
from repro.observe import tracing
from repro.runtime.env import ChapelEnv
from repro.tensor.coo import SparseTensor

RTOL = 1e-10
ATOL = 1e-12


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def coo_tensors(draw, min_order=2, max_order=5, max_dim=7, max_nnz=36):
    """A random COO tensor: possibly-duplicate coordinates, some empty
    slices (dims are drawn independently of the occupied indices)."""
    order = draw(st.integers(min_order, max_order))
    dims = tuple(draw(st.integers(2, max_dim)) for _ in range(order))
    nnz = draw(st.integers(1, max_nnz))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # bias coordinates toward the low half of each mode so the high
    # indices form empty slices; duplicates arise naturally from the
    # birthday effect on small dims
    coords = np.stack(
        [rng.integers(0, max(1, (d + 1) // 2 + 1), size=nnz).clip(0, d - 1)
         for d in dims],
        axis=1,
    )
    values = rng.standard_normal(nnz)
    values[values == 0] = 1.0
    return SparseTensor(coords, values, dims).deduplicate()


@st.composite
def tensor_and_rank(draw):
    tensor = draw(coo_tensors())
    rank = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    factors = [rng.random((d, rank)) for d in tensor.dims]
    return tensor, factors


RUNTIME_CONFIGS = [
    # (tasking_layer, ntasks, mutex_kind, force_locks)
    ("qthreads", 1, "atomic", None),
    ("qthreads", 4, "atomic", None),
    ("qthreads", 4, "atomic", True),
    ("qthreads", 4, "sync", True),
    ("fifo", 4, "atomic", None),
    ("fifo", 4, "sync", True),
]

# Every backend that actually works in this environment (numpy always;
# cext when a C compiler builds it).  The whole equivalence
# matrix runs once per backend — the numbers must not depend on who
# executes the kernels.  This is deliberately NOT a skip: with no compiled
# backend present the suite still fully validates the numpy reference.
BACKENDS = available_backends()


# ----------------------------------------------------------------------
# MTTKRP equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=12, deadline=None)
@given(data=tensor_and_rank())
def test_mttkrp_agrees_across_all_runtime_configs(backend, data):
    tensor, factors = data
    csf_set = build_csf_set(tensor)
    for mode in range(tensor.nmodes):
        reference = dense_mttkrp_reference(tensor, factors, mode)
        for layer, ntasks, mutex, force in RUNTIME_CONFIGS:
            env = ChapelEnv(num_tasks=ntasks, tasking_layer=layer)
            out, _ = mttkrp_csf(
                csf_set, factors, mode,
                env=env, mutex_kind=mutex,
                force_locks=force, backend=backend,
            )
            np.testing.assert_allclose(
                out, reference, rtol=RTOL, atol=ATOL,
                err_msg=f"mode {mode}, backend {backend}, "
                        f"config {(layer, ntasks, mutex, force)}",
            )


@settings(max_examples=10, deadline=None)
@given(tensor_and_rank())
def test_mttkrp_unchanged_by_tracing(data):
    tensor, factors = data
    csf_set = build_csf_set(tensor)
    env = ChapelEnv(num_tasks=4)
    for mode in range(tensor.nmodes):
        plain, _ = mttkrp_csf(csf_set, factors, mode, env=env)
        with tracing() as rec:
            traced, _ = mttkrp_csf(csf_set, factors, mode, env=env)
        # locked parallel accumulation is ulp-nondeterministic (thread
        # interleaving reorders FP sums) with or without tracing, so the
        # contract is allclose at tight tolerance, not bitwise equality
        np.testing.assert_allclose(plain, traced, rtol=RTOL, atol=ATOL)
        assert rec.events_recorded > 0  # tracing actually observed the call


# ----------------------------------------------------------------------
# CP-ALS equivalence
# ----------------------------------------------------------------------
def _one_iteration(tensor, *, layer="qthreads", ntasks=1, mutex="atomic",
                   force_locks=None, traced=False):
    opts = CpalsOptions(
        max_iterations=1,
        tolerance=0.0,
        env=ChapelEnv(num_tasks=ntasks, tasking_layer=layer),
        mutex_kind=mutex,
        force_locks=force_locks,
        seed=11,
    )
    if traced:
        with tracing():
            return cp_als(tensor, 3, opts)
    return cp_als(tensor, 3, opts)


@settings(max_examples=8, deadline=None)
@given(coo_tensors(max_order=4, max_nnz=30))
def test_cp_als_iteration_agrees_across_layers_and_locks(tensor):
    base = _one_iteration(tensor)
    for kwargs in (
        dict(ntasks=4),
        dict(ntasks=4, force_locks=True),
        dict(ntasks=4, mutex="sync", force_locks=True),
        dict(layer="fifo", ntasks=4),
        dict(ntasks=4, traced=True),
        dict(traced=True),
    ):
        other = _one_iteration(tensor, **kwargs)
        assert other.fit == pytest.approx(base.fit, rel=1e-9, abs=1e-12), kwargs
        np.testing.assert_allclose(
            other.kruskal.weights, base.kruskal.weights, rtol=RTOL, atol=ATOL,
            err_msg=str(kwargs),
        )
        for fa, fb in zip(other.kruskal.factors, base.kruskal.factors):
            np.testing.assert_allclose(fa, fb, rtol=RTOL, atol=ATOL,
                                       err_msg=str(kwargs))



@pytest.mark.parametrize("backend", BACKENDS)
def test_cp_als_agrees_across_backends(backend):
    """A full multi-iteration CP-ALS run is backend-invariant."""
    rng = np.random.default_rng(21)
    dims = (9, 7, 6, 5)
    coords = np.stack([rng.integers(0, d, size=60) for d in dims], axis=1)
    tensor = SparseTensor(coords, rng.standard_normal(60), dims).deduplicate()

    def run(bk):
        opts = CpalsOptions(
            max_iterations=3, tolerance=0.0, seed=11,
            env=ChapelEnv(num_tasks=4), backend=bk,
        )
        return cp_als(tensor, 3, opts)

    base = run("numpy")
    other = run(backend)
    assert other.engine_stats["backend"] == backend
    assert other.fit == pytest.approx(base.fit, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(
        other.kruskal.weights, base.kruskal.weights, rtol=RTOL, atol=ATOL
    )
    for fa, fb in zip(other.kruskal.factors, base.kruskal.factors):
        np.testing.assert_allclose(fa, fb, rtol=RTOL, atol=ATOL)


# ----------------------------------------------------------------------
# deterministic edge cases (not random: pinned shapes)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_duplicate_coordinates_are_summed_identically(backend):
    coords = np.array([[0, 0, 0], [0, 0, 0], [1, 1, 1], [1, 1, 1], [2, 0, 1]])
    values = np.array([1.0, 2.0, 3.0, -1.0, 5.0])
    tensor = SparseTensor(coords, values, (3, 2, 2)).deduplicate()
    assert tensor.nnz == 3
    rng = np.random.default_rng(0)
    factors = [rng.random((d, 2)) for d in tensor.dims]
    csf_set = build_csf_set(tensor)
    for mode in range(3):
        ref = dense_mttkrp_reference(tensor, factors, mode)
        out, _ = mttkrp_csf(csf_set, factors, mode,
                            env=ChapelEnv(num_tasks=4), backend=backend)
        np.testing.assert_allclose(out, ref, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_slices_survive_every_config(backend):
    # mode-0 slices 3 and 4 and mode-2 slice 0 are empty
    coords = np.array([[0, 0, 1], [1, 1, 2], [2, 0, 1], [2, 2, 3]])
    values = np.array([1.0, -2.0, 3.0, 4.0])
    tensor = SparseTensor(coords, values, (5, 3, 4))
    rng = np.random.default_rng(1)
    factors = [rng.random((d, 3)) for d in tensor.dims]
    csf_set = build_csf_set(tensor, allocation="all")
    for mode in range(3):
        ref = dense_mttkrp_reference(tensor, factors, mode)
        for layer, ntasks, mutex, force in RUNTIME_CONFIGS:
            out, _ = mttkrp_csf(
                csf_set, factors, mode,
                env=ChapelEnv(num_tasks=ntasks, tasking_layer=layer),
                mutex_kind=mutex, force_locks=force, backend=backend,
            )
            np.testing.assert_allclose(out, ref, rtol=RTOL, atol=ATOL)


def test_order5_tensor_one_iteration_matrix():
    rng = np.random.default_rng(9)
    dims = (4, 3, 5, 3, 4)
    coords = np.stack([rng.integers(0, d, size=25) for d in dims], axis=1)
    tensor = SparseTensor(coords, rng.standard_normal(25), dims).deduplicate()
    base = _one_iteration(tensor)
    fast = _one_iteration(tensor, ntasks=4, traced=True)
    np.testing.assert_allclose(fast.kruskal.weights, base.kruskal.weights,
                               rtol=RTOL, atol=ATOL)
    for fa, fb in zip(fast.kruskal.factors, base.kruskal.factors):
        np.testing.assert_allclose(fa, fb, rtol=RTOL, atol=ATOL)
