"""Amortized MTTKRP engine: cold vs steady-state micro-benchmark.

Measures repeated :func:`repro.mttkrp.mttkrp_csf` calls on a synthetic
3rd-order tensor (>= 1e5 nonzeros) in two configurations:

* **seed** — :func:`seed_mttkrp`, the pre-engine MTTKRP kept here as the
  baseline, on a ``persistent=False`` tasking layer: thread spawn per
  ``coforall``, plan-less tree walks, ``np.add.at`` scatters, per-call
  partitioning, argsort, mutex pool and buffer allocation;
* **amortized** — the defaults: persistent worker pool, cached scatter
  plans and segment-sum operators, reusable workspaces.

Asserts that the seed baseline matches the dense oracle, ``np.allclose``
agreement between the two on every algorithm/lock path, and a
>= 2x steady-state speedup over a full sweep (every mode under both sync
policies), and writes the measurements to ``benchmarks/BENCH_mttkrp.json``
for tracking.  Timings are the minimum over interleaved trials — the two
configurations alternate within each trial — so shared-machine noise
cannot favour either side.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.csf.build import build_csf_set
from repro.mttkrp.csf_kernels import (
    internal_range_vectorized,
    leaf_range_vectorized,
    root_range_vectorized,
)
from repro.mttkrp.partition import nnz_balanced_blocks
from repro.mttkrp.reference import dense_mttkrp_reference
from repro.mttkrp.variants import mttkrp_csf
from repro.runtime.env import ChapelEnv
from repro.runtime.locks import DEFAULT_POOL_SIZE, make_mutex_pool
from repro.runtime.reductions import array_reduce_buffers
from repro.runtime.tasking import make_tasking_layer
from repro.tensor.generate import random_tensor

DIMS = (400, 300, 200)
NNZ = 120_000
RANK = 16
NTASKS = 2
TRIALS = 7
LOCK_CONFIGS = (False, True)
RESULT_PATH = Path(__file__).resolve().parent / "BENCH_mttkrp.json"


@pytest.fixture(scope="module")
def workload():
    tensor = random_tensor(DIMS, NNZ, seed=7)
    rng = np.random.default_rng(123)
    factors = [np.asarray(rng.random((d, RANK))) for d in tensor.dims]
    csf_set = build_csf_set(tensor, allocation="one")  # root+internal+leaf
    return tensor, factors, csf_set


def seed_mttkrp(csf_set, factors, mode, layer, *, force_locks):
    """The pre-engine vectorized MTTKRP: everything per call.

    Partitions the tree, walks it plan-less, and scatters with
    ``np.add.at`` — into fresh per-task buffers when privatized, or
    bucket by bucket under a fresh mutex pool after a per-call argsort.
    """
    tree, algorithm = csf_set.tree_for_mode(mode)
    ntasks = layer.env.num_tasks
    out = np.zeros((tree.dims[mode], factors[0].shape[1]))
    bounds = nnz_balanced_blocks(tree, ntasks)
    if algorithm == "root":
        layer.coforall(ntasks, lambda tid: root_range_vectorized(
            tree, factors, out, int(bounds[tid]), int(bounds[tid + 1])))
        return out
    level = tree.level_of_mode(mode)

    def contribs(tid):
        lo, hi = int(bounds[tid]), int(bounds[tid + 1])
        if algorithm == "leaf":
            return leaf_range_vectorized(tree, factors, lo, hi)
        return internal_range_vectorized(tree, factors, level, lo, hi)

    if force_locks and ntasks > 1:
        pool = make_mutex_pool("atomic", size=DEFAULT_POOL_SIZE, env=layer.env)

        def locked(tid):
            rows, c = contribs(tid)
            buckets = rows % pool.size
            order = np.argsort(buckets, kind="stable")
            rows, c, buckets = rows[order], c[order], buckets[order]
            starts = np.flatnonzero(np.diff(buckets)) + 1
            for s, e in zip([0, *starts], [*starts, rows.size]):
                pool.acquire(int(buckets[s]))
                try:
                    np.add.at(out, rows[s:e], c[s:e])
                finally:
                    pool.release(int(buckets[s]))

        layer.coforall(ntasks, locked)
        return out
    buffers = [np.zeros_like(out) for _ in range(ntasks)]

    def private(tid):
        np.add.at(buffers[tid], *contribs(tid))

    layer.coforall(ntasks, private)
    array_reduce_buffers(layer, out, buffers)
    return out


def _sweep(csf_set, factors, layer, *, seed):
    """One full pass: every mode under both sync policies."""
    outs = []
    for force_locks in LOCK_CONFIGS:
        for mode in range(len(factors)):
            if seed:
                out = seed_mttkrp(csf_set, factors, mode, layer,
                                  force_locks=force_locks)
                algorithm = csf_set.tree_for_mode(mode)[1]
            else:
                out, info = mttkrp_csf(
                    csf_set, factors, mode, layer=layer,
                    force_locks=force_locks,
                )
                algorithm = info.algorithm
            outs.append((force_locks, mode, algorithm, out))
    return outs


def _best_sweep_seconds(csf_set, factors, configs, trials=TRIALS):
    """Per-config best single-sweep time over interleaved trials."""
    best = {name: float("inf") for name, _, _ in configs}
    for _ in range(trials):
        for name, layer, seed in configs:
            start = time.perf_counter()
            _sweep(csf_set, factors, layer, seed=seed)
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def _check_seed_against_oracle():
    """The seed baseline is an MTTKRP: it matches the dense oracle on a
    small tensor, every mode, both sync policies, one and two tasks."""
    tensor = random_tensor((9, 7, 8), 150, seed=3)
    rng = np.random.default_rng(5)
    factors = [rng.random((d, 4)) for d in tensor.dims]
    csf_set = build_csf_set(tensor, allocation="one")
    for ntasks in (1, NTASKS):
        layer = make_tasking_layer(ChapelEnv(num_tasks=ntasks), persistent=False)
        for force_locks in LOCK_CONFIGS:
            for mode in range(tensor.nmodes):
                got = seed_mttkrp(csf_set, factors, mode, layer,
                                  force_locks=force_locks)
                want = dense_mttkrp_reference(tensor, factors, mode)
                np.testing.assert_allclose(got, want, atol=1e-10)


def test_amortized_engine_speedup(benchmark, workload):
    tensor, factors, csf_set = workload
    env = ChapelEnv(num_tasks=NTASKS)
    seed_layer = make_tasking_layer(env, persistent=False)
    amortized_layer = make_tasking_layer(env)
    try:
        # --- correctness: the seed matches the oracle, and every
        # algorithm/lock path of the engine agrees with the seed ---
        _check_seed_against_oracle()
        seed_outs = _sweep(csf_set, factors, seed_layer, seed=True)
        cold_start = time.perf_counter()
        amortized_outs = _sweep(csf_set, factors, amortized_layer, seed=False)
        cold_seconds = time.perf_counter() - cold_start
        algorithms = set()
        for (fl, mode, algo, expected), (_, _, _, got) in zip(seed_outs, amortized_outs):
            assert np.allclose(got, expected, atol=1e-10), (fl, mode, algo)
            algorithms.add(algo)
        assert algorithms == {"root", "internal", "leaf"}

        # --- timing: steady state (plans cached, pool warm) vs seed ---
        best = benchmark.pedantic(
            lambda: _best_sweep_seconds(
                csf_set, factors,
                [("seed", seed_layer, True), ("steady", amortized_layer, False)],
            ),
            rounds=1, iterations=1,
        )
        seed_seconds, steady_seconds = best["seed"], best["steady"]
        speedup = seed_seconds / steady_seconds

        ctx_stats = csf_set.mttkrp_context.stats()
        pool_stats = amortized_layer.worker_pool.stats()
        record = {
            "dims": list(DIMS),
            "nnz": tensor.nnz,
            "rank": RANK,
            "num_tasks": NTASKS,
            "trials": TRIALS,
            "cold_sweep_seconds": cold_seconds,
            "steady_sweep_seconds": steady_seconds,
            "seed_sweep_seconds": seed_seconds,
            "steady_speedup_vs_seed": speedup,
            "plan_cache": ctx_stats,
            "worker_pool": pool_stats,
        }
        RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(f"\namortized MTTKRP engine: {speedup:.2f}x vs seed "
              f"(seed {seed_seconds * 1e3:.1f} ms/sweep, "
              f"steady {steady_seconds * 1e3:.1f} ms/sweep, "
              f"cold {cold_seconds * 1e3:.1f} ms)")

        assert ctx_stats["plan_hits"] > 0
        assert pool_stats["dispatches"] > 0
        assert speedup >= 2.0, record
    finally:
        seed_layer.shutdown()
        amortized_layer.shutdown()
