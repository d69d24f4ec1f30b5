"""Compiled kernel backends vs the NumPy reference: steady-state speedup.

Measures full MTTKRP sweeps (every mode, plans cached, workspaces warm)
on the same synthetic 3rd-order workload as
``test_perf_amortized.py``, once per registered backend that is available
in this environment.  Timings are minima over interleaved trials — the
backends alternate within each trial so shared-machine noise cannot favour
one side.  One-time compile/JIT cost is recorded separately
(``compile_seconds``; it runs under the ``backend.compile`` span and is
never part of a sweep measurement).

Asserts, for every available *compiled* backend (numba and/or cext):

* allclose (rtol 1e-10) agreement with the numpy reference on every
  mode × lock-policy output, and
* a >= 3x single-thread steady-state sweep speedup over numpy,

and writes the measurements (including a task-count scaling section at
1/2/4 tasks) to ``benchmarks/BENCH_backend.json``.  Skipped only when no
compiled backend exists at all — the equivalence half then still runs in
the default test suite via the pure-Python kernel tests.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backend import available_backends, get_backend
from repro.csf.build import build_csf_set
from repro.mttkrp.variants import mttkrp_csf
from repro.runtime.env import ChapelEnv
from repro.runtime.tasking import make_tasking_layer
from repro.tensor.generate import random_tensor

DIMS = (400, 300, 200)
NNZ = 120_000
RANK = 16
TRIALS = 7
SCALING_TASKS = (1, 2, 4)
MIN_SPEEDUP = 3.0
RESULT_PATH = Path(__file__).resolve().parent / "BENCH_backend.json"


@pytest.fixture(scope="module")
def workload():
    tensor = random_tensor(DIMS, NNZ, seed=7)
    rng = np.random.default_rng(123)
    factors = [np.asarray(rng.random((d, RANK))) for d in tensor.dims]
    csf_set = build_csf_set(tensor, allocation="one")  # root+internal+leaf
    return tensor, factors, csf_set


def _sweep(csf_set, factors, layer, backend):
    """One steady-state pass: every mode under both sync policies."""
    outs = []
    for force_locks in (False, True):
        for mode in range(len(factors)):
            out, info = mttkrp_csf(
                csf_set, factors, mode, layer=layer,
                force_locks=force_locks, backend=backend,
            )
            outs.append((force_locks, mode, info.algorithm, out))
    return outs


def _best_sweep_seconds(csf_set, factors, layer, names, trials=TRIALS):
    best = {name: float("inf") for name in names}
    for _ in range(trials):
        for name in names:
            start = time.perf_counter()
            _sweep(csf_set, factors, layer, name)
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def test_backend_speedup(benchmark, workload):
    compiled = [n for n in available_backends() if get_backend(n).compiled]
    if not compiled:
        pytest.skip("no compiled backend available (numba not installed, "
                    "no C compiler) — nothing to benchmark against numpy")
    tensor, factors, csf_set = workload
    names = ["numpy", *compiled]

    layer = make_tasking_layer(ChapelEnv(num_tasks=1))
    scaling_layers = {
        nt: make_tasking_layer(ChapelEnv(num_tasks=nt)) for nt in SCALING_TASKS
    }
    try:
        # --- correctness first: every backend agrees with numpy ---------
        reference = _sweep(csf_set, factors, layer, "numpy")
        for name in compiled:
            outs = _sweep(csf_set, factors, layer, name)
            for (fl, mode, algo, expected), (_, _, _, got) in zip(reference, outs):
                np.testing.assert_allclose(
                    got, expected, rtol=1e-10, atol=1e-12,
                    err_msg=f"{name}: mode {mode}, locks {fl}, {algo}",
                )

        # --- single-thread steady state, interleaved ---------------------
        best = benchmark.pedantic(
            lambda: _best_sweep_seconds(csf_set, factors, layer, names),
            rounds=1, iterations=1,
        )
        speedups = {n: best["numpy"] / best[n] for n in compiled}

        # --- task-count scaling per backend (GIL-release check) ----------
        scaling = {}
        for name in names:
            per_tasks = {}
            for nt, sl in scaling_layers.items():
                seconds = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    _sweep(csf_set, factors, sl, name)
                    seconds = min(seconds, time.perf_counter() - start)
                per_tasks[nt] = seconds
            scaling[name] = per_tasks

        record = {
            "dims": list(DIMS),
            "nnz": tensor.nnz,
            "rank": RANK,
            "trials": TRIALS,
            "backends_available": available_backends(),
            "compile_seconds": {
                n: get_backend(n).compile_seconds for n in compiled
            },
            "steady_sweep_seconds": best,
            "speedup_vs_numpy": speedups,
            "scaling_sweep_seconds_by_tasks": scaling,
            "min_speedup_guard": MIN_SPEEDUP,
        }
        RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
        for name in compiled:
            print(f"\n{name} backend: {speedups[name]:.2f}x vs numpy "
                  f"(numpy {best['numpy'] * 1e3:.1f} ms/sweep, "
                  f"{name} {best[name] * 1e3:.1f} ms/sweep, "
                  f"compile {record['compile_seconds'][name]:.2f}s)")

        for name in compiled:
            assert speedups[name] >= MIN_SPEEDUP, record
    finally:
        layer.shutdown()
        for sl in scaling_layers.values():
            sl.shutdown()
