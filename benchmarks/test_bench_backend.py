"""Compiled kernel backends vs the NumPy reference: steady-state speedup.

Measures full MTTKRP sweeps (every mode, plans cached, workspaces warm)
on the shared ``mttkrp_workload`` fixture, once per backend that is
available in this environment, at 1, 2 and 4 tasks.  Timings are
minima over interleaved rounds (:func:`repro.bench.runner.best_of`) — the
configurations alternate within each round so shared-machine noise cannot
favour one side.  One-time compile cost is recorded separately
(``compile_seconds``; it runs under the ``backend.compile`` span and is
never part of a sweep measurement).

Asserts, for the compiled backend (cext) when it is available:

* allclose (rtol 1e-10) agreement with the numpy reference on every
  mode × lock-policy output, and
* a >= 10x single-thread steady-state sweep speedup over numpy (the
  register-blocked kernels read 13.2-15.9x in 6 of 6 runs on the 2-core
  VM, BLAS pinned; the whole-row kernels before them 5.3-6.8x),

and writes the measurements (every ``backend@tasks`` sweep) to
``benchmarks/BENCH_backend.json``.  Skipped only when no compiled backend
exists at all — the equivalence half then still runs in the default test
suite via the pure-Python kernel tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from _bench_utils import tensor_workload, write_record
from repro.backend import available_backends, get_backend
from repro.bench.runner import best_of
from repro.mttkrp.variants import mttkrp_csf
from repro.runtime.env import ChapelEnv
from repro.runtime.tasking import make_tasking_layer

TRIALS = 7
SCALING_TASKS = (1, 2, 4)
MIN_SPEEDUP = 10.0


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


def test_backend_speedup(benchmark, mttkrp_workload):
    compiled = [n for n in available_backends() if get_backend(n).compiled]
    if not compiled:
        pytest.skip("no compiled backend available (no C compiler) — "
                    "nothing to benchmark against numpy")
    tensor, factors, csf_set = mttkrp_workload
    names = ["numpy", *compiled]
    layers = {nt: make_tasking_layer(ChapelEnv(num_tasks=nt)) for nt in SCALING_TASKS}
    try:
        # --- correctness first: every backend agrees with numpy ---------
        reference = _sweep(csf_set, factors, layers[1], "numpy")
        for name in compiled:
            outs = _sweep(csf_set, factors, layers[1], name)
            for (fl, mode, algo, expected), (_, _, _, got) in zip(reference, outs):
                np.testing.assert_allclose(
                    got, expected, rtol=1e-10, atol=1e-12,
                    err_msg=f"{name}: mode {mode}, locks {fl}, {algo}",
                )

        # --- every backend at every task count, interleaved; the 1-task
        # sweeps are the single-thread steady state the guard reads -------
        seconds = benchmark.pedantic(
            lambda: best_of({
                f"{name}@{nt}": lambda name=name, layer=layer: _sweep(
                    csf_set, factors, layer, name)
                for name in names for nt, layer in layers.items()
            }, TRIALS),
            rounds=1, iterations=1,
        )
        speedups = {n: seconds["numpy@1"] / seconds[f"{n}@1"] for n in compiled}
        compile_seconds = {n: get_backend(n).compile_seconds for n in compiled}
        record = write_record(
            "backend",
            workload=tensor_workload(tensor, backend=",".join(names),
                                     tasks=list(SCALING_TASKS), rounds=TRIALS),
            seconds=seconds,
            guards=[{"name": f"{n}_speedup_vs_numpy", "value": speedups[n],
                     "min": MIN_SPEEDUP, "enforced": True} for n in compiled],
            detail={"compile_seconds": compile_seconds},
        )
        for name in compiled:
            print(f"\n{name} backend: {speedups[name]:.2f}x vs numpy "
                  f"(numpy {seconds['numpy@1'] * 1e3:.1f} ms/sweep, "
                  f"{name} {seconds[f'{name}@1'] * 1e3:.1f} ms/sweep, "
                  f"compile {compile_seconds[name]:.2f}s)")

        for name in compiled:
            assert speedups[name] >= MIN_SPEEDUP, record
    finally:
        for layer in layers.values():
            layer.shutdown()
