#!/usr/bin/env python3
"""Reproduce the paper's performance study from the command line.

Walks the three optimization stories of §V — sorting (Fig 1), MTTKRP row
access (Figs 2-3), and the mutex pool (Fig 4) — first *measuring* the real
kernels at bench scale, then printing the *simulated* paper-scale curves,
and ends with the headline table (83-96% of C, near-linear scaling).

For the full experiment set, use the CLI instead:

    python -m repro.bench            # everything, simulated
    python -m repro.bench --measured fig2 fig4

Run:  python examples/performance_study.py
"""

import time

import numpy as np

import repro
from repro.bench.runner import get_experiment
from repro.runtime.accounting import CostCounters
from repro.runtime.locks import make_mutex_pool
from repro.runtime.tasking import make_tasking_layer

RANK = 16


def measure(label, fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    print(f"  {label:30s} {best:.4f} s")
    return best


print("=" * 72)
print("Story 1 — sorting (paper Fig 1): measured ladder on NELL-2")
print("=" * 72)
nell = repro.synthetic_dataset("nell-2")
for variant in repro.SORT_VARIANTS:
    measure(f"sort[{variant}]", lambda v=variant: repro.sort_tensor(nell, 0, variant=v))

print()
print(get_experiment("fig1")().render())

print()
print("=" * 72)
print("Story 2 — MTTKRP row access (paper Figs 2-3): measured ladder on YELP")
print("=" * 72)
yelp = repro.synthetic_dataset("yelp")
csf_set = repro.build_csf_set(yelp)
rng = np.random.default_rng(0)
factors = [rng.random((d, RANK)) for d in yelp.dims]
for variant in repro.ACCESS_VARIANTS:
    def sweep(v=variant):
        for mode in range(3):
            repro.mttkrp_csf(csf_set, factors, mode, variant=v)
    measure(f"mttkrp[{variant}] x3 modes", sweep, repeats=2)

print()
print(get_experiment("fig2")().render())

print()
print("=" * 72)
print("Story 3 — mutex pool (paper Fig 4): real lock pools, 4 threads")
print("=" * 72)
locked_mode = next(m for m in range(3) if csf_set.tree_for_mode(m)[1] != "root")
for kind, layer_name in (("sync", "qthreads"), ("atomic", "qthreads"), ("sync", "fifo")):
    env = repro.ChapelEnv(num_tasks=4, tasking_layer=layer_name)
    counters = CostCounters()
    layer = make_tasking_layer(env)
    pool = make_mutex_pool(kind, size=8, env=env, counters=counters)
    start = time.perf_counter()
    repro.mttkrp_csf(
        csf_set, factors, locked_mode,
        variant="vectorized", layer=layer, pool=pool, force_locks=True,
    )
    elapsed = time.perf_counter() - start
    snap = counters.snapshot()
    print(f"  {kind}/{layer_name:9s} {elapsed:.4f} s   acquires={snap['lock_acquires']:4d} "
          f"contended={snap['lock_contended']:3d} sleeps={snap['sync_sleeps']}")

print()
print(get_experiment("fig4")().render())

print()
print("=" * 72)
print("Headline")
print("=" * 72)
print(get_experiment("headline")().render())
