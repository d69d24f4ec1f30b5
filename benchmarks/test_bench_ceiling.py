"""How much of the host's 2-thread ceiling the compiled MTTKRP reaches.

For every mode of the NETFLIX and YELP stand-ins this times, interleaved
with the shared :func:`repro.bench.runner.best_of` timer:

* ``mttkrp@1`` / ``mttkrp@2`` — :func:`~repro.mttkrp.variants.mttkrp_csf`
  on ``cext`` at 1 and 2 tasks, plans cached and workspaces warm;
* ``raw@1`` / ``raw@2`` — the bare cext range kernel over the whole tree
  on one thread, and over the two nnz-balanced halves on the 2-task
  layer's two threads (root: straight into the output; internal and
  leaf: each half into its own slot-form compact buffer, with no merge
  and no locks).  Both sides dispatch through the same worker pool, so
  the gap between them is the program's own glue.

``raw@1 / raw@2`` is the ceiling pure C reaches on this host;
``mttkrp@1 / mttkrp@2`` is what the program reaches.  Both land in
``benchmarks/BENCH_ceiling.json`` as guards with ``min`` 1.0 ("2 tasks
faster than 1"), recorded but not enforced, the way ``BENCH_shm.json``
records its 4-locale bound: on a shared 2-core host the raw ceiling
itself swings with the neighbours' load (docs/BACKENDS.md).

Correctness is asserted unconditionally: every 2-task output matches the
1-task one, and every raw output matches the MTTKRP it stands in for.
"""

from __future__ import annotations

import numpy as np
import pytest

from _bench_utils import BENCH_RANK, tensor_workload, write_record
from repro.backend import available_backends, canonical_factors, get_backend
from repro.bench.datasets import bench_dataset
from repro.bench.runner import best_of
from repro.csf.build import build_csf_set
from repro.mttkrp.partition import nnz_balanced_blocks
from repro.mttkrp.scatter import RowScatter
from repro.mttkrp.variants import mttkrp_csf
from repro.runtime.env import ChapelEnv
from repro.runtime.locks import make_mutex_pool
from repro.runtime.tasking import make_tasking_layer

pytestmark = pytest.mark.skipif(
    "cext" not in available_backends(), reason="no C compiler for the cext backend"
)

DATASETS = ("netflix", "yelp")
TRIALS = 30
TASKS = (1, 2)


class _RawMode:
    """The bare cext kernel for one mode: whole tree, or two halves."""

    def __init__(self, bk, tree, level, factors):
        self.bk = bk
        self.level = level
        self.tree = tree
        self.factors = [factors[m] for m in tree.dim_perm]  # tree-level order
        rank = factors[0].shape[1]
        dim = tree.dims[tree.dim_perm[level]]
        self.out = np.zeros((dim, rank))
        self.bounds = nnz_balanced_blocks(tree, 2)
        self.halves = []
        for t in range(2):
            lo, hi = int(self.bounds[t]), int(self.bounds[t + 1])
            first = lo
            last = hi
            for lvl in range(level):
                first, last = int(tree.fptr[lvl][first]), int(tree.fptr[lvl][last])
            scatter = RowScatter(tree.fids[level][first:last])
            self.halves.append((lo, hi, scatter.out_rows, scatter.slots(),
                                np.zeros((scatter.out_rows.size, rank))))

    def _kernel(self, lo, hi, out, slot):
        bk, tree, factors = self.bk, self.tree, self.factors
        if self.level == 0:
            bk.root_kernel(tree, factors, lo, hi, out)
        elif self.level == tree.nmodes - 1:
            bk.leaf_kernel(tree, factors, lo, hi, out, slot)
        else:
            bk.internal_kernel(tree, factors, self.level, lo, hi, out, slot)

    def one_thread(self):
        self.out.fill(0.0)
        self._kernel(int(self.bounds[0]), int(self.bounds[-1]), self.out, None)

    def _half(self, t):
        lo, hi, _, slot, buf = self.halves[t]
        if self.level == 0:
            self._kernel(lo, hi, self.out, None)
        else:
            self._kernel(lo, hi, buf, slot)

    def two_threads(self, layer):
        self.out.fill(0.0)
        layer.coforall(2, self._half)

    def merged(self):
        """The two-thread result as an MTTKRP output (outside the timing)."""
        if self.level != 0:
            self.out.fill(0.0)
            for _, _, rows, _, buf in self.halves:
                self.out[rows] += buf
        return self.out


def test_two_task_ceiling(benchmark):
    bk = get_backend("cext")
    layers = {nt: make_tasking_layer(ChapelEnv(num_tasks=nt)) for nt in TASKS}
    fns, checks, detail, workload = {}, [], {}, {}
    try:
        for ds in DATASETS:
            tensor = bench_dataset(ds).deduplicate()
            rng = np.random.default_rng(0)
            factors = canonical_factors(
                [rng.random((d, BENCH_RANK)) for d in tensor.dims])
            csf_set = build_csf_set(tensor)
            workload[ds] = tensor_workload(tensor)
            for mode in range(tensor.nmodes):
                tree, algorithm = csf_set.tree_for_mode(mode)
                level = 0 if algorithm == "root" else tree.level_of_mode(mode)
                raw = _RawMode(bk, tree, level, factors)
                key = f"{ds}.mode{mode}"
                # one pool per mode, shared across calls as cp_als does
                pool = make_mutex_pool("atomic", env=layers[2].env)
                for nt in TASKS:
                    fns[f"{key}.mttkrp@{nt}"] = (
                        lambda c=csf_set, f=factors, m=mode, layer=layers[nt], p=pool:
                        mttkrp_csf(c, f, m, layer=layer, pool=p, backend=bk))
                fns[f"{key}.raw@1"] = raw.one_thread
                fns[f"{key}.raw@2"] = lambda raw=raw: raw.two_threads(layers[2])
                _, info = mttkrp_csf(csf_set, factors, mode, layer=layers[2],
                                     backend=bk)
                detail[key] = {"algorithm": algorithm,
                               "locked_at_2_tasks": info.used_locks}
                checks.append((key, csf_set, factors, mode, raw))

        # --- correctness first -----------------------------------------
        for key, csf_set, factors, mode, raw in checks:
            one, _ = mttkrp_csf(csf_set, factors, mode, layer=layers[1], backend=bk)
            two, _ = mttkrp_csf(csf_set, factors, mode, layer=layers[2], backend=bk)
            np.testing.assert_allclose(two, one, rtol=1e-10, atol=1e-12, err_msg=key)
            raw.one_thread()
            np.testing.assert_allclose(raw.out, one, rtol=1e-10, atol=1e-12,
                                       err_msg=key)
            raw.two_threads(layers[2])
            np.testing.assert_allclose(raw.merged(), one, rtol=1e-10, atol=1e-12,
                                       err_msg=key)

        seconds = benchmark.pedantic(lambda: best_of(fns, TRIALS),
                                     rounds=1, iterations=1)
    finally:
        for layer in layers.values():
            layer.shutdown()

    guards = []
    for key in detail:
        for what in ("mttkrp", "raw"):
            ratio = seconds[f"{key}.{what}@1"] / seconds[f"{key}.{what}@2"]
            detail[key][f"{what}_speedup"] = ratio
            guards.append({"name": f"{key}_{what}_2_tasks_vs_1", "value": ratio,
                           "min": 1.0, "enforced": False})
    write_record(
        "ceiling",
        workload={"backend": "cext", "datasets": workload, "tasks": list(TASKS),
                  "rounds": TRIALS},
        seconds=seconds,
        guards=guards,
        detail=detail,
    )
    print()
    for key, d in detail.items():
        print(f"{key} ({d['algorithm']}): mttkrp 2 vs 1 task "
              f"{d['mttkrp_speedup']:.2f}x, raw ceiling {d['raw_speedup']:.2f}x")
