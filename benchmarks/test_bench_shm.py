"""Multi-process shared-memory transport: scale-out on one node.

Decomposes the NETFLIX stand-in — the largest Table I generator signature
(paper scale 100M nonzeros; bench scale preserves the shape at 100k) —
with ``transport="proc"`` at 1, 2 and 4 locales and measures
``DistributedResult.seconds``, which times the ALS sweep only (worker
spawn, shared-memory mapping and per-locale CSF construction are
excluded, mirroring how the paper's timed regions exclude one-time
setup).  Timings are minima over ``TRIALS`` full runs.

Correctness is asserted unconditionally: the 4-locale proc run must
match the simulated transport allclose (rtol 1e-10) and meter identical
communication.  The ``MIN_SPEEDUP`` guard (>= 1.7x at 4 locales vs 1) is
enforced only when the machine actually has >= 4 usable cores —
process-level scale-out is physically impossible on fewer — but the
measurement record is written to ``BENCH_shm.json`` either way, with the
guard's ``enforced`` saying which case applied (CI runners have 4 vCPUs
and do enforce it).  Timings read ``result.seconds`` rather than
:func:`repro.bench.runner.best_of`, whose clock would include the worker
spawn the paper's timed regions leave out.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from _bench_utils import BENCH_RANK, host_stamp, tensor_workload, write_record
from repro.backend import resolve_backend
from repro.bench.datasets import bench_dataset
from repro.distributed import distributed_cp_als, leaked_segments

DATASET = "netflix"
LOCALE_COUNTS = (1, 2, 4)
ITERATIONS = 5
TRIALS = 3
MIN_SPEEDUP = 1.7
MIN_CORES_FOR_GUARD = 4


def _run(tensor, *, transport: str, nlocales: int):
    return distributed_cp_als(
        tensor, BENCH_RANK, nlocales=nlocales, transport=transport,
        max_iterations=ITERATIONS, tolerance=0.0, seed=0,
    )


def test_shm_scaling(benchmark):
    tensor = bench_dataset(DATASET).deduplicate()
    # workers resolve the library default backend, as this process does
    backend = resolve_backend(None).name
    cores = host_stamp(backend)["cpus_usable"]

    # --- correctness first: proc == sim, bit-compatible metering --------
    sim = _run(tensor, transport="sim", nlocales=4)
    proc = _run(tensor, transport="proc", nlocales=4)
    assert proc.fit == pytest.approx(sim.fit, rel=1e-10)
    for a, b in zip(proc.kruskal.factors, sim.kruskal.factors):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)
    assert proc.comm == sim.comm
    assert leaked_segments() == []

    # --- sweep wall-clock, best of TRIALS per locale count --------------
    def measure():
        best = {n: float("inf") for n in LOCALE_COUNTS}
        for _ in range(TRIALS):
            for n in LOCALE_COUNTS:
                res = _run(tensor, transport="proc", nlocales=n)
                best[n] = min(best[n], res.seconds)
        return best

    best = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert leaked_segments() == []

    speedup = {n: best[1] / best[n] for n in LOCALE_COUNTS}
    guard_enforced = cores >= MIN_CORES_FOR_GUARD
    record = write_record(
        "shm",
        workload=tensor_workload(tensor, backend=backend, dataset=DATASET,
                                 iterations=ITERATIONS, rounds=TRIALS),
        seconds={f"proc@{n}": best[n] for n in LOCALE_COUNTS},
        guards=[{"name": "speedup_4_locales_vs_1", "value": speedup[4],
                 "min": MIN_SPEEDUP, "enforced": guard_enforced}],
        detail={"comm": asdict(proc.comm)},
    )
    print(f"\nshm scaling ({cores} cores): " + ", ".join(
        f"{n} locales {best[n] * 1e3:.0f} ms ({speedup[n]:.2f}x)"
        for n in LOCALE_COUNTS
    ))

    if not guard_enforced:
        pytest.skip(
            f"only {cores} usable core(s): a {MIN_SPEEDUP}x multi-process "
            f"speedup needs >= {MIN_CORES_FOR_GUARD}; record written to "
            f"BENCH_shm.json without enforcing the guard"
        )
    assert speedup[4] >= MIN_SPEEDUP, record
