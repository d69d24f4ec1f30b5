"""Warm daemon vs cold CLI: the amortization the service exists to sell.

Runs the same batch of ``JOBS`` CP-ALS decompositions (same tensor, same
rank, different seeds — a multistart workload) two ways:

* **cold** — one ``repro cpd`` subprocess per job, the way a script
  would: every invocation pays interpreter + import start-up, backend
  resolution, CSF construction, scatter-plan build and worker-pool
  spin-up from zero;
* **warm** — one ``ReproServer`` serving all jobs over its socket: the
  engine keeps the resolved backend, the CSF set, the scatter plans and
  the pool alive, so jobs after the first pay marginal solve cost only.

Throughput (jobs/s, batch wall-clock from first submit to last result)
must favor the warm server by at least ``MIN_SPEEDUP`` (2x), and the
engine's plan-cache counters must prove the reuse is real — one CSF
build and exactly ``nmodes`` plan misses across the whole batch, with
every later mode visit a hit.  The record lands in ``BENCH_serve.json``
and CI replays this as a hard guard.  The batches keep their own
``perf_counter`` timers: each is one wall-clock span over subprocesses or
socket round trips, run once, not a callable to repeat.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.backend import resolve_backend
from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.tensor.io import save_tns

from _bench_utils import BENCH_RANK, REPO, tensor_workload, write_record
from repro.bench.datasets import bench_dataset

DATASET = "yelp"
JOBS = 4
ITERATIONS = 5
MIN_SPEEDUP = 2.0


def _cold_cli_batch(tns_path: Path) -> float:
    """Wall-clock for JOBS sequential cold ``repro cpd`` subprocesses."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    start = time.perf_counter()
    for seed in range(JOBS):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "cpd", str(tns_path),
             "--rank", str(BENCH_RANK), "--iterations", str(ITERATIONS),
             "--seed", str(seed)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
    return time.perf_counter() - start


def _warm_server_batch(tns_path: Path, spool: Path) -> tuple[float, dict]:
    """Wall-clock for the same batch against one warm daemon."""
    config = ServeConfig(port=0, batch_window=0.02, spool=spool)
    with ReproServer(config) as server:
        with ServeClient(port=server.port) as client:
            # warm-up job: pays the one-time CSF/plan/pool costs the
            # daemon amortizes, so the measured batch is steady-state
            warm = client.submit({
                "kind": "cpd", "tensor": str(tns_path), "rank": BENCH_RANK,
                "iterations": ITERATIONS, "seed": 999,
            })
            client.wait(warm["id"], timeout=300)

            start = time.perf_counter()
            ids = [
                client.submit({
                    "kind": "cpd", "tensor": str(tns_path),
                    "rank": BENCH_RANK, "iterations": ITERATIONS,
                    "seed": seed,
                })["id"]
                for seed in range(JOBS)
            ]
            for job_id in ids:
                response = client.wait(job_id, timeout=300)
                assert response["job"]["state"] == "done", response
            elapsed = time.perf_counter() - start
            engine = client.metrics()["metrics"]["engine"]
    return elapsed, engine


def test_serve_warm_vs_cold_cli(benchmark, tmp_path):
    tensor = bench_dataset(DATASET).deduplicate()
    tns_path = tmp_path / "bench.tns"
    save_tns(tensor, tns_path)

    def measure():
        cold = _cold_cli_batch(tns_path)
        warm, engine = _warm_server_batch(tns_path, tmp_path / "spool")
        return cold, warm, engine

    cold_s, warm_s, engine = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = cold_s / warm_s
    record = write_record(
        "serve",
        # both sides resolve the CLI's default backend, auto
        workload=tensor_workload(tensor, backend=resolve_backend("auto").name,
                                 dataset=DATASET, iterations=ITERATIONS,
                                 jobs=JOBS),
        seconds={"cold_cli": cold_s, "warm_server": warm_s},
        guards=[{"name": "warm_speedup", "value": speedup,
                 "min": MIN_SPEEDUP, "enforced": True}],
        detail={"engine": engine},
    )
    print(f"\nserve warm vs cold ({JOBS} jobs): cold {cold_s:.2f}s, "
          f"warm {warm_s:.2f}s -> {speedup:.1f}x "
          f"(plan hits {engine['plan_hits']}, misses {engine['plan_misses']})")

    # the speedup must come from real cache reuse, not measurement noise:
    # one CSF build for the tensor, one plan miss per mode, hits for the
    # rest of the batch's mode visits
    assert engine["csf_cache_misses"] == 1, engine
    assert engine["plan_misses"] == tensor.nmodes, engine
    min_hits = (JOBS + 1) * ITERATIONS * tensor.nmodes - tensor.nmodes
    assert engine["plan_hits"] >= min_hits, engine
    assert engine["tensor_cache_hits"] >= JOBS, engine
    assert speedup >= MIN_SPEEDUP, record
