"""Cold start: a fresh CP-ALS process's imports and ``.tns`` load.

Start-up used to cost several times a whole NETFLIX stand-in solve: the
package init imported every subsystem (scipy's included), and ``load_tns``
parsed the file line by line in Python.  This guard keeps both fixed.

* **Parser** — the one-pass ``np.loadtxt`` parse must beat the line loop
  it falls back to by ``MIN_PARSE_SPEEDUP`` on the NETFLIX stand-in
  (100k nonzeros), both timed in this process with ``best_of``.
* **Fresh process** — ``STARTS`` new interpreters each import the solve
  path (``repro.core.cpals``, ``repro.tensor.io``, ``repro.backend``) and
  load the file; the record keeps the median ``imports_s`` and ``load_s``,
  and the guard asserts that no start loaded a ``scipy`` module.

The record lands in ``BENCH_coldstart.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from repro.bench.datasets import bench_dataset
from repro.bench.runner import best_of
from repro.tensor import io as tns_io

from _bench_utils import REPO, write_record

DATASET = "netflix"
STARTS = 5
ROUNDS = 3
MIN_PARSE_SPEEDUP = 3.0

CHILD = """
import json, sys, time
t0 = time.perf_counter()
import repro.core.cpals, repro.tensor.io, repro.backend
t1 = time.perf_counter()
repro.tensor.io.load_tns(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"imports_s": t1 - t0, "load_s": t2 - t1,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _fresh_start(tns_path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tns_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cold_start(benchmark, tmp_path):
    tensor = bench_dataset(DATASET)
    tns_path = tmp_path / f"{DATASET}.tns"
    tns_io.save_tns(tensor, tns_path)
    assert tns_io._parse_one_pass(tns_path) is not None

    def measure():
        parse = best_of({"one_pass": lambda: tns_io._parse_one_pass(tns_path),
                         "line_loop": lambda: tns_io._parse_lines(tns_path)},
                        rounds=ROUNDS)
        starts = [_fresh_start(tns_path) for _ in range(STARTS)]
        return parse, starts

    parse, starts = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = parse["line_loop"] / parse["one_pass"]
    imports_s = statistics.median(s["imports_s"] for s in starts)
    load_s = statistics.median(s["load_s"] for s in starts)
    scipy_loaded = sorted({m for s in starts for m in s["scipy"]})
    record = write_record(
        "coldstart",
        # no solve runs, so no backend is resolved and no rank applies
        workload={"dims": list(tensor.dims), "nnz": tensor.nnz, "backend": "none",
                  "dataset": DATASET, "starts": STARTS},
        seconds={"one_pass_parse": parse["one_pass"],
                 "line_loop_parse": parse["line_loop"],
                 "fresh_imports_median": imports_s,
                 "fresh_load_median": load_s},
        guards=[{"name": "parse_speedup", "value": speedup,
                 "min": MIN_PARSE_SPEEDUP, "enforced": True}],
        detail={"solve_path_scipy_modules": scipy_loaded},
    )
    print(f"\ncold start ({DATASET}, {tensor.nnz} nnz): parse one-pass "
          f"{parse['one_pass']:.3f}s vs loop {parse['line_loop']:.3f}s -> "
          f"{speedup:.1f}x; fresh process imports {imports_s:.3f}s, "
          f"load {load_s:.3f}s (medians of {STARTS})")

    assert scipy_loaded == [], record
    assert speedup >= MIN_PARSE_SPEEDUP, record
