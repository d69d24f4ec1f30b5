"""Smoke test of the benchmark itself.

Run from the root of a checkout: ``python3 perfbench/smoke.py``.

* Every workload runs at a tiny scale, untraced and traced; each run must
  pass its correctness gate and emit exactly the metrics ``BENCHMARK.json``
  names, end-to-end ones non-zero.  A traced run exits non-zero when its
  layer breakdown fails the runner's checks: the unattributed remainder
  above a quarter of the solve, or serve's ``backend.ready_s`` longer than
  the daemon's launch to ready.
* A copy of the program whose fit is perturbed by 1e-3 must be reported as
  failed, with a non-zero exit.
* A directory holding only ``BENCHMARK.json`` and the benchmark must make
  the runner exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.05"


def bench(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1"):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith('{"correct"'):
        result = json.loads(lines[-1])
    return proc, result


def check_run(workload: str, trace: int) -> None:
    proc, result = bench(workload, trace)
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0 and result is not None, (where, proc.stderr[-2000:])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, where
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    names = [m["name"] for m in group]
    assert list(result["metrics"]) == names, (where, sorted(result["metrics"]))
    for m in group:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (where, m["name"])
        assert isinstance(got["value"], (int, float)), (where, m["name"])
        if not trace:
            assert got["value"] > 0, (where, m["name"], got["value"])
    if trace:
        assert result["metrics"]["trace.overhead"]["value"] > 0, where
    print(f"ok  {where}: {result['attempted']} operations")


def fresh(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", path)
    shutil.copytree(HERE, path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return path


def check_perturbed_fit() -> None:
    mutant = fresh("smoke-mutant")
    shutil.copytree(ROOT / "src", mutant / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fit_py = mutant / "src" / "repro" / "linalg" / "fit.py"
    line = "return 1.0 - float(np.sqrt(residual_sq)) / xnorm"
    text = fit_py.read_text()
    assert line in text, "fit.py changed; update the mutation"
    fit_py.write_text(text.replace(line, line + " + 1e-3"))
    proc, result = bench("netflix-locks", 0, cwd=mutant)
    assert proc.returncode != 0, "perturbed fit not detected"
    assert result is not None and not result["correct"], result
    assert result["failed"] == result["attempted"] > 0, result
    shutil.rmtree(mutant)
    print("ok  perturbed fit reported as failed")


def check_bare_directory() -> None:
    bare = fresh("smoke-bare")
    proc, result = bench("netflix-locks", 0, cwd=bare)
    assert proc.returncode != 0 and result is None, proc.stdout[-2000:]
    shutil.rmtree(bare)
    print("ok  directory without the program fails without a result")


def main() -> int:
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_run(workload["name"], trace)
    check_perturbed_fit()
    check_bare_directory()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
