"""Helpers shared by the benchmark modules (kept out of conftest so test
modules can import them by name)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Rank used by measured benchmark kernels (paper uses 35; 16 keeps the
#: interpreted ladders fast while staying in the same regime).
BENCH_RANK = 16


def print_experiment(exp_id: str, **kwargs) -> None:
    """Regenerate and print one paper experiment (shown under ``-s``)."""
    from repro.bench.runner import get_experiment

    result = get_experiment(exp_id)(**kwargs)
    print()
    print(result.render())


def host_stamp(backend: str) -> dict:
    """What a record was measured on: perfbench's runner and program stamps
    (cores, CPU, compiler, git sha, source digest, library versions and
    every loaded OpenBLAS with its thread count)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_host", REPO / "perfbench" / "host.py")
    host = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(host)
    return host.runner_stamp(REPO) | host.program_stamp(backend)


def tensor_workload(tensor, **extra) -> dict:
    """The ``workload`` entry of a record for a solve over ``tensor``."""
    return {"dims": list(tensor.dims), "nnz": tensor.nnz, "rank": BENCH_RANK,
            **extra}


def write_record(name: str, *, workload: dict, seconds: dict, guards: list,
                 detail: dict) -> dict:
    """Write ``benchmarks/BENCH_<name>.json`` in the one record schema.

    ``workload`` names the ``backend`` it ran; ``seconds`` is the best time
    per timed configuration; ``guards`` is a list of ``{name, value, min,
    enforced}``; ``detail`` holds the counters the guard also asserts on.
    Returns the record, so a guard writes it before it asserts.
    """
    record = {
        "bench": name,
        "host": host_stamp(workload["backend"]),
        "workload": workload,
        "seconds": seconds,
        "guards": guards,
        "detail": detail,
    }
    path = REPO / "benchmarks" / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return record
