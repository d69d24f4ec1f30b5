"""The program's process for the cold-solve workloads and set-up probes.

Started fresh by ``run.py`` as ``worker.py setup`` or ``worker.py solve``.
Both load the ``.tns`` file, ready the backend and print a ``ready`` line
(the runner times launch → ready as set-up); ``setup`` exits there.
``solve`` then runs one untimed warm-up solve per configuration, cycles
through the configurations back to back until ``--seconds`` have passed
and each has ``MIN_SOLVES`` timed solves, and prints one ``done`` line
with every solve's wall time, CPU time (all threads of the process),
per-iteration wall times and fit.

A configuration is a task count, optionally suffixed ``t`` for a solve
run under the layer timers of :mod:`layers` (e.g. ``2,1`` or ``2,2t``).
The timers are imported only when some configuration is traced, and the
host stamp only after peak memory is read, so an untraced process's
``peak_rss_mb`` holds nothing a ``cp_als`` user would not load.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

T_START = time.perf_counter()

from repro.backend import resolve_backend  # noqa: E402
from repro.core import cpals  # noqa: E402
from repro.core.options import CpalsOptions  # noqa: E402
from repro.runtime.env import ChapelEnv  # noqa: E402
from repro.tensor.io import load_tns  # noqa: E402

#: Timed solves each configuration gets, however short ``--seconds`` is.
MIN_SOLVES = 3


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def main() -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tns", required=True)
    common.add_argument("--backend", required=True)
    ap = argparse.ArgumentParser(description=__doc__)
    modes = ap.add_subparsers(dest="mode", required=True)
    modes.add_parser("setup", parents=[common])
    solve_args = modes.add_parser("solve", parents=[common])
    for name, kind in (("--rank", int), ("--iterations", int), ("--seed", int),
                       ("--configs", str), ("--seconds", float)):
        solve_args.add_argument(name, type=kind, required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    tensor = load_tns(args.tns).deduplicate()
    t1 = time.perf_counter()
    backend = resolve_backend(args.backend)
    if backend.compiled:
        backend.ensure_ready()
    t2 = time.perf_counter()
    emit({"event": "ready", "load_s": t1 - t0, "ready_s": t2 - t1,
          "imports_s": t0 - T_START})
    if args.mode == "setup":
        return 0

    configs = [(int(c.rstrip("t")), c.endswith("t")) for c in args.configs.split(",")]
    tracer = None
    if any(traced for _, traced in configs):
        from layers import Tracer, layer_metrics

        tracer = Tracer()

    def solve(ntasks: int, tracer=None) -> dict:
        opts = CpalsOptions(max_iterations=args.iterations, tolerance=0.0,
                            env=ChapelEnv(num_tasks=ntasks), backend=backend.name,
                            seed=args.seed)
        rec = {"tasks": ntasks, "traced": tracer is not None}
        marks: list[float] = []

        def on_iteration(iteration, fit, factors) -> None:
            marks.append(time.perf_counter())

        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            if tracer is None:
                result = cpals.cp_als(tensor, args.rank, opts, callback=on_iteration)
            else:
                with tracer:
                    result = cpals.cp_als(tensor, args.rank, opts,
                                          callback=on_iteration)
            rec["seconds"] = time.perf_counter() - start
            rec["cpu_seconds"] = time.process_time() - cpu_start
            rec["fit"] = float(result.fit)
            # iteration 1 has no start mark; the rest are back-to-back
            rec["iterations"] = [b - a for a, b in zip(marks, marks[1:])]
        except Exception as exc:  # noqa: BLE001 — a failed solve is a result
            rec["seconds"] = time.perf_counter() - start
            rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec

    warmup = [solve(nt) for nt, _ in configs]
    solves: list[dict] = []
    begin = time.perf_counter()
    while (time.perf_counter() - begin < args.seconds
           or len(solves) < MIN_SOLVES * len(configs)):
        for nt, traced in configs:
            solves.append(solve(nt, tracer if traced else None))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from host import program_stamp

    emit({
        "event": "done",
        "warmup": warmup,
        "solves": solves,
        "layers": layer_metrics(tracer.export()) if tracer else [],
        "peak_rss_mb": peak_rss_mb,
        "stamp": program_stamp(backend.name),
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
