"""CP-ALS benchmark: end to end with tracing off, layer by layer with it on.

Run from the root of a checkout::

    python3 perfbench/run.py --workload netflix-locks --seed 1 --seconds 30 --trace 0

Workloads, metrics and the layer -> metric map are described in
``perfbench/README.md``; names and units come from ``BENCHMARK.json``.
The input tensor is generated from ``--seed`` and written to a FROSTT
``.tns`` file before any timed process starts; the program (a fresh
``worker.py`` process, or a ``repro serve`` daemon) receives only that
file.  Every fit is checked against :mod:`reference`.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every operation
succeeded and matched its reference and, with ``--trace 1``, the layer
breakdown passed its own checks (see ``check_attribution``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"

#: Fresh program starts timed for ``setup_s`` (the median is reported).
SETUP_STARTS = 5
#: Seconds one whole run may take before it is abandoned without a result.
RUN_DEADLINE_S = 170
#: Largest share of the traced solve time ``core.unattributed_s`` may take
#: before the traced run counts its layer breakdown as failed.
UNATTRIBUTED_MAX = 0.25
#: BLAS threads of every program process.  Unpinned, OpenBLAS starts one
#: spin-waiting thread per core; on a shared 2-core host those threads fight
#: the worker pool and the neighbours, and solve times track the host's load
#: instead of the program (see "Noise" in README.md).
PROGRAM_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    dataset: str
    rank: int
    iterations: int
    backend: str = "auto"
    tasks: int = 1
    burst: int = 0  # serve only: jobs submitted per closed-loop round


WORKLOADS = {
    # mode 1 of the NETFLIX stand-in takes the mutex pool at 2 tasks
    "netflix-locks": Workload("netflix", rank=16, iterations=20, backend="cext", tasks=2),
    # warm daemon, shipped defaults: CSF and plans cached, bursts batched
    "serve-multistart": Workload("yelp", rank=16, iterations=10, burst=4),
}


class Failure(Exception):
    """The program could not be measured (crash, bad protocol)."""


class Child:
    """One program process; stdout is read as JSON event lines."""

    def __init__(self, cmd: list[str], env: dict, log: Path) -> None:
        self.log = log
        self._err = open(log, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     stderr=self._err, text=True)

    def event(self, name: str) -> dict:
        for line in self.proc.stdout:
            if line.startswith("{"):
                record = json.loads(line)
                if record.get("event") == name:
                    return record
        raise Failure(f"program exited before {name!r}: {self.stderr_tail()}")

    def stderr_tail(self) -> str:
        self._err.flush()
        return self.log.read_text()[-2000:]

    def stop(self, grace: float = 30.0) -> int:
        """Wait up to ``grace`` seconds for exit, then kill; reap and close."""
        try:
            self.proc.wait(grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
        code = self.proc.wait()
        self.proc.stdout.close()
        self._err.close()
        return code


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Failure(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, all its threads."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5), in clock ticks
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def median(values) -> float:
    values = list(values)
    if not values:
        raise Failure("no samples")
    return statistics.median(values)


def p90(values) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def base_metrics(solves: list[dict]) -> dict[str, float]:
    """The 1-task base: CPU time of a cold solve and its median iteration."""
    one = [s for s in solves if s["tasks"] == 1]
    iters = [t for s in one for t in s["iterations"]]
    return {
        "solve_t1_cpu_s": median(s["cpu_seconds"] for s in one),
        "iter_p50_ms": 1000.0 * median(iters),
    }


def latency_metrics(session: dict) -> dict[str, float]:
    """Closed-loop throughput and submit -> result latency of a daemon session."""
    lat = [j["latency"] for j in session["jobs"]]
    return {
        "serve.jobs_per_s": len(lat) / session["loop_s"],
        "serve.latency_p50_ms": 1000.0 * median(lat),
        "serve.latency_p90_ms": 1000.0 * p90(lat),
    }


class Run:
    """State of one benchmark run: inputs, checks, samples."""

    def __init__(self, args, wl: Workload, work: Path) -> None:
        self.args = args
        self.wl = wl
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.stamp: dict = {}
        self.seeds: list[int] = []  # serve: one job seed per burst slot
        self.refs: dict[int, float] = {}
        self.trace_faults: list[str] = []
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("REPRO_", "OPENBLAS_", "OMP_", "MKL_", "PYTHON"))}
        (work / "tmp").mkdir()
        env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work / "tmp"),
                   REPRO_CEXT_CACHE=str(WORK / "cext-cache"), **PROGRAM_BLAS_ENV)
        self.env = env
        self.children: list[Child] = []

    # -- inputs and checks ----------------------------------------------
    def make_input(self) -> None:
        from repro.tensor.generate import synthetic_dataset
        from repro.tensor.io import save_tns

        scale = self.args.scale
        tensor = synthetic_dataset(self.wl.dataset, scale=scale, seed=self.args.seed)
        self.tns = self.work / f"{self.wl.dataset}.tns"
        save_tns(tensor, self.tns)
        self.tensor = tensor

    def references(self, seeds) -> dict[int, float]:
        from reference import reference_fit

        coords, values = self.tensor.coords, self.tensor.values
        # dims as the program infers them from the file (max index + 1)
        dims = tuple(int(d) + 1 for d in coords.max(axis=0))
        return {s: reference_fit(coords, values, dims, self.wl.rank,
                                 self.wl.iterations, s) for s in seeds}

    def check(self, fit, reference: float, what: str) -> bool:
        from reference import fit_matches

        self.attempted += 1
        if fit is None or not fit_matches(fit, reference):
            self.failed += 1
            self.notes.append(f"{what}: fit {fit!r} != reference {reference!r}")
            return False
        return True

    def check_solves(self, solves, reference: float) -> None:
        for s in solves:
            if "error" in s:
                self.attempted += 1
                self.failed += 1
                self.notes.append(f"solve at {s['tasks']} tasks: {s['error']}")
            else:
                self.check(s["fit"], reference, f"solve at {s['tasks']} tasks")

    # -- processes --------------------------------------------------------
    def child(self, cmd: list[str]) -> Child:
        child = Child(cmd, self.env, self.work / f"child{len(self.children)}.log")
        self.children.append(child)
        return child

    def stop_children(self) -> None:
        """Kill whatever is still running and reap every process started."""
        for child in self.children:
            if child.proc.poll() is None:
                child.proc.kill()
            child.stop()

    def worker_cmd(self, mode: str) -> list[str]:
        return [sys.executable, str(HERE / "worker.py"), mode, "--tns", str(self.tns),
                "--backend", self.wl.backend]

    def solve_worker(self, seed: int, configs: str, seconds: float) -> dict:
        wl = self.wl
        w = self.child(self.worker_cmd("solve")
                       + ["--rank", str(wl.rank), "--iterations", str(wl.iterations),
                          "--seed", str(seed), "--configs", configs,
                          "--seconds", f"{seconds:.3f}"])
        w.event("ready")
        done = w.event("done")
        if w.stop() != 0:
            raise Failure(f"worker failed: {w.stderr_tail()}")
        self.stamp.update(done["stamp"])
        return done

    def setup_probe(self) -> dict:
        w = self.child(self.worker_cmd("setup"))
        ready = w.event("ready")
        ready["setup_s"] = time.perf_counter() - w.started
        if w.stop() != 0:
            raise Failure(f"setup probe failed: {w.stderr_tail()}")
        return ready

    def check_attribution(self, layers: dict[str, float]) -> None:
        """The named layers, not the remainder, must carry the traced solve."""
        share = abs(layers["core.unattributed_s"]) / layers["trace.solve_s"]
        if share > UNATTRIBUTED_MAX:
            self.trace_faults.append(
                f"core.unattributed_s is {share:.1%} of the traced solve "
                f"(at most {UNATTRIBUTED_MAX:.0%})")

    # -- workloads ----------------------------------------------------------
    def cold(self) -> dict[str, float]:
        """netflix-locks: cold cp_als solves in a worker."""
        wl, seed = self.wl, self.args.seed
        reference = self.references([seed])[seed]
        configs = f"{wl.tasks},{wl.tasks}t" if self.args.trace else f"{wl.tasks},1"
        done = self.solve_worker(seed, configs, self.args.seconds)
        self.check_solves(done["warmup"] + done["solves"], reference)
        probes = [self.setup_probe() for _ in range(SETUP_STARTS)]
        ok = [s for s in done["solves"] if "error" not in s]
        main = [s for s in ok if s["tasks"] == wl.tasks and not s["traced"]]
        if self.args.trace:
            from layers import median_layers

            traced = median(s["seconds"] for s in ok if s["traced"])
            untraced = median(s["seconds"] for s in main)
            out = median_layers(done["layers"])
            self.check_attribution(out)
            out.update({
                "trace.untraced_solve_s": untraced,
                "trace.overhead": traced / untraced,
                "tensor.load_s": median(p["load_s"] for p in probes),
                "backend.ready_s": median(p["ready_s"] for p in probes),
                "serve.queue_wait_ms": 0.0, "serve.exec_ms": 0.0,
                "serve.batch_size": 0.0, "serve.csf_cache_hits": 0.0,
                "serve.jobs_per_s": 0.0, "serve.latency_p50_ms": 0.0,
                "serve.latency_p90_ms": 0.0,
            })
            return out
        return {
            "solve_cpu_s": median(s["cpu_seconds"] for s in main),
            "setup_s": median(p["setup_s"] for p in probes),
            "peak_rss_mb": done["peak_rss_mb"],
            **base_metrics(ok),
        }

    def serve(self) -> dict[str, float]:
        """serve-multistart: closed-loop bursts against a warm daemon."""
        wl = self.wl
        seeds = [self.args.seed * wl.burst + k for k in range(wl.burst)]
        self.refs = self.references(seeds)
        self.seeds = seeds
        if self.args.trace:
            half = self.args.seconds / 2
            plain = self.daemon_session(half, traced=False)
            traced = self.daemon_session(half, traced=True)
            from layers import layer_metrics, median_layers, setup_metrics

            dump = traced["trace"]
            self.stamp.update(dump["stamp"])
            # the first job builds the CSF set; the rest run warm
            out = median_layers(layer_metrics(dump)[1:])
            self.check_attribution(out)
            jobs = traced["jobs"]
            sizes: dict = {}
            for j in jobs:
                sizes[j["batch"]] = sizes.get(j["batch"], 0) + 1
            exec_plain = median(j["exec"] for j in plain["jobs"])
            exec_traced = median(j["exec"] for j in jobs)
            out.update(setup_metrics(dump))
            # the daemon readies its backend before it publishes its port
            if out["backend.ready_s"] > traced["launch_s"]:
                self.trace_faults.append(
                    f"backend.ready_s {out['backend.ready_s']:.4f} s exceeds the "
                    f"daemon's launch to ready {traced['launch_s']:.4f} s")
            out.update({
                "trace.solve_s": exec_traced,
                "trace.untraced_solve_s": exec_plain,
                "trace.overhead": exec_traced / exec_plain,
                "serve.queue_wait_ms": 1000.0 * median(j["queue"] for j in jobs),
                "serve.exec_ms": 1000.0 * exec_traced,
                "serve.batch_size": median(sizes.values()),
                "serve.csf_cache_hits": traced["csf_cache_hits"],
                **latency_metrics(plain),
            })
            return out
        # the 1-task base is measured in windows spread over the run, so
        # that no single spell of a faster or slower host decides it
        base_s = min(2.0, self.args.seconds / 15)
        solves = self.base_window(base_s)
        session = self.daemon_session(self.args.seconds, traced=False)
        solves += self.base_window(base_s)
        setups = [self.daemon_setup() for _ in range(SETUP_STARTS)]
        solves += self.base_window(base_s)
        return {
            "solve_cpu_s": session["cpu_s"] / len(session["jobs"]),
            "setup_s": median(setups),
            "peak_rss_mb": session["peak_rss_mb"],
            **base_metrics(solves),
        }

    def base_window(self, seconds: float) -> list[dict]:
        """Cold 1-task solves of one job's problem in a fresh worker."""
        seed = self.seeds[0]
        base = self.solve_worker(seed, "1", seconds)
        self.check_solves(base["warmup"] + base["solves"], self.refs[seed])
        return [s for s in base["solves"] if "error" not in s]

    def start_daemon(self, tag: str, traced: bool):
        from repro.serve.client import ServeClient

        port_file = self.work / f"port-{tag}"
        serve_args = ["--port", "0", "--port-file", str(port_file),
                      "--spool", str(self.work / f"spool-{tag}")]
        if traced:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"),
                   "--trace-out", str(self.work / f"trace-{tag}.json"), *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        daemon = self.child(cmd)
        while not (port_file.exists() and port_file.read_text().endswith("\n")):
            if daemon.proc.poll() is not None:
                raise Failure(f"daemon exited: {daemon.stderr_tail()}")
            time.sleep(0.005)
        launch_s = time.perf_counter() - daemon.started
        client = ServeClient(port=int(port_file.read_text()), timeout=120.0)
        return daemon, client.connect(), launch_s

    def stop_daemon(self, daemon: Child, client) -> None:
        client.shutdown()
        client.close()
        if daemon.stop() != 0:
            raise Failure(f"daemon failed: {daemon.stderr_tail()}")

    def burst(self, client, seeds) -> list[dict]:
        """Submit one job per seed, then wait for each; check every fit."""
        from repro.serve.client import ServeError

        def failed(s: int, why: str) -> None:
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"job seed {s}: {why}")

        submitted = []
        for s in seeds:
            t = time.perf_counter()
            job = {"kind": "cpd", "tensor": str(self.tns), "rank": self.wl.rank,
                   "iterations": self.wl.iterations, "tolerance": 0.0, "seed": s}
            try:
                submitted.append((s, client.submit(job)["id"], t))
            except ServeError as exc:
                failed(s, f"submit refused: {exc.code} {exc}")
        out = []
        for s, job_id, t in submitted:
            try:
                reply = client.wait(job_id, timeout=120.0)
            except ServeError as exc:
                failed(s, f"{exc.code} {exc}")
                continue
            latency = time.perf_counter() - t
            job = reply["job"]
            if job["state"] != "done":
                failed(s, f"ended {job['state']}: {job['error']}")
                continue
            fit = reply["result"]["fit"]
            if self.check(fit, self.refs[s], f"job seed {s}"):
                out.append({"latency": latency,
                            "exec": job["finished_s"] - job["started_s"],
                            "queue": job["started_s"] - job["submitted_s"],
                            "batch": job["batch"]})
        return out

    def daemon_session(self, seconds: float, traced: bool) -> dict:
        tag = "traced" if traced else "plain"
        daemon, client, launch_s = self.start_daemon(tag, traced)
        self.burst(client, self.seeds)  # warm-up: loads the file, builds CSF
        hits0 = client.metrics()["metrics"]["engine"]["csf_cache_hits"]
        jobs: list[dict] = []
        rounds = 0
        cpu0 = cpu_seconds(daemon.proc.pid)
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds or rounds < 3:
            jobs += self.burst(client, self.seeds)
            rounds += 1
        loop_s = time.perf_counter() - begin
        cpu_s = cpu_seconds(daemon.proc.pid) - cpu0
        hits = client.metrics()["metrics"]["engine"]["csf_cache_hits"] - hits0
        rss = peak_rss_mb(daemon.proc.pid)
        self.stop_daemon(daemon, client)
        session = {"jobs": jobs, "loop_s": loop_s, "cpu_s": cpu_s, "peak_rss_mb": rss,
                   "csf_cache_hits": hits, "launch_s": launch_s}
        if traced:
            session["trace"] = json.loads((self.work / f"trace-{tag}.json").read_text())
        return session

    def daemon_setup(self) -> float:
        """Seconds from daemon launch to its first job done."""
        daemon, client, _ = self.start_daemon("setup", traced=False)
        self.burst(client, self.seeds[:1])
        elapsed = time.perf_counter() - daemon.started
        self.stop_daemon(daemon, client)
        (self.work / "port-setup").unlink()
        return elapsed


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="dataset scale (below 1 only for the smoke test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: src/repro not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    wl = WORKLOADS[args.workload]
    run = Run(args, wl, work)
    try:
        from host import compute_probe, cpu_ticks, runner_stamp

        ticks0 = cpu_ticks()
        probe_s = compute_probe()
        run.make_input()
        values = run.serve() if wl.burst else run.cold()
    except (Failure, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        run.stop_children()
        shutil.rmtree(work, ignore_errors=True)

    ticks1 = cpu_ticks()
    values["host.probe_s"] = probe_s
    values["host.steal_share"] = (ticks1[0] - ticks0[0]) / max(ticks1[1] - ticks0[1], 1)
    values["host.blas_threads"] = max(
        (lib["threads"] or 0 for lib in run.stamp.get("openblas", [])), default=0)
    print("host: " + json.dumps({**runner_stamp(ROOT), **run.stamp, "probe_s": probe_s,
                                  "steal_share": values["host.steal_share"]}))
    for note in run.notes:
        print(f"FAILED {note}")
    for fault in run.trace_faults:
        print(f"FAILED trace: {fault}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:26s} {m['value']:14.6f} {m['unit']}")
    print(f"  {'error_rate':26s} {run.failed / max(run.attempted, 1):14.6f} "
          f"({run.failed} of {run.attempted} operations)")
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct and not run.trace_faults else 1


if __name__ == "__main__":
    raise SystemExit(main())
