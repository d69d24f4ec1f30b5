"""The warm engine: every piece of amortizable state, kept alive.

This is the reason the service exists.  One process-wide instance owns:

* the **resolved backend** — compiled once at startup (``ensure_ready``
  runs the warm-up self-check), so no request ever pays JIT/compile cost;
* one **persistent tasking layer** whose worker pool threads survive
  across jobs (PR 1 measured pool spin-up as a dominant cold-start term);
* a **tensor cache** keyed by content fingerprint (path + mtime + size
  for file specs, a content hash for inline specs), so ten tenants
  decomposing the same tensor load it once;
* a **CSF/plan cache**: one :class:`~repro.csf.build.CsfSet` per cached
  tensor, built with the ``two`` allocation, whose generation-keyed
  :class:`~repro.mttkrp.scatter.MttkrpContext` carries scatter plans and
  workspaces from request to request — the cumulative ``plan_hits``
  counters surfaced at ``/metrics`` are the direct evidence of reuse.
  At most :data:`MAX_CACHED_TENSORS` tensors (and their CSF sets) stay
  cached; the least recently used one is evicted first.

Execution is **serialized** through one run lock: the compute plane is a
single shared worker pool (jobs inside a run still fan out across its
workers), while the protocol plane stays fully concurrent.  Each job
runs under the resilience layer — the ``serve.job`` fault site is poked
per attempt, and injected faults are retried up to ``max_job_retries``.
A cpd job that stops for a suspend writes one snapshot of its solver
state to the spool directory, in the standard ``cp_als`` checkpoint
format; ``resume`` continues from it, and the job store deletes the
file once the job ends (done, failed or cancelled).  No other job state is written to disk: the job
records live in memory, so nothing could resume from a periodic snapshot
after a daemon crash.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any

import numpy as np

from repro._util import INDEX_DTYPE, VALUE_DTYPE
from repro.backend import resolve_backend
from repro.core.cpals import cp_als, save_cpals_checkpoint
from repro.core.options import CpalsOptions
from repro.csf.build import build_csf_set
from repro.observe import TraceRecorder, tracing
from repro.observe import spans as _obs
from repro.resilience import fault as _flt
from repro.runtime.env import ChapelEnv
from repro.runtime.tasking import make_tasking_layer
from repro.serve import jobstore as js
from repro.serve.jobstore import Job
from repro.tensor.coo import SparseTensor
from repro.tensor.io import load_binary, load_mmap, load_tns

__all__ = ["WarmEngine", "JOB_FAULT_SITE", "MAX_CACHED_TENSORS"]

#: The job-layer fault-injection site: poked once per execution attempt,
#: so a (site, occurrence) target fails exactly the Nth attempt served.
JOB_FAULT_SITE = "serve.job"

JOB_KINDS = ("cpd", "tucker", "complete")

#: Tensors (with their CSF sets) the engine keeps cached, LRU-evicted.
MAX_CACHED_TENSORS = 32


class WarmEngine:
    """Executes jobs against long-lived caches.  One per server."""

    def __init__(
        self,
        *,
        tasks: int = 1,
        backend: str | None = "auto",
        spool: str | Path,
        max_job_retries: int = 2,
    ) -> None:
        self.env = ChapelEnv(num_tasks=tasks)
        self.layer = make_tasking_layer(self.env)
        self.backend = resolve_backend(backend)
        if self.backend.compiled:
            self.backend.ensure_ready()
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.max_job_retries = max_job_retries

        #: Serializes solver execution: one compute plane, many protocol
        #: threads.  Also protects the caches below.
        self._run_lock = threading.Lock()
        self._tensors: OrderedDict[str, SparseTensor] = OrderedDict()
        self._csf: OrderedDict[str, Any] = OrderedDict()
        self._metrics_lock = threading.Lock()
        self._counters: dict[str, float] = {
            "tensor_cache_hits": 0, "tensor_cache_misses": 0,
            "csf_cache_hits": 0, "csf_cache_misses": 0,
            "plan_hits": 0, "plan_misses": 0,
            "job_retries": 0, "jobs_executed": 0,
            "pool_dispatches": 0,
        }
        self.started_s = time.time()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def bump(self, name: str, n: float = 1) -> None:
        with self._metrics_lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counters(self) -> dict[str, float]:
        with self._metrics_lock:
            out = dict(self._counters)
        out["backend_compile_seconds"] = float(self.backend.compile_seconds or 0.0)
        out["cached_tensors"] = len(self._tensors)
        out["cached_csf_sets"] = len(self._csf)
        if self.layer._pool is not None:
            stats = self.layer.worker_pool.stats()
            out["pool_workers"] = stats.get("workers", 0)
            out["pool_dispatches"] = stats.get("dispatches", 0)
        return out

    # ------------------------------------------------------------------
    # tensor + CSF caches
    # ------------------------------------------------------------------
    def tensor_key(self, spec: dict[str, Any]) -> str:
        """Content fingerprint for the job's tensor reference."""
        if "tensor" in spec:
            p = Path(spec["tensor"]).resolve()
            st = p.stat()
            return f"path:{p}:{st.st_mtime_ns}:{st.st_size}"
        if "inline" in spec:
            inline = spec["inline"]
            h = hashlib.blake2b(digest_size=16)
            h.update(repr(tuple(inline["dims"])).encode())
            h.update(np.asarray(inline["coords"], dtype=INDEX_DTYPE).tobytes())
            h.update(np.asarray(inline["values"], dtype=VALUE_DTYPE).tobytes())
            return f"inline:{h.hexdigest()}"
        raise ValueError('job spec needs a "tensor" path or an "inline" tensor')

    def _load_spec_tensor(self, spec: dict[str, Any]) -> SparseTensor:
        if "tensor" in spec:
            p = Path(spec["tensor"])
            if p.suffix == ".tnsb":
                return load_mmap(p)
            if p.suffix == ".npz":
                return load_binary(p)
            return load_tns(p).deduplicate()
        inline = spec["inline"]
        return SparseTensor(
            np.asarray(inline["coords"], dtype=INDEX_DTYPE),
            np.asarray(inline["values"], dtype=VALUE_DTYPE),
            tuple(int(d) for d in inline["dims"]),
            name=str(inline.get("name", "inline")),
        ).deduplicate()

    def load_tensor(self, spec: dict[str, Any]) -> tuple[SparseTensor, str]:
        """Load (or fetch from cache) the tensor a job spec references."""
        key = self.tensor_key(spec)
        with self._run_lock:
            cached = self._tensors.get(key)
            if cached is not None:
                self._tensors.move_to_end(key)
        if cached is not None:
            self.bump("tensor_cache_hits")
            return cached, key
        tensor = self._load_spec_tensor(spec)
        self.bump("tensor_cache_misses")
        with self._run_lock:
            self._tensors[key] = tensor
            while len(self._tensors) > MAX_CACHED_TENSORS:
                old_key, _ = self._tensors.popitem(last=False)
                self._csf.pop(old_key, None)
        return tensor, key

    def _csf_for(self, tensor: SparseTensor, key: str):
        """The cached CSF set for ``tensor`` (built on first use).

        Caller must hold ``_run_lock`` — the set's plan cache and
        workspaces are not safe under concurrent solves.
        """
        cs = self._csf.get(key)
        if cs is not None:
            self._csf.move_to_end(key)
            self.bump("csf_cache_hits")
            return cs
        with _obs.span("serve.csf_build", key=key):
            cs = build_csf_set(tensor)
        self._csf[key] = cs
        self.bump("csf_cache_misses")
        return cs

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def execute(self, job: Job, store: js.JobStore) -> None:
        """Run one job to a terminal (or suspended) state.

        Injected faults at the ``serve.job`` site (or escaping the solver
        after the layer's own retries degrade) are retried up to
        ``max_job_retries`` times; real errors fail the job with a
        structured ``job.error``.
        """
        attempts = 1 + max(0, self.max_job_retries)
        for attempt in range(attempts):
            store.transition(job, js.RUNNING)
            try:
                _flt.poke(JOB_FAULT_SITE)
                self._execute_once(job, store)
                return
            except _flt.InjectedFault as exc:
                if attempt + 1 >= attempts:
                    store.transition(job, js.FAILED, error={
                        "code": "job.fault_retries_exhausted",
                        "message": f"injected fault persisted across "
                                   f"{attempts} attempts: {exc}",
                    })
                    return
                self.bump("job_retries")
                _obs.count("serve.job_retries")
            except Exception as exc:  # noqa: BLE001 — job boundary: a bad
                # job must fail *that job*, never the daemon serving others
                store.transition(job, js.FAILED, error={
                    "code": "job.error",
                    "message": f"{type(exc).__name__}: {exc}",
                })
                return

    def _execute_once(self, job: Job, store: js.JobStore) -> None:
        spec = job.spec
        recorder = TraceRecorder() if spec.get("trace") else None
        with self._run_lock:
            tensor = self._tensors.get(job.tensor_key)
            if tensor is None:  # evicted while queued: reload
                tensor, job.tensor_key = self.load_tensor(spec)
                tensor = self._tensors[job.tensor_key]
            with _obs.span("serve.job", id=job.id, kind=job.kind,
                           tenant=job.tenant):
                if recorder is not None:
                    with tracing(recorder=recorder):
                        outcome = self._solve(job, tensor, store)
                else:
                    outcome = self._solve(job, tensor, store)
        self.bump("jobs_executed")
        if recorder is not None:
            job.trace = recorder.chrome_trace()
        if outcome == "suspended":
            store.transition(job, js.SUSPENDED)
            _obs.count("serve.jobs_suspended")
        else:
            store.transition(job, js.DONE)
            _obs.count("serve.jobs_done")

    def _solve(self, job: Job, tensor: SparseTensor, store: js.JobStore) -> str:
        if job.kind == "cpd":
            return self._solve_cpd(job, tensor)
        if job.kind == "tucker":
            return self._solve_tucker(job, tensor)
        if job.kind == "complete":
            return self._solve_complete(job, tensor)
        raise ValueError(f"unknown job kind {job.kind!r}; choose from {JOB_KINDS}")

    # -- cpd ------------------------------------------------------------
    def _solve_cpd(self, job: Job, tensor: SparseTensor) -> str:
        spec = job.spec
        rank = int(spec.get("rank", 8))
        suspend_after = spec.get("suspend_after_iterations")
        # resume from the snapshot of the job's last suspend while running;
        # a job that never stopped that way has none and starts from scratch
        opts = CpalsOptions(
            max_iterations=int(spec.get("iterations", 20)),
            tolerance=float(spec.get("tolerance", 1e-5)),
            variant=str(spec.get("variant", "vectorized")),
            env=self.env,
            seed=spec.get("seed", 0),
            backend=self.backend.name,
            resume_from=job.checkpoint_path,
        )
        suspended = {"flag": False}

        def observer(iteration: int, fit: float, factors) -> bool:
            job.iterations_done = iteration
            if job.suspend_requested.is_set() or (
                suspend_after is not None and iteration >= int(suspend_after)
                and iteration < opts.max_iterations
            ):
                suspended["flag"] = True
                return True
            return False

        csf_set = self._csf_for(tensor, job.tensor_key)
        result = cp_als(tensor, rank, opts, callback=observer,
                        csf_set=csf_set, layer=self.layer)
        self._absorb_engine_stats(result.engine_stats)
        if suspended["flag"]:
            # the state the loop stopped in is the resume point
            ck_path = str(self.spool / f"{job.id}.ck.npz")
            save_cpals_checkpoint(ck_path, tensor, result.iterations,
                                  result.kruskal.factors, result.kruskal.weights,
                                  result.fits)
            job.checkpoint_path = ck_path
            return "suspended"
        job.iterations_done = result.iterations
        job.result = {
            "kind": "cpd",
            "fit": float(result.fit),
            "fits": [float(f) for f in result.fits],
            "iterations": result.iterations,
            "converged": bool(result.converged),
            "lambda": [float(x) for x in result.kruskal.weights],
            "backend": result.engine_stats.get("backend"),
            "plan_hits": int(result.engine_stats.get("plan_hits", 0)),
        }
        if spec.get("return_factors"):
            job.result["factors"] = [f.tolist() for f in result.kruskal.factors]
        return "done"

    def _absorb_engine_stats(self, stats: dict) -> None:
        # MttkrpContext.stats() is cumulative per context; recomputing the
        # global totals from every cached context avoids double counting.
        totals = {"plan_hits": 0, "plan_misses": 0}
        for cs in self._csf.values():
            ctx = getattr(cs, "_mttkrp_context", None)
            if ctx is not None:
                st = ctx.stats()
                totals["plan_hits"] += st.get("plan_hits", 0)
                totals["plan_misses"] += st.get("plan_misses", 0)
        with self._metrics_lock:
            self._counters["plan_hits"] = totals["plan_hits"]
            self._counters["plan_misses"] = totals["plan_misses"]

    # -- tucker ---------------------------------------------------------
    def _solve_tucker(self, job: Job, tensor: SparseTensor) -> str:
        from repro.tucker import tucker_hooi

        spec = job.spec
        ranks = spec.get("ranks", [4])
        ranks = tuple(int(r) for r in ranks)
        if len(ranks) == 1:
            ranks = ranks * tensor.nmodes
        result = tucker_hooi(
            tensor, ranks,
            max_iterations=int(spec.get("iterations", 20)),
            tolerance=float(spec.get("tolerance", 1e-5)),
            seed=spec.get("seed", 0),
            backend=self.backend.name,
        )
        job.iterations_done = result.iterations
        job.result = {
            "kind": "tucker",
            "fit": float(result.fit),
            "iterations": result.iterations,
            "converged": bool(result.converged),
            "ranks": list(result.ranks),
            "core_norm": float(np.linalg.norm(result.core)),
        }
        return "done"

    # -- complete -------------------------------------------------------
    def _solve_complete(self, job: Job, tensor: SparseTensor) -> str:
        from repro.completion.driver import CompletionOptions, complete

        spec = job.spec
        opts = CompletionOptions(
            algorithm=str(spec.get("algorithm", "als")),
            max_epochs=int(spec.get("epochs", 20)),
            regularization=float(spec.get("regularization", 1e-2)),
            learn_rate=float(spec.get("learn_rate", 1e-2)),
            validation_fraction=float(spec.get("validation", 0.1)),
            seed=spec.get("seed", 0),
            backend=self.backend.name,
        )
        result = complete(tensor, int(spec.get("rank", 8)), opts)
        job.iterations_done = result.epochs
        job.result = {
            "kind": "complete",
            "algorithm": result.algorithm,
            "epochs": result.epochs,
            "best_epoch": result.best_epoch,
            "converged": bool(result.converged),
            "train_rmse": float(result.final_train_rmse),
            "val_rmse": float(min(result.val_rmse)) if result.val_rmse else None,
        }
        return "done"

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the worker pool and drop the caches."""
        self.layer.shutdown()
        with self._run_lock:
            self._tensors.clear()
            self._csf.clear()
