"""Batching scheduler: group compatible jobs, run them against hot caches.

Production decomposition traffic is bursty and repetitive — the same
tensor decomposed at the same rank with different seeds (multistart), or
re-decomposed as data refreshes.  The scheduler exploits that: jobs
arriving within ``batch_window`` seconds are drained together and
grouped by **batch key**

    (kind, tensor fingerprint, rank/ranks, solver-relevant options)

i.e. everything that determines the CSF set and scatter plans, *modulo
seed*.  Each group becomes one batch: its first job may pay the CSF/plan
build, every subsequent job in the group runs against caches that are
guaranteed hot (no other tensor's jobs run in between to evict or cool
them).  Groups run in arrival order of their earliest member, so
batching never starves a lone job behind an unrelated flood.

The scheduler owns exactly one executor thread; the engine's run lock
makes that the single compute plane.  Suspending a *queued* job removes
it from the queue before it ever runs; suspending a *running* job sets
its ``suspend_requested`` event, which the per-iteration callback in the
engine honors at the next iteration.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.observe import spans as _obs
from repro.serve import jobstore as js
from repro.serve.engine import WarmEngine
from repro.serve.jobstore import Job, JobStore

__all__ = ["Scheduler", "batch_key"]


def batch_key(job: Job) -> tuple:
    """The fusion key: jobs sharing it reuse each other's warm state."""
    spec = job.spec
    if job.kind == "cpd":
        shape = ("rank", int(spec.get("rank", 8)))
    elif job.kind == "tucker":
        shape = ("ranks", tuple(int(r) for r in spec.get("ranks", [4])))
    else:
        shape = ("rank", int(spec.get("rank", 8)), str(spec.get("algorithm", "als")))
    return (
        job.kind,
        job.tensor_key,
        shape,
        str(spec.get("variant", "vectorized")),
        int(spec.get("iterations", spec.get("epochs", 20))),
    )


class Scheduler:
    """One executor thread draining a window-batched job queue."""

    def __init__(self, engine: WarmEngine, store: JobStore,
                 *, batch_window: float = 0.05) -> None:
        self.engine = engine
        self.store = store
        self.batch_window = max(0.0, float(batch_window))
        self._queue: list[Job] = []
        self._cv = threading.Condition()
        self._stop = False
        self._stop_event = threading.Event()
        self._running_job: Job | None = None
        self._batches = 0
        self._batched_jobs = 0
        self._largest_batch = 0
        self._thread = threading.Thread(
            target=self._run, name="serve-scheduler", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    # ------------------------------------------------------------------
    # queue operations (called from protocol threads)
    # ------------------------------------------------------------------
    def enqueue(self, job: Job) -> None:
        with self._cv:
            self._queue.append(job)
            self._cv.notify()

    def remove_queued(self, job: Job) -> bool:
        """Pull a still-queued job out of the queue (cancel/suspend)."""
        with self._cv:
            try:
                self._queue.remove(job)
                return True
            except ValueError:
                return False

    def queue_depth(self) -> int:
        with self._cv:
            return len(self._queue)

    def stats(self) -> dict[str, Any]:
        with self._cv:
            return {
                "batches": self._batches,
                "batched_jobs": self._batched_jobs,
                "largest_batch": self._largest_batch,
                "queue_depth": len(self._queue),
                "running": self._running_job.id if self._running_job else None,
            }

    # ------------------------------------------------------------------
    # executor
    # ------------------------------------------------------------------
    def _drain_window(self) -> list[Job]:
        """Block for work, then hold the batch window open and drain."""
        with self._cv:
            while not self._queue and not self._stop:
                self._cv.wait(timeout=0.5)
            if self._stop:
                return []
        if self.batch_window > 0:
            # let same-burst submissions land so they can be grouped
            # (returns early when stop() fires mid-window)
            self._stop_event.wait(self.batch_window)
        with self._cv:
            if self._stop:  # leave the queue for stop() to cancel
                return []
            drained = self._queue
            self._queue = []
            return drained

    def _run(self) -> None:
        while True:
            batch = self._drain_window()
            if not batch:
                if self._stop:
                    return
                continue
            groups: dict[tuple, list[Job]] = {}
            order: list[tuple] = []
            for job in batch:
                key = batch_key(job)
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(job)
            for key in order:
                group = groups[key]
                with self._cv:
                    self._batches += 1
                    batch_id = self._batches
                    self._batched_jobs += len(group)
                    self._largest_batch = max(self._largest_batch, len(group))
                _obs.count("serve.batches")
                _obs.count("serve.batched_jobs", len(group))
                for job in group:
                    job.batch_id = batch_id
                    if self._stop:
                        break
                    if job.state != js.QUEUED:  # cancelled/suspended meanwhile
                        continue
                    if job.suspend_requested.is_set():
                        self.store.transition(job, js.SUSPENDED)
                        continue
                    with self._cv:
                        self._running_job = job
                    try:
                        self.engine.execute(job, self.store)
                    finally:
                        with self._cv:
                            self._running_job = None
                    if self._stop:
                        break
                if self._stop:
                    break
            if self._stop:
                with self._cv:
                    leftovers = self._queue + [
                        j for k in order for j in groups[k] if j.state == js.QUEUED
                    ]
                    self._queue = []
                for job in leftovers:
                    self.store.transition(job, js.CANCELLED, error={
                        "code": "job.server_shutdown",
                        "message": "server shut down before the job ran",
                    })
                return

    def stop(self, *, join_timeout: float = 30.0) -> None:
        """Finish (at most) the running job, cancel the rest, join."""
        with self._cv:
            self._stop = True
            self._stop_event.set()
            self._cv.notify_all()
        if self._thread.is_alive():
            self._thread.join(timeout=join_timeout)
        # cancel anything still queued after the thread exits
        with self._cv:
            leftovers, self._queue = self._queue, []
        for job in leftovers:
            self.store.transition(job, js.CANCELLED, error={
                "code": "job.server_shutdown",
                "message": "server shut down before the job ran",
            })
