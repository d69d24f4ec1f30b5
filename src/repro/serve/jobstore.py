"""Job records and their state machine for the decomposition service.

A job moves through::

    queued ──> running ──> done
       │          │   └──> failed      (real error, or retries exhausted)
       │          └──────> suspended   (operator suspend / quantum expiry)
       ├────────> cancelled            (cancel while still queued)
       └────────> suspended            (suspend while still queued)

    suspended ──resume──> queued       (continues from its snapshot)

Terminal states are ``done``, ``failed`` and ``cancelled``.  Suspension
relies on the resilience layer: a cpd job that stops running for a
suspend writes one snapshot of its solver state to the server's spool
directory and records it in ``Job.checkpoint_path``; resume re-enqueues
the job, which then runs with ``resume_from`` pointing at that snapshot,
so the resumed run reproduces the uninterrupted one (the checkpoint
golden tests pin this down).  The snapshot is deleted when the job
reaches a terminal state.  A job suspended before it ever ran has no
snapshot and starts over.  The store lives in memory only: a daemon
that exits forgets every job, queued, running or suspended.

All mutation goes through :class:`JobStore`, which holds one lock; the
protocol handlers, the scheduler thread and the engine all touch jobs
concurrently.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["Job", "JobStore", "QUEUED", "RUNNING", "SUSPENDED", "DONE",
           "FAILED", "CANCELLED", "TERMINAL_STATES"]

QUEUED = "queued"
RUNNING = "running"
SUSPENDED = "suspended"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


@dataclass
class Job:
    """One submitted decomposition job.

    ``spec`` is the client's job object (kind, tensor reference, rank,
    solver options); everything else is server-side bookkeeping.  The
    ``done`` event fires on every transition into a terminal state *or*
    into ``suspended`` — both end the current execution, which is what
    ``wait`` callers block on.  ``checkpoint_path`` is set only while a
    suspend snapshot exists for the job; :meth:`JobStore.transition`
    deletes it when the job ends.
    """

    id: str
    tenant: str
    kind: str
    spec: dict[str, Any]
    state: str = QUEUED
    submitted_s: float = field(default_factory=time.time)
    started_s: float | None = None
    finished_s: float | None = None
    nnz: int = 0
    resident_bytes: int = 0
    tensor_key: str = ""
    batch_id: int | None = None
    attempts: int = 0
    iterations_done: int = 0
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    trace: dict[str, Any] | None = None
    checkpoint_path: str | None = None
    resumed: int = 0
    suspend_requested: threading.Event = field(default_factory=threading.Event)
    done: threading.Event = field(default_factory=threading.Event)

    def snapshot(self) -> dict[str, Any]:
        """The JSON-safe status view returned by the ``status`` op."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "kind": self.kind,
            "state": self.state,
            "nnz": self.nnz,
            "batch": self.batch_id,
            "attempts": self.attempts,
            "iterations": self.iterations_done,
            "resumed": self.resumed,
            "error": self.error,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
        }


class JobStore:
    """Thread-safe registry of every job the server has seen."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._next = 0

    def create(self, tenant: str, kind: str, spec: dict[str, Any]) -> Job:
        with self._lock:
            self._next += 1
            job = Job(id=f"job-{self._next:06d}", tenant=tenant, kind=kind, spec=spec)
            self._jobs[job.id] = job
            return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, tenant: str | None = None) -> list[Job]:
        with self._lock:
            out = list(self._jobs.values())
        if tenant is not None:
            out = [j for j in out if j.tenant == tenant]
        return out

    # ------------------------------------------------------------------
    # per-tenant accounting the quota policy reads at admission time
    # ------------------------------------------------------------------
    def tenant_active_jobs(self, tenant: str) -> int:
        """Jobs of ``tenant`` currently holding a queue/run slot."""
        with self._lock:
            return sum(
                1 for j in self._jobs.values()
                if j.tenant == tenant and j.state in (QUEUED, RUNNING)
            )

    def tenant_resident_bytes(self, tenant: str) -> int:
        """Tensor bytes pinned by ``tenant``'s non-terminal jobs."""
        with self._lock:
            return sum(
                j.resident_bytes for j in self._jobs.values()
                if j.tenant == tenant and j.state not in TERMINAL_STATES
            )

    # ------------------------------------------------------------------
    # transitions (all under the store lock; events fired outside it)
    # ------------------------------------------------------------------
    def transition(self, job: Job, state: str, *, error: dict | None = None) -> None:
        """Move ``job`` to ``state``, stamping times and firing events.

        A job entering a terminal state can never be resumed, so its
        suspend snapshot, if any, is deleted before waiters are woken.
        """
        fire = False
        snapshot = None
        with self._lock:
            job.state = state
            if state == RUNNING:
                job.started_s = time.time()
                job.attempts += 1
                job.done.clear()
            elif state in TERMINAL_STATES or state == SUSPENDED:
                job.finished_s = time.time()
                if error is not None:
                    job.error = error
                if state in TERMINAL_STATES:
                    snapshot, job.checkpoint_path = job.checkpoint_path, None
                fire = True
            elif state == QUEUED:  # resume path
                job.done.clear()
                job.suspend_requested.clear()
        if snapshot is not None:
            Path(snapshot).unlink(missing_ok=True)
        if fire:
            job.done.set()
