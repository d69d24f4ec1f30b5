"""Persistent worker pool: long-lived threads behind ``coforall``.

Chapel's tasking layers do not create an OS thread per task: Qthreads keeps
a fixed set of (by default pinned) *workers* alive for the whole program and
multiplexes tasks onto them.  The seed port instead spawned fresh
``threading.Thread`` objects on every ``coforall`` — dozens of times per
CP-ALS iteration — re-introducing exactly the per-call overhead the paper
spends §V removing.  :class:`WorkerPool` restores the Chapel shape: workers
are created once (lazily, growing to the largest task count seen), parked on
a per-worker mailbox event, and reused by every subsequent ``coforall`` /
``forall`` / reduction in the run.

Dispatch protocol: the caller takes the dispatch lock, hands ``body`` and a
``tid`` to the first ``ntasks`` workers, and waits on their done events —
two event round-trips instead of a thread create/start/join cycle.  A
nested or concurrent dispatch (a ``coforall`` issued from inside a pool
worker, or from another thread while the pool is busy) falls back to
ephemeral threads, so the pool can never deadlock on itself.

Shutdown semantics: workers are daemon threads, so a forgotten pool cannot
hang interpreter exit; :meth:`WorkerPool.shutdown` parks and joins them
deterministically, a pool whose owning
:class:`~repro.runtime.tasking.TaskingLayer` is garbage collected signals
its workers to stop on finalization, and every live pool is additionally
registered in a module-level weak set that an ``atexit`` hook drains — so
workers are told to stop even when neither the layer nor the pool is ever
explicitly shut down or collected.

Fault injection: :meth:`WorkerPool.run` fires the ``pool.dispatch`` and
``pool.task`` sites through :meth:`repro.probe.Probe.dispatch`.

Parallelism note: under plain NumPy kernels the pool's workers contend on
the GIL between vector calls, so the pool models Chapel's structure more
than its speed.  With a compiled kernel backend selected
(:mod:`repro.backend` — the ctypes C extension, whose foreign calls
release the GIL for their whole duration), the range
kernels dispatched onto these workers run concurrently.  Whether more
tasks are faster depends on the host: ``benchmarks/BENCH_backend.json``
(a 2-core shared Xeon VM, named in its ``host`` stamp) records best
steady-state sweeps of 4.9 / 4.6 / 4.6 ms for cext at 1 / 2 / 4 tasks.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from typing import Callable

from repro import probe as _probe

__all__ = ["WorkerPool", "run_ephemeral"]

#: Every constructed pool, weakly held; the atexit hook signals any still
#: alive at interpreter exit to stop (without joining — they are daemons).
_live_pools: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


@atexit.register
def _shutdown_live_pools() -> None:  # pragma: no cover - exercised via direct call
    for pool in list(_live_pools):
        pool.shutdown(join=False)


def run_ephemeral(ntasks: int, body: Callable[[int], None]) -> None:
    """Run ``body(tid)`` on ``ntasks`` fresh threads (the pre-pool path).

    All tasks join before the first exception (if any) propagates.  Kept as
    the fallback for nested/concurrent dispatches and as the seed
    spawn-per-call baseline the amortization benchmark measures the pool
    against.
    """
    errors: list[BaseException] = []
    errors_lock = threading.Lock()

    def run(tid: int) -> None:
        try:
            body(tid)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            with errors_lock:
                errors.append(exc)

    threads = [threading.Thread(target=run, args=(tid,), daemon=True) for tid in range(ntasks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class _Worker:
    """One parked pool thread: a mailbox event pair plus the task slot."""

    __slots__ = ("thread", "_work", "_done", "_body", "_tid", "error", "_stop")

    def __init__(self, index: int, name: str, cpu: int | None):
        self._work = threading.Event()
        self._done = threading.Event()
        self._body: Callable[[int], None] | None = None
        self._tid = 0
        self.error: BaseException | None = None
        self._stop = False
        self.thread = threading.Thread(
            target=self._loop, args=(cpu,), daemon=True, name=f"{name}-{index}"
        )
        self.thread.start()

    def _loop(self, cpu: int | None) -> None:
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except (AttributeError, OSError):  # pinning is best-effort
                pass
        while True:
            self._work.wait()
            self._work.clear()
            if self._stop:
                self._done.set()
                return
            try:
                if self._body is None:
                    raise RuntimeError(
                        f"pool worker {self._tid} woken without a body: "
                        "dispatch/shutdown protocol violated"
                    )
                self._body(self._tid)
            except BaseException as exc:  # noqa: BLE001 - surfaced by dispatch()
                self.error = exc
            finally:
                self._body = None
                self._done.set()

    def submit(self, body: Callable[[int], None], tid: int) -> None:
        self._body = body
        self._tid = tid
        self.error = None
        self._done.clear()
        self._work.set()

    def wait(self) -> None:
        self._done.wait()

    def stop(self) -> None:
        self._stop = True
        self._work.set()


class WorkerPool:
    """A long-lived pool of worker threads executing ``coforall`` dispatches.

    Parameters
    ----------
    name:
        Thread-name prefix (shows up in debuggers / ``py-spy``).
    pin_workers:
        Pin worker ``i`` to core ``i % ncores`` (Linux only, best-effort) —
        the Qthreads ``QT_AFFINITY`` default the paper discusses in §V-E.

    Statistics (all monotone, read by tests and ``cp_als`` reporting):
    ``threads_created`` — workers ever started; ``dispatches`` — pooled
    ``run`` calls served; ``fallback_dispatches`` — nested/concurrent calls
    served on ephemeral threads; ``tasks_executed`` — task bodies run on
    pool workers.
    """

    def __init__(self, *, name: str = "chpl-worker", pin_workers: bool = False):
        self.name = name
        self.pin_workers = pin_workers
        self._workers: list[_Worker] = []
        self._idents: frozenset[int] = frozenset()
        self._grow_lock = threading.Lock()
        self._dispatch_lock = threading.Lock()
        self._closed = False
        self.threads_created = 0
        self.dispatches = 0
        self.fallback_dispatches = 0
        self.tasks_executed = 0
        _live_pools.add(self)

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Workers currently alive in the pool."""
        return len(self._workers)

    def worker_idents(self) -> list[int]:
        """Thread idents of the live workers, in tid order (test hook)."""
        return [w.thread.ident for w in self._workers if w.thread.ident is not None]

    def _ensure(self, n: int) -> None:
        with self._grow_lock:
            if self._closed:
                raise RuntimeError("worker pool has been shut down")
            ncpu = os.cpu_count() or 1
            while len(self._workers) < n:
                index = len(self._workers)
                cpu = (index % ncpu) if self.pin_workers else None
                self._workers.append(_Worker(index, self.name, cpu))
                self.threads_created += 1
            self._idents = frozenset(
                w.thread.ident for w in self._workers if w.thread.ident is not None
            )

    # ------------------------------------------------------------------
    def run(self, ntasks: int, body: Callable[[int], None]) -> None:
        """Execute ``body(tid)`` for ``tid in 0..ntasks-1``, one per worker.

        Every task runs on its own (persistent) worker thread, so tasks may
        block on each other (the sync lock pool's sleeps) exactly as with the
        spawn-per-call implementation.  The first task exception propagates
        after all tasks finish.  Re-entrant or concurrent calls fall back to
        :func:`run_ephemeral` rather than waiting on a busy pool.
        """
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        p = _probe.current
        if p is not None:
            # Fuzzer perturbation point: delay the dispatch itself so pooled
            # tasks start against shifted backgrounds.
            p.pause("pool.dispatch")
        if (
            self._closed
            or threading.get_ident() in self._idents
            or not self._dispatch_lock.acquire(blocking=False)
        ):
            self.fallback_dispatches += 1
            if p is not None:
                p.count("pool.fallback_dispatches")
            run_ephemeral(ntasks, body)
            return
        try:
            if p is not None:
                body = p.dispatch(body)
            self._ensure(ntasks)
            workers = self._workers[:ntasks]
            submitted: list[_Worker] = []
            try:
                for tid, worker in enumerate(workers):
                    worker.submit(body, tid)
                    submitted.append(worker)
                for worker in workers:
                    worker.wait()
            except BaseException:
                # A failure between submit and wait (injected fault,
                # KeyboardInterrupt, ...) must not hand the dispatch slot
                # to the next caller while workers still run the old body —
                # that would overwrite their mailboxes and park them with a
                # cleared done event.  Drain everything submitted first.
                for worker in submitted:
                    worker.wait()
                raise
            self.dispatches += 1
            self.tasks_executed += ntasks
            if p is not None:
                p.count("pool.dispatches")
                p.count("pool.tasks_executed", ntasks)
            for worker in workers:
                if worker.error is not None:
                    raise worker.error
        finally:
            self._dispatch_lock.release()

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Pool-reuse statistics (workers alive, dispatches served, ...)."""
        return {
            "workers": self.num_workers,
            "threads_created": self.threads_created,
            "dispatches": self.dispatches,
            "fallback_dispatches": self.fallback_dispatches,
            "tasks_executed": self.tasks_executed,
        }

    def shutdown(self, join: bool = True) -> None:
        """Stop all workers; ``join=True`` waits for their threads to exit.

        Idempotent.  After shutdown the pool serves any further ``run``
        calls on ephemeral threads (it never resurrects workers).
        """
        with self._grow_lock:
            if self._closed and not self._workers:
                return
            self._closed = True
            workers, self._workers = self._workers, []
            self._idents = frozenset()
        for w in workers:
            w.stop()
        if join:
            for w in workers:
                w.thread.join(timeout=5.0)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.shutdown(join=False)
        except Exception:
            pass
