"""Tasking layers: ``coforall``/``forall`` over real Python threads.

Chapel maps *tasks* onto threads via a pluggable tasking layer; the paper
uses Qthreads (default) and fifo (POSIX threads).  Here one
:class:`TaskingLayer`, named by ``env.tasking_layer``, serves both: it
executes tasks on real :mod:`threading` threads — NumPy kernels release the
GIL, so chunked vectorized work genuinely overlaps — and the two layers
differ in the properties the rest of the system cares about:

* how ``sync`` variables behave (:attr:`ChapelEnv.sync_vars_sleep`),
* worker pinning and spin-wait (consumed by
  :mod:`repro.perfmodel.interference`).

``coforall(n, body)`` is Chapel's task-parallel loop: exactly ``n`` tasks,
``body(tid)`` each.  ``forall(n, body)`` is the data-parallel loop: the
iteration space ``0..n-1`` is blocked over the layer's task count and
``body(lo, hi, tid)`` processes one block.  The paper's §IV-B pattern —
an ``omp for`` nested inside ``omp parallel`` — maps to ``coforall`` +
:func:`static_block`, and that is exactly how the MTTKRP kernels use it.

Like Qthreads, a layer does not spawn an OS thread per task: every
multi-task ``coforall`` dispatches onto the layer's persistent
:class:`~repro.runtime.pool.WorkerPool` (created on first use, reused for
the lifetime of the layer), so steady-state parallel loops pay two event
round-trips instead of a thread create/start/join cycle.
"""

from __future__ import annotations

from typing import Callable

from repro import probe as _probe
from repro.runtime.env import ChapelEnv
from repro.runtime.pool import WorkerPool

__all__ = [
    "TaskingLayer",
    "make_tasking_layer",
    "static_block",
]


def static_block(n: int, ntasks: int, tid: int) -> tuple[int, int]:
    """The ``[lo, hi)`` block of ``0..n-1`` owned by task ``tid``.

    Matches OpenMP's static schedule (and what the paper's Chapel code
    computes manually inside ``coforall``, §IV-B): the first ``n % ntasks``
    tasks get one extra element.
    """
    if ntasks < 1:
        raise ValueError("ntasks must be >= 1")
    if not 0 <= tid < ntasks:
        raise ValueError(f"tid {tid} out of range for {ntasks} tasks")
    base, extra = divmod(n, ntasks)
    lo = tid * base + min(tid, extra)
    hi = lo + base + (1 if tid < extra else 0)
    return lo, hi


class TaskingLayer:
    """Executes Chapel-style parallel constructs on real threads.

    The layer is the one ``env.tasking_layer`` names: ``"qthreads"``
    (Chapel's default: workers pinned when ``env.qt_affinity`` is set, sync
    variables sleep) or ``"fifo"`` (POSIX threads: no pinning, sync
    variables spin).  The lock pools and the perfmodel read the difference
    from the env; here it decides only worker pinning.
    """

    def __init__(self, env: ChapelEnv):
        #: Layer name ("qthreads" / "fifo").
        self.name = env.tasking_layer
        self.env = env
        self._pool: WorkerPool | None = None
        #: Resilience accounting for this layer: retried dispatches,
        #: simulated backoff seconds, and dispatches degraded to serial.
        self.retries = 0
        self.backoff_seconds = 0.0
        self.degraded_dispatches = 0

    # ------------------------------------------------------------------
    @property
    def worker_pool(self) -> WorkerPool:
        """The layer's persistent :class:`WorkerPool` (created on first use).

        Qthreads pins workers to cores when ``env.qt_affinity`` is set (the
        Qthreads default); fifo never pins.
        """
        if self._pool is None:
            self._pool = WorkerPool(
                name=f"{self.name}-worker",
                pin_workers=self.env.qt_affinity and self.name == "qthreads",
            )
        return self._pool

    def shutdown(self) -> None:
        """Stop and join the layer's pool workers (safe if never started)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if self._pool is not None:
                self._pool.shutdown(join=False)
        except Exception:
            pass

    # ------------------------------------------------------------------
    def _run_tasks(self, ntasks: int, body: Callable[[int], None]) -> None:
        """One dispatch attempt on the layer's worker pool."""
        self.worker_pool.run(ntasks, body)

    def _dispatch(self, ntasks: int, body: Callable[[int], None], span) -> None:
        """Dispatch with fault injection, retry and serial degradation.

        Each attempt fires the ``tasking.coforall`` fault site; injected
        faults (from any dispatch site or a task body) are retried by
        :meth:`repro.probe.Probe.retry`, and when retries run out the
        layer degrades to running the tasks serially inline.  Real task
        errors are never retried.
        """
        p = _probe.current
        if p is None:
            self._run_tasks(ntasks, body)
            return

        def attempt() -> None:
            p.fault("tasking.coforall")
            self._run_tasks(ntasks, body)

        def on_retry(backoff: float, attempts: int) -> None:
            self.retries += 1
            self.backoff_seconds += backoff
            if span is not None:
                span.set_attrs(retries=attempts)

        exc = p.retry(attempt, on_retry)
        if exc is None:
            return
        if not p.policy.degrade:
            raise exc
        # Graceful degradation: the tasking layer is deemed broken; run the
        # loop serially on the calling thread (no pool, no dispatch-site
        # pokes — the body's own faults still apply).
        self.degraded_dispatches += 1
        p.count("tasking.degraded")
        if span is not None:
            span.set_attrs(degraded=True, retries=p.policy.max_retries)
        for tid in range(ntasks):
            body(tid)

    def coforall(self, ntasks: int, body: Callable[[int], None]) -> None:
        """Run ``body(tid)`` for ``tid in 0..ntasks-1`` concurrently.

        ``ntasks == 1`` runs inline (no thread involved), matching Chapel's
        serialization of singleton coforalls.  Multi-task loops dispatch to
        the persistent worker pool.  Exceptions raised by any task
        propagate to the caller after all tasks finish (first one wins).
        Under an installed fault plan, injected dispatch failures are
        retried/degraded per the active retry policy (see :meth:`_dispatch`).
        """
        if ntasks < 1:
            raise ValueError("ntasks must be >= 1")
        if ntasks == 1:
            body(0)
            return
        p = _probe.current
        if p is None:
            self._dispatch(ntasks, body, None)
        else:
            p.coforall(ntasks, body, self._dispatch, layer=self.name)

    def forall(self, n: int, body: Callable[[int, int, int], None]) -> None:
        """Data-parallel loop: block ``0..n-1`` over ``env.num_tasks`` tasks.

        ``body(lo, hi, tid)`` handles one contiguous block.
        """
        ntasks = min(self.env.num_tasks, max(n, 1))

        def task(tid: int) -> None:
            lo, hi = static_block(n, ntasks, tid)
            if lo < hi:
                body(lo, hi, tid)

        self.coforall(ntasks, task)


def make_tasking_layer(env: ChapelEnv) -> TaskingLayer:
    """Instantiate the layer selected by ``env.tasking_layer``."""
    return TaskingLayer(env)
