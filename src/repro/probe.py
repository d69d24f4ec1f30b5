"""The instrumentation seam: one process-global slot for every runtime tool.

The runtime primitives, the MTTKRP scatter kernels and the distributed
exchanges report to as many as four tools — the trace recorder, the
concurrency sanitizer, the fault plan and the retry policy — through
:data:`current`, the only install slot in the program.  It is ``None``
when no tool is installed (a call site then costs one global load and one
``is None`` test), otherwise an immutable :class:`Probe` whose one method
per runtime event hands the event to whichever tools are installed.

``tracing``, ``sanitizing``, ``inject_faults`` and ``retrying`` each set
one field with :func:`install` and put back only that field on exit, so
the four stay independent however their ``with`` blocks interleave.
docs/RUNTIME.md has the table of events and the tools that hear them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Callable

# ``current`` is read as ``probe.current``, never imported by name: a
# ``from repro.probe import current`` would keep a stale copy.
__all__ = ["Probe", "install"]


@dataclass(frozen=True, slots=True)
class Probe:
    """The installed tools (any may be ``None``) and one method per event."""

    recorder: Any = None
    sanitizer: Any = None
    plan: Any = None
    policy: Any = None

    def pause(self, site: str) -> None:
        """Fuzzer perturbation point: maybe inject a deterministic delay."""
        san = self.sanitizer
        if san is not None and san.perturber is not None:
            san.perturber.pause(site)

    def count(self, name: str, n: int | float = 1) -> None:
        """Bump trace counter ``name``."""
        if self.recorder is not None:
            self.recorder.count(name, n)

    def lock_acquire(self, token: tuple, site: str, contended: bool,
                     sleeps: int = 0) -> None:
        """The calling task now holds the lock ``token``."""
        if self.sanitizer is not None:
            self.sanitizer.on_acquire(token, site)
        rec = self.recorder
        if rec is not None:
            rec.count("lock.acquires")
            if contended:
                rec.count("lock.contended")
            if sleeps:
                rec.count("lock.sync_sleeps", sleeps)

    def lock_release(self, token: tuple) -> None:
        """The calling task releases the lock ``token``."""
        if self.sanitizer is not None:
            self.sanitizer.on_release(token)

    def wait_begin(self, key: tuple, what: str) -> bool:
        """The calling task blocks on ``key``; True when the wait is
        tracked (then pair it with :meth:`wait_end`)."""
        if self.sanitizer is None:
            return False
        self.sanitizer.wait_begin(key, what)
        return True

    def wait_end(self, key: tuple) -> None:
        """The calling task's tracked wait on ``key`` completed."""
        self.sanitizer.wait_end(key)

    def coforall(self, ntasks: int, body: Callable[[int], None],
                 dispatch: Callable, *, layer: str) -> None:
        """Task fork/join: run ``dispatch(ntasks, body, span)`` with every
        tool around it.

        The sanitizer forks one concurrent timeline per task off the
        caller's clock, binds each body to its timeline on whatever thread
        runs it, and joins them after, even when a task failed.  The
        recorder opens a ``coforall`` span and one ``task`` span per body,
        parented across threads by an explicit id.
        """
        san = self.sanitizer
        handles = None
        if san is not None:
            self.pause("tasking.coforall")
            handles = san.fork(ntasks, f"coforall:{layer}")
            forked = body

            def body(tid: int) -> None:
                with san.task(handles[tid]):
                    forked(tid)

        try:
            rec = self.recorder
            if rec is None:
                dispatch(ntasks, body, None)
                return
            with rec.span("coforall", {"ntasks": ntasks, "layer": layer}) as span:
                traced = body

                def body(tid: int) -> None:
                    with rec.span("task", {"tid": tid}, parent_id=span.id):
                        traced(tid)

                dispatch(ntasks, body, span)
        finally:
            if san is not None:
                san.join(handles)

    def dispatch(self, body: Callable[[int], None]) -> Callable[[int], None]:
        """A pooled dispatch is about to submit ``body``: fire the
        ``pool.dispatch`` fault site (before any task runs, so a retry
        re-runs nothing) and return ``body`` wrapped with the ``pool.task``
        site, which fires on the worker and surfaces as a task failure."""
        plan = self.plan
        if plan is None:
            return body
        plan.poke("pool.dispatch")

        def task(tid: int) -> None:
            plan.poke("pool.task")
            body(tid)

        return task

    def array_register(self, array, name: str) -> None:
        """Give ``array`` a readable name in race reports."""
        if self.sanitizer is not None:
            self.sanitizer.register_array(array, name)

    def array_write(self, array, rows, site: str) -> None:
        """The calling task wrote ``rows`` of ``array`` under the locks it
        holds now."""
        if self.sanitizer is not None:
            self.sanitizer.on_access(array, rows, write=True, site=site)

    def fault(self, site: str) -> None:
        """An arrival at fault site ``site``; raises ``InjectedFault`` when
        the installed plan schedules a failure for it."""
        if self.plan is not None:
            self.plan.poke(site)

    def retry(self, op: Callable[[], None],
              on_retry: Callable[[float, int], None] | None = None
              ) -> BaseException | None:
        """The one retry loop: run ``op()`` under the installed policy.

        With no fault plan installed ``op`` runs once.  Otherwise a failure
        the policy handles (and not marked ``retry_safe = False``) is
        retried up to ``policy.max_retries`` times, calling
        ``on_retry(backoff, attempts)`` each time; others propagate.
        Returns ``None`` on success, or the last failure once retries ran
        out — whether to degrade or re-raise is the caller's decision.
        """
        if self.plan is None:
            op()
            return None
        policy = self.policy
        attempts = 0
        while True:
            try:
                op()
                return None
            except BaseException as exc:
                if (policy is None or not policy.handles(exc)
                        or not getattr(exc, "retry_safe", True)):
                    raise
                if attempts >= policy.max_retries:
                    return exc
                backoff = policy.backoff(attempts)
                attempts += 1
                if on_retry is not None:
                    on_retry(backoff, attempts)
                self.count("retry.attempts")
                policy.pause(backoff)


_EMPTY = Probe()

#: The installed tools, or ``None`` when none is.  Call sites read it as
#: ``p = probe.current`` and report only when ``p is not None``.
current: Probe | None = None
_lock = threading.Lock()


def install(field: str, tool: Any) -> Any:
    """Set one field of the slot to ``tool`` (``None`` uninstalls it) and
    return the field's previous value; the other fields are untouched."""
    global current
    with _lock:
        old = current if current is not None else _EMPTY
        new = replace(old, **{field: tool})
        current = None if new == _EMPTY else new
    return getattr(old, field)
