"""Chapel ``sync`` variables — full/empty semantics (paper §II, §IV-A).

A ``sync`` variable couples a value with a *full/empty* state: reads block
until full and leave the variable empty; writes block until empty and
leave it full.  The paper's mutex pool is literally an array of
``sync bool`` (initialized full; acquire = read, release = write), and the
performance pathology of Fig 4 comes from how the tasking layer implements
the blocking: Qthreads *sleeps* a blocked task, fifo *spins*.

:class:`SyncVar` implements the complete Chapel access-method family:

=============  ===========================================================
``read_fe``    block until full, read, leave **empty**  (default read)
``read_ff``    block until full, read, leave full
``read_xx``    read current value regardless of state (no state change)
``write_ef``   block until empty, write, leave **full** (default write)
``write_ff``   block until full, write, leave full
``write_xf``   write regardless of state, leave full
``reset``      set to the type's default value, leave empty
``is_full``    non-blocking state peek
=============  ===========================================================

Like the mutex pools, the blocking behaviour honours the ambient
:class:`~repro.runtime.env.ChapelEnv`: under Qthreads a blocked task waits
on a condition variable (and the wait is counted as a sleep); under fifo
it spin-waits (counted as yields).
"""

from __future__ import annotations

import threading
import time
from typing import Generic, TypeVar

from repro import probe as _probe
from repro.runtime.accounting import CostCounters
from repro.runtime.env import ChapelEnv

__all__ = ["SyncVar"]

T = TypeVar("T")

#: ``_access`` sentinel: leave the stored value as it is.
_KEEP = object()


class SyncVar(Generic[T]):
    """A Chapel ``sync`` variable holding one value of type ``T``.

    Parameters
    ----------
    initial:
        If given, the variable starts *full* with this value; otherwise it
        starts empty (Chapel's default for an uninitialized sync).
    env:
        Tasking-layer configuration; decides sleep-vs-spin for blocked
        accesses.
    counters:
        Optional shared instrumentation.
    """

    def __init__(
        self,
        initial: T | None = None,
        *,
        default: T | None = None,
        env: ChapelEnv | None = None,
        counters: CostCounters | None = None,
    ):
        self.env = env if env is not None else ChapelEnv()
        self.counters = counters if counters is not None else CostCounters()
        self._cond = threading.Condition(threading.Lock())
        self._default: T | None = default
        if initial is not None:
            self._value: T | None = initial
            self._full = True
        else:
            self._value = default
            self._full = False

    # ------------------------------------------------------------------
    # the one access path
    # ------------------------------------------------------------------
    def _san_key(self) -> tuple:
        """The sanitizer's identity for this variable (wait tracking and
        happens-before handoff edges)."""
        return ("SyncVar", id(self))

    def _access(self, wait_full: bool | None, full: bool | None, value=_KEEP):
        """Block until the state is ``wait_full`` (``None``: no wait),
        store ``value`` unless it is ``_KEEP``, set the state to ``full``
        (``None``: unchanged) and wake waiters; return the value seen.

        Blocking sleeps or spins per the tasking layer.  The completed
        transition is reported as a happens-before handoff, in the order
        the accesses really serialized.
        """
        p = _probe.current
        if p is not None:
            p.pause("syncvar.op")
        with self._cond:
            if wait_full is not None and self._full != wait_full:
                # An outstanding blocked access a writer/reader must
                # complete — reported so a watchdog can flag a lost wakeup.
                waiting = p is not None and p.wait_begin(
                    self._san_key(), "full" if wait_full else "empty")
                if self.env.sync_vars_sleep:
                    while self._full != wait_full:
                        self.counters.add(sync_sleeps=1)
                        self._cond.wait()
                else:
                    while self._full != wait_full:
                        self._cond.release()
                        self.counters.add(task_yields=1)
                        time.sleep(0)
                        self._cond.acquire()  # reprolint: allow(lock-no-finally) — re-acquire of the condition's own lock inside its yield loop; the enclosing 'with self._cond' owns the release
                if waiting:
                    p.wait_end(self._san_key())
            seen = self._value
            if value is not _KEEP:
                self._value = value
            if full is not None:
                self._full = full
            if p is not None:
                p.sync_op(self._san_key())
            if self.env.sync_vars_sleep:
                self._cond.notify_all()
            return seen

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_fe(self) -> T:
        """Block until full, return the value, leave **empty**."""
        return self._access(True, False)

    def read_ff(self) -> T:
        """Block until full, return the value, leave full."""
        return self._access(True, None)

    def read_xx(self) -> T | None:
        """Return the current value regardless of state (no state change)."""
        with self._cond:
            return self._value

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write_ef(self, value: T) -> None:
        """Block until empty, store ``value``, leave **full**."""
        self._access(False, True, value)

    def write_ff(self, value: T) -> None:
        """Block until full, overwrite the value, leave full."""
        self._access(True, None, value)

    def write_xf(self, value: T) -> None:
        """Store ``value`` regardless of state, leave full."""
        self._access(None, True, value)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Set to the default value and leave **empty** (Chapel ``reset``)."""
        self._access(None, False, self._default)

    def is_full(self) -> bool:
        """Non-blocking state peek (Chapel ``isFull``)."""
        with self._cond:
            return self._full
