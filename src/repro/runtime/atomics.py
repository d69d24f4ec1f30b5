"""Chapel ``atomic`` scalar types (§II).

Chapel exposes ``atomic int``/``atomic real``/``atomic bool`` with the
usual operation set — ``read``, ``write``, ``exchange``, ``compareAndSwap``,
``testAndSet``/``clear`` (bools), ``fetchAdd``/``fetchSub`` and friends.
The paper's mutex pool is built on ``atomic bool`` (Listing 6); these
classes provide the full surface, implemented over a per-variable lock
(CPython has no lock-free primitives, but the *semantics* — atomicity and
sequential consistency per variable — hold exactly, which is what the
tests assert under real thread contention).
"""

from __future__ import annotations

import threading
import time

from repro import probe as _probe

__all__ = ["AtomicInt", "AtomicReal", "AtomicBool"]


class _AtomicBase:
    """Common machinery: one lock per variable."""

    __slots__ = ("_lock", "_value")

    def __init__(self, initial):
        self._lock = threading.Lock()
        self._value = initial

    def read(self):
        """Atomic load."""
        with self._lock:
            return self._value

    def write(self, value) -> None:
        """Atomic store."""
        with self._lock:
            self._value = self._coerce(value)

    def exchange(self, value):
        """Store ``value``, return the previous value."""
        with self._lock:
            old = self._value
            self._value = self._coerce(value)
            return old

    def compare_and_swap(self, expected, desired) -> bool:
        """If the value equals ``expected``, store ``desired``; returns
        whether the swap happened (Chapel ``compareAndSwap``)."""
        with self._lock:
            if self._value == expected:
                self._value = self._coerce(desired)
                return True
            return False

    @staticmethod
    def _coerce(value):
        return value


class AtomicInt(_AtomicBase):
    """``atomic int`` with fetch-and-φ arithmetic."""

    def __init__(self, initial: int = 0):
        super().__init__(int(initial))

    @staticmethod
    def _coerce(value):
        return int(value)

    def fetch_add(self, delta: int = 1) -> int:
        """Add ``delta``; return the value *before* the add."""
        with self._lock:
            old = self._value
            self._value = old + int(delta)
            return old

    def fetch_sub(self, delta: int = 1) -> int:
        """Subtract ``delta``; return the value before."""
        return self.fetch_add(-delta)

    def add(self, delta: int = 1) -> None:
        """Add without returning (Chapel ``add``)."""
        self.fetch_add(delta)

    def sub(self, delta: int = 1) -> None:
        self.fetch_add(-delta)


class AtomicReal(_AtomicBase):
    """``atomic real``."""

    def __init__(self, initial: float = 0.0):
        super().__init__(float(initial))

    @staticmethod
    def _coerce(value):
        return float(value)

    def fetch_add(self, delta: float) -> float:
        with self._lock:
            old = self._value
            self._value = old + float(delta)
            return old

    def add(self, delta: float) -> None:
        self.fetch_add(delta)


class AtomicBool(_AtomicBase):
    """``atomic bool`` with test-and-set / clear (the Listing 6 pair).

    ``counters`` (optional) makes the :meth:`spin_lock` / :meth:`spin_unlock`
    pair account exactly like :class:`~repro.runtime.locks.AtomicLockPool`:
    one ``task_yields`` per failed test-and-set, then ``lock_acquires`` and
    ``lock_contended`` on success — so Listing-6 spinlocks used directly are
    visible to the Fig-4 performance model instead of silently free.
    """

    def __init__(self, initial: bool = False, counters=None):
        super().__init__(bool(initial))
        self.counters = counters

    @staticmethod
    def _coerce(value):
        return bool(value)

    def _san_token(self) -> tuple:
        """Sanitizer identity of this spinlock (lockset membership)."""
        return ("AtomicBool", id(self), 0)

    def test_and_set(self) -> bool:
        """Set to True; return the *previous* value (True ⇒ already held)."""
        with self._lock:
            old = self._value
            self._value = True
            return old

    def clear(self) -> None:
        """Set to False (release in the Listing 6 spinlock)."""
        self.write(False)

    def spin_lock(self, counters=None) -> None:
        """Listing 6's acquire: spin on test-and-set, yielding between
        attempts (``chpl_task_yield``).

        ``counters`` overrides the instance handle for this call; with
        either in place the accounting matches ``AtomicLockPool.acquire``
        (yields per spin, acquires and contention on success).
        """
        counters = counters if counters is not None else self.counters
        p = _probe.current
        if p is not None:
            p.pause("lock.spin")
        contended = False
        while self.test_and_set():
            contended = True
            if counters is not None:
                counters.add(task_yields=1)
            time.sleep(0)  # chpl_task_yield analogue: cede the OS thread
        if counters is not None:
            counters.add(lock_acquires=1, lock_contended=int(contended))
        if p is not None:
            p.lock_acquire(self._san_token(), "AtomicBool.spin_lock", contended)

    def spin_unlock(self) -> None:
        p = _probe.current
        if p is not None:
            p.lock_release(self._san_token())
        self.clear()
