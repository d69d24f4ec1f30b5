"""Thread-safe cost counters for runtime instrumentation.

The mutex pools record how much synchronization work an execution actually
performed (acquisitions, contended acquisitions, sleeps, yields).  Tests
assert on these to verify the lock-pressure story (YELP contends, NELL-2
does not) and the performance model consumes them for its contention term.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["CostCounters"]


@dataclass
class CostCounters:
    """Synchronization-event counters; all increments are thread-safe."""

    lock_acquires: int = 0
    lock_contended: int = 0
    sync_sleeps: int = 0
    task_yields: int = 0
    _mutex: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def add(
        self,
        *,
        lock_acquires: int = 0,
        lock_contended: int = 0,
        sync_sleeps: int = 0,
        task_yields: int = 0,
    ) -> None:
        with self._mutex:
            self.lock_acquires += lock_acquires
            self.lock_contended += lock_contended
            self.sync_sleeps += sync_sleeps
            self.task_yields += task_yields

    def reset(self) -> None:
        with self._mutex:
            self.lock_acquires = 0
            self.lock_contended = 0
            self.sync_sleeps = 0
            self.task_yields = 0

    @property
    def contention_ratio(self) -> float:
        """Fraction of lock acquisitions that found the lock held."""
        if self.lock_acquires == 0:
            return 0.0
        return self.lock_contended / self.lock_acquires

    def snapshot(self) -> dict[str, int]:
        """Consistent copy of all counters."""
        with self._mutex:
            return {
                "lock_acquires": self.lock_acquires,
                "lock_contended": self.lock_contended,
                "sync_sleeps": self.sync_sleeps,
                "task_yields": self.task_yields,
            }
