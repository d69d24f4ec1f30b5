"""Sparse vector clocks for the happens-before race detector.

A vector clock maps task ids to logical timestamps; entries absent from
the map are implicitly zero, so clocks stay proportional to the number of
tasks that actually synchronized rather than the number of tasks ever
created (a ``coforall`` sweep forks fresh task ids on every dispatch).

The detector only ever needs three operations:

* ``tick`` — advance a task's own component (one logical step);
* ``join`` — elementwise max, the effect of synchronizing with another
  timeline (fork, join);
* the *epoch test* — did access ``(task t, timestamp c)`` happen before
  the state summarized by this clock?  True iff ``c <= clock[t]``
  (FastTrack's epoch rule): everything ``t`` did up to ``c`` has been
  joined into this clock.
"""

from __future__ import annotations

__all__ = ["VectorClock"]


class VectorClock:
    """A sparse task-id → timestamp map with join/tick/epoch operations."""

    __slots__ = ("_c",)

    def __init__(self, init: dict[int, int] | None = None):
        self._c: dict[int, int] = dict(init) if init else {}

    def get(self, task_id: int) -> int:
        """The clock's component for ``task_id`` (0 when never seen)."""
        return self._c.get(task_id, 0)

    def tick(self, task_id: int) -> int:
        """Advance ``task_id``'s component by one; returns the new value."""
        value = self._c.get(task_id, 0) + 1
        self._c[task_id] = value
        return value

    def join(self, other: "VectorClock") -> None:
        """Elementwise maximum with ``other`` (in place)."""
        c = self._c
        for task_id, value in other._c.items():
            if c.get(task_id, 0) < value:
                c[task_id] = value

    def copy(self) -> "VectorClock":
        return VectorClock(self._c)

    def covers(self, task_id: int, timestamp: int) -> bool:
        """Epoch test: has ``(task_id, timestamp)`` happened before this
        clock's owner?  True means the access is ordered (not racy)."""
        return timestamp <= self._c.get(task_id, 0)

    def snapshot(self) -> dict[int, int]:
        """A plain-dict copy (for reports and tests)."""
        return dict(self._c)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"t{t}:{v}" for t, v in sorted(self._c.items()))
        return f"VectorClock({{{inner}}})"
