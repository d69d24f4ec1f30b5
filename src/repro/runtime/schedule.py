"""Loop schedules: static, dynamic and guided iteration dispatch.

Chapel's ``forall`` defaults to static blocking (what
:meth:`TaskingLayer.forall` implements), but irregular workloads — skewed
sort buckets, hub slices in MTTKRP — benefit from OpenMP-style *dynamic*
(fixed chunks claimed from a shared counter) or *guided* (geometrically
shrinking chunks) scheduling.  SPLATT's OpenMP loops use static scheduling
with nnz-balanced bounds; these schedulers exist to quantify that choice
(the scheduling ablation) and as general substrate.

All schedulers hand out ``(lo, hi)`` chunks through a thread-safe claim
counter and run the body on the tasking layer's real threads.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro import probe as _probe
from repro.observe import spans as _obs
from repro.runtime.tasking import TaskingLayer, static_block

__all__ = ["SCHEDULES", "forall_scheduled"]

SCHEDULES: tuple[str, ...] = ("static", "dynamic", "guided")


class _ChunkDealer:
    """Thread-safe chunk dispenser over ``0..n-1``."""

    def __init__(self, n: int, ntasks: int, schedule: str, chunk: int):
        self.n = n
        self.ntasks = ntasks
        self.schedule = schedule
        self.chunk = max(1, chunk)
        self._next = 0
        self._lock = threading.Lock()

    def claim(self) -> tuple[int, int] | None:
        with self._lock:
            if self._next >= self.n:
                return None
            lo = self._next
            if self.schedule == "dynamic":
                size = self.chunk
            else:  # guided: remaining / (2 * ntasks), floored at chunk
                remaining = self.n - lo
                size = max(self.chunk, remaining // (2 * self.ntasks))
            hi = min(lo + size, self.n)
            self._next = hi
            return lo, hi


def forall_scheduled(
    layer: TaskingLayer,
    n: int,
    body: Callable[[int, int, int], None],
    *,
    schedule: str = "static",
    chunk: int = 64,
) -> None:
    """Run ``body(lo, hi, tid)`` over ``0..n-1`` under the given schedule.

    Parameters
    ----------
    schedule:
        ``"static"`` — one contiguous block per task (OpenMP static /
        Chapel forall); ``"dynamic"`` — fixed ``chunk``-sized blocks
        claimed on demand; ``"guided"`` — geometrically shrinking blocks.
    chunk:
        Chunk size for dynamic, minimum chunk for guided.

    Every index is processed exactly once regardless of schedule.
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}; choose from {SCHEDULES}")
    if n <= 0:
        return
    ntasks = min(layer.env.num_tasks, n)

    if schedule == "static":
        def task(tid: int) -> None:
            lo, hi = static_block(n, ntasks, tid)
            if lo < hi:
                body(lo, hi, tid)

        with _obs.span("forall_scheduled", schedule=schedule, n=n, ntasks=ntasks):
            layer.coforall(ntasks, task)
        return

    dealer = _ChunkDealer(n, ntasks, schedule, chunk)

    def task(tid: int) -> None:
        claimed_chunks = 0
        try:
            while True:
                claimed = dealer.claim()
                if claimed is None:
                    return
                claimed_chunks += 1
                p = _probe.current
                if p is not None:
                    # Fuzzer perturbation point: stall between claim and
                    # body so chunk interleavings vary across tasks.
                    p.pause("schedule.chunk")
                    # Retried per chunk, not by the dispatch: a claimed
                    # chunk is gone from the dealer, so an outer retry
                    # would silently drop it.
                    exc = p.retry(lambda: p.fault("schedule.chunk"))
                    if exc is not None:
                        exc.retry_safe = False
                        raise exc
                body(claimed[0], claimed[1], tid)
        finally:
            p = _probe.current
            if p is not None and claimed_chunks:
                p.count("schedule.chunks_claimed", claimed_chunks)

    with _obs.span(
        "forall_scheduled", schedule=schedule, n=n, ntasks=ntasks, chunk=chunk
    ):
        layer.coforall(ntasks, task)
