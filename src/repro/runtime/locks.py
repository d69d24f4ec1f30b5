"""Mutex pools: the paper's ``sync``-variable and ``atomic``-variable locks.

Chapel has no built-in mutex (§IV-A), so SPLATT's mutex pool was ported two
ways, and the difference is the subject of Fig 4:

* :class:`SyncLockPool` — an array of ``sync bool`` variables.  Acquiring
  reads the variable (full→empty), releasing writes it (empty→full).
  Under the Qthreads tasking layer a task blocked on a sync variable is
  *put to sleep*; for MTTKRP's very short critical sections the
  sleep/wake round-trip dwarfs the protected work.  Under fifo, sync vars
  spin instead and behave like the atomic pool.

* :class:`AtomicLockPool` — an array of ``atomic bool`` spinlocks:
  ``while pool[id].testAndSet() do chpl_task_yield();`` (Listing 6).

Both are real, thread-safe lock pools (usable from Python threads) that
additionally emulate the *behavioural* distinction — sleep vs spin — and
count every acquisition and contention event for the performance model.

Lock assignment hashes the protected row index into the pool exactly as
SPLATT's ``mutex_pool`` does (index modulo pool size).

Each pool has two lock flavours, and one MTTKRP call uses only one of them
(:func:`~repro.mttkrp.csf_kernels.run_scatter` chooses on the
dispatching thread):

* **Compiled** — on a backend with ``locked_scatter`` (``cext``) and no
  sanitizer installed, each task's whole bucket loop runs in C with the GIL
  released, over the pool's C lock array (:meth:`MutexPool.c_locks`): one
  64-byte-padded slot per lock, an ``atomic_flag`` test-and-set spinlock
  with ``sched_yield`` for the atomic pool, a ``pthread_mutex_t`` for the
  sync pool (sleeping in ``pthread_mutex_lock`` after a failed trylock
  under Qthreads, spinning on trylock under fifo).  The counts reach
  :attr:`MutexPool.counters` once per task-call; :meth:`MutexPool.acquire`
  is never called, so nothing times it.
* **Python** — everywhere else (the numpy backend, and every
  sanitizer run, which must see each acquire and each write inside its
  critical section): the ``threading`` locks below.

The two flavours do not exclude each other.  That is safe because the
tasks that write one output array all belong to one call, hence one
flavour; separate calls write separate outputs.
"""

from __future__ import annotations

import threading
import time
import weakref
from abc import ABC, abstractmethod

from repro import probe as _probe
from repro.runtime.accounting import CostCounters
from repro.runtime.env import ChapelEnv

__all__ = [
    "DEFAULT_POOL_SIZE",
    "MutexPool",
    "AtomicLockPool",
    "SyncLockPool",
    "make_mutex_pool",
]

#: SPLATT's default mutex pool size (``SPLATT_DEFAULT_NLOCKS``... 1024 locks,
#: padded to separate cache lines in C, as :meth:`MutexPool.c_locks` is;
#: padding is moot for the Python locks).
DEFAULT_POOL_SIZE = 1024


class MutexPool(ABC):
    """A pool of locks protecting factor-matrix rows during MTTKRP.

    Subclasses implement the acquire/release mechanics; the pool maps a row
    index to a lock via :meth:`lock_id`.
    """

    #: ``"atomic"`` or ``"sync"``: the lock kind of the C lock array.
    kind: str
    #: True when a contended acquire sleeps rather than spins.
    sleeps: bool = False

    def __init__(self, size: int = DEFAULT_POOL_SIZE, counters: CostCounters | None = None):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.counters = counters if counters is not None else CostCounters()
        self._c_locks = None
        self._c_init = threading.Lock()

    def c_locks(self, backend):
        """The pool's C lock array, made by ``backend`` on first use.

        ``size`` locks of :attr:`kind`, initialised by the backend's C
        code and destroyed with the pool.  Independent of the Python locks.
        """
        if self._c_locks is None:
            with self._c_init:
                if self._c_locks is None:
                    locks = backend.make_locks(self.size, self.kind)
                    weakref.finalize(self, backend.free_locks, locks, self.kind)
                    self._c_locks = locks
        return self._c_locks

    def lock_id(self, index: int) -> int:
        """Hash a protected row index into the pool (SPLATT: ``i % nlocks``)."""
        return int(index) % self.size

    def _san_token(self, lock_id: int) -> tuple:
        """The sanitizer's identity for one pool lock (lockset membership
        and lock-order-graph node)."""
        return (type(self).__name__, id(self), lock_id)

    @abstractmethod
    def acquire(self, lock_id: int) -> None:
        """Block until lock ``lock_id`` is held by the caller."""

    @abstractmethod
    def release(self, lock_id: int) -> None:
        """Release lock ``lock_id`` (must be held)."""

    # Convenience context manager keyed by *row* index.
    class _Guard:
        __slots__ = ("pool", "lid")

        def __init__(self, pool: "MutexPool", lid: int):
            self.pool = pool
            self.lid = lid

        def __enter__(self):
            self.pool.acquire(self.lid)
            return self

        def __exit__(self, *exc):
            self.pool.release(self.lid)
            return False

    def guard_row(self, row_index: int) -> "MutexPool._Guard":
        """``with pool.guard_row(i): ...`` — lock the row's bucket."""
        return MutexPool._Guard(self, self.lock_id(row_index))


class AtomicLockPool(MutexPool):
    """Spinlock pool over ``atomic bool`` test-and-set (Listing 6).

    ``acquire`` spins on a non-blocking test-and-set, yielding between
    attempts (``chpl_task_yield``); ``release`` clears the flag.  Suited to
    MTTKRP's short critical sections — the winner of Fig 4.
    """

    kind = "atomic"

    def __init__(self, size: int = DEFAULT_POOL_SIZE, counters: CostCounters | None = None):
        super().__init__(size, counters)
        self._locks = [threading.Lock() for _ in range(size)]

    def acquire(self, lock_id: int) -> None:
        p = _probe.current
        if p is not None:
            p.pause("lock.acquire")
        lock = self._locks[lock_id]
        contended = False
        # testAndSet loop: try without blocking; yield the task on failure.
        while not lock.acquire(blocking=False):
            contended = True
            self.counters.add(task_yields=1)
            time.sleep(0)  # chpl_task_yield analogue: cede the OS thread
        self.counters.add(lock_acquires=1, lock_contended=int(contended))
        if p is not None:
            p.lock_acquire(self._san_token(lock_id), "AtomicLockPool.acquire",
                           contended)

    def release(self, lock_id: int) -> None:
        p = _probe.current
        if p is not None:
            p.lock_release(self._san_token(lock_id))
        self._locks[lock_id].release()


class SyncLockPool(MutexPool):
    """Lock pool over ``sync bool`` full/empty variables.

    The pool initializes every variable *full* (True).  ``acquire`` reads
    (blocks until full, leaves empty); ``release`` writes (blocks until
    empty, leaves full).

    Behaviour depends on the tasking layer (the crux of Fig 4):

    * ``qthreads``: a blocked reader **sleeps** on a condition variable and
      must be woken by the releaser — a deschedule/reschedule round-trip per
      contended acquire (counted in ``counters.sync_sleeps``).
    * ``fifo``: a blocked reader **spins**, equivalent to the atomic pool.
    """

    kind = "sync"

    def __init__(
        self,
        size: int = DEFAULT_POOL_SIZE,
        counters: CostCounters | None = None,
        *,
        env: ChapelEnv | None = None,
    ):
        super().__init__(size, counters)
        self.env = env if env is not None else ChapelEnv()
        self.sleeps = self.env.sync_vars_sleep
        self._full = [True] * size
        self._conds = [threading.Condition(threading.Lock()) for _ in range(size)]

    def acquire(self, lock_id: int) -> None:
        p = _probe.current
        if p is not None:
            p.pause("lock.acquire")
        cond = self._conds[lock_id]
        contended = False
        sleeps = 0
        if self.env.sync_vars_sleep:
            with cond:
                # Sleep path: an outstanding wait the releaser must end
                # with a notify — tracked for lost-wakeup detection.
                waiting = (p is not None and not self._full[lock_id]
                           and p.wait_begin(self._san_token(lock_id), "full"))
                while not self._full[lock_id]:
                    contended = True
                    sleeps += 1
                    # Qthreads: deschedule the task until the writer signals.
                    self.counters.add(sync_sleeps=1)
                    cond.wait()
                if waiting:
                    p.wait_end(self._san_token(lock_id))
                self._full[lock_id] = False
        else:
            # fifo: spin-wait on the full/empty bit.
            while True:
                with cond:
                    if self._full[lock_id]:
                        self._full[lock_id] = False
                        break
                contended = True
                self.counters.add(task_yields=1)
                time.sleep(0)
        self.counters.add(lock_acquires=1, lock_contended=int(contended))
        if p is not None:
            p.lock_acquire(self._san_token(lock_id), "SyncLockPool.acquire",
                           contended, sleeps)

    def release(self, lock_id: int) -> None:
        p = _probe.current
        if p is not None:
            p.lock_release(self._san_token(lock_id))
        cond = self._conds[lock_id]
        with cond:
            if self._full[lock_id]:
                raise RuntimeError(f"sync lock {lock_id} released while not held")
            self._full[lock_id] = True
            if self.env.sync_vars_sleep:
                cond.notify()


def make_mutex_pool(
    kind: str,
    *,
    size: int = DEFAULT_POOL_SIZE,
    env: ChapelEnv | None = None,
    counters: CostCounters | None = None,
) -> MutexPool:
    """Factory: ``"atomic"`` → :class:`AtomicLockPool`, ``"sync"`` →
    :class:`SyncLockPool` (layer-sensitive)."""
    if kind == "atomic":
        return AtomicLockPool(size, counters)
    if kind == "sync":
        return SyncLockPool(size, counters, env=env)
    raise ValueError(f"unknown mutex pool kind {kind!r}; use 'atomic' or 'sync'")
