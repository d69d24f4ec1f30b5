"""Chapel-runtime substrate: tasking layers, mutex pools, environment.

The paper's performance story is as much about Chapel's *runtime* as about
the algorithm: the Qthreads vs fifo tasking layers implement ``sync``
variables differently (sleep-on-contention vs spin), worker pinning and the
spin-wait interval interact badly with OpenBLAS's OpenMP threads, and the
mutex pool built on ``sync`` vs ``atomic`` variables behaves very
differently under short critical sections (Fig 4).

This package reifies those mechanisms:

* :class:`~repro.runtime.env.ChapelEnv` — the knobs the paper turns
  (``CHPL_RT_NUM_THREADS_PER_LOCALE``, ``CHPL_TASKS``, ``QT_AFFINITY``,
  ``QT_SPINCOUNT``, ``OMP_NUM_THREADS``).
* :mod:`~repro.runtime.locks` — ``sync``- and ``atomic``-based mutex pools
  with real thread-safe behaviour *and* contention instrumentation.  They
  are the program's only ``sync`` and ``atomic`` variables:
  :class:`SyncLockPool` is an array of ``sync bool`` (acquire = ``read_fe``,
  release = ``write_ef``) and :class:`AtomicLockPool` is Listing 6's
  test-and-set-and-yield spinlock.
* :mod:`~repro.runtime.tasking` — ``coforall``/``forall`` built on real
  Python threads, parameterized by the tasking layer.
* :mod:`~repro.runtime.reductions` — Listing 7's reduction of per-task
  buffers; :mod:`~repro.runtime.schedule` — static/dynamic/guided loops.
"""

from repro.runtime.accounting import CostCounters
from repro.runtime.env import ChapelEnv
from repro.runtime.locks import AtomicLockPool, MutexPool, SyncLockPool, make_mutex_pool
from repro.runtime.pool import WorkerPool
from repro.runtime.reductions import array_reduce_buffers
from repro.runtime.schedule import SCHEDULES, forall_scheduled
from repro.runtime.tasking import TaskingLayer, make_tasking_layer

__all__ = [
    "ChapelEnv",
    "MutexPool",
    "AtomicLockPool",
    "SyncLockPool",
    "make_mutex_pool",
    "TaskingLayer",
    "make_tasking_layer",
    "CostCounters",
    "array_reduce_buffers",
    "forall_scheduled",
    "SCHEDULES",
    "WorkerPool",
]
