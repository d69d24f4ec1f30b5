"""Execution-environment configuration (the paper's Table II knobs).

Collects every runtime variable the paper manipulates into one validated
dataclass.  The same object drives both *real* execution (thread counts for
the tasking layer) and *simulated* execution (the performance model reads
the layer, affinity and spincount to decide lock and interference costs).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

__all__ = ["ChapelEnv", "TASKING_LAYERS", "DEFAULT_SPINCOUNT", "limit_blas_threads"]

#: Environment variables that size the BLAS/OpenMP thread pools numpy's
#: backing libraries create at import time.
_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class limit_blas_threads:
    """Pin BLAS/OpenMP pool sizes in ``os.environ`` for a ``with`` block.

    The multi-process transport spawns one worker per locale; each spawned
    interpreter imports numpy fresh and sizes its BLAS pools from the
    environment *it inherits at spawn time*.  Wrapping the spawns in
    ``limit_blas_threads(1)`` gives every locale a single-threaded BLAS —
    the paper's own setting (Table II pins ``OMP_NUM_THREADS=1``) and the
    only way N locales on N cores avoid oversubscription.  The previous
    values are restored on exit, so the driver process is unaffected.
    """

    def __init__(self, nthreads: int = 1):
        if nthreads < 1:
            raise ValueError(f"nthreads must be >= 1, got {nthreads}")
        self.nthreads = nthreads
        self._saved: dict[str, str | None] = {}

    def __enter__(self) -> "limit_blas_threads":
        for var in _BLAS_THREAD_VARS:
            self._saved[var] = os.environ.get(var)
            os.environ[var] = str(self.nthreads)
        return self

    def __exit__(self, *exc) -> bool:
        for var, prev in self._saved.items():
            if prev is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = prev
        self._saved.clear()
        return False

TASKING_LAYERS: tuple[str, ...] = ("qthreads", "fifo")

#: Qthreads' default spin-wait iterations before a worker suspends; the
#: paper reduces this to 300 via ``QT_SPINCOUNT`` to tame OpenMP conflicts.
DEFAULT_SPINCOUNT = 300_000


@dataclass(frozen=True)
class ChapelEnv:
    """A Chapel runtime configuration.

    Attributes
    ----------
    num_tasks:
        Tasks created by ``coforall`` loops — the paper's user-level config
        variable, swept 1..32.
    tasking_layer:
        ``"qthreads"`` (Chapel default) or ``"fifo"`` (POSIX threads).
        Determines ``sync``-variable behaviour: Qthreads sleeps a task
        blocked on a sync var, fifo spins.
    qt_affinity:
        Qthreads worker pinning (``QT_AFFINITY``).  ``True`` is the
        Qthreads default; the paper sets ``no`` to let spin-waiting workers
        migrate away from OpenMP threads.
    qt_spincount:
        Spin-wait iterations before a Qthreads worker suspends
        (``QT_SPINCOUNT``).
    omp_num_threads:
        OpenMP threads available to OpenBLAS inside the inverse routine
        (``OMP_NUM_THREADS``); the paper pins this to 1 for Chapel runs.
    """

    num_tasks: int = 1
    tasking_layer: str = "qthreads"
    qt_affinity: bool = True
    qt_spincount: int = DEFAULT_SPINCOUNT
    omp_num_threads: int = 1

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError(f"num_tasks must be >= 1, got {self.num_tasks}")
        if self.tasking_layer not in TASKING_LAYERS:
            raise ValueError(
                f"unknown tasking layer {self.tasking_layer!r}; choose from {TASKING_LAYERS}"
            )
        if self.qt_spincount < 0:
            raise ValueError("qt_spincount must be >= 0")
        if self.omp_num_threads < 1:
            raise ValueError("omp_num_threads must be >= 1")

    # ------------------------------------------------------------------
    def with_tasks(self, num_tasks: int) -> "ChapelEnv":
        """Copy of this env with a different task count (sweep helper)."""
        return replace(self, num_tasks=num_tasks)

    @property
    def sync_vars_sleep(self) -> bool:
        """Whether a task blocked on a ``sync`` var is descheduled (slept).

        True under Qthreads — the root cause of Fig 4's sync-variable
        collapse for short critical sections; fifo spins instead.
        """
        return self.tasking_layer == "qthreads"
