"""CP-ALS configuration (SPLATT's ``splatt_default_opts`` analogue)."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.backend import check_backend_name
from repro.csf.permute import CSF_ALLOCATIONS
from repro.mttkrp.variants import ACCESS_VARIANTS
from repro.runtime.env import ChapelEnv
from repro.tensor.sort import SORT_VARIANTS

__all__ = ["CpalsOptions", "DEFAULT_RANK", "DEFAULT_ITERATIONS"]

#: The paper's experiments use rank 35 and 20 iterations throughout (§V-A).
DEFAULT_RANK = 35
DEFAULT_ITERATIONS = 20


@dataclass
class CpalsOptions:
    """Everything configurable about one :func:`~repro.core.cpals.cp_als` run.

    Every field is read by ``cp_als``.  Distributed runs are not configured
    here: :func:`~repro.distributed.cpals.distributed_cp_als` takes its own
    ``nlocales``/``transport`` arguments, and ``repro cpd`` picks that route
    from ``--locales``/``--transport``.

    Attributes
    ----------
    max_iterations:
        ALS iteration cap (paper: 20).
    tolerance:
        Stop when the fit improves by less than this between iterations
        (SPLATT's default 1e-5).  Set to 0 to always run
        ``max_iterations`` — what the paper's timing runs do.
    variant:
        MTTKRP row-access variant (:data:`ACCESS_VARIANTS`).
    sort_variant:
        Pre-processing sort implementation (:data:`SORT_VARIANTS`).
    allocation:
        CSF allocation policy (:data:`CSF_ALLOCATIONS`).
    env:
        Runtime configuration (tasks, tasking layer, ...).
    mutex_kind:
        ``"atomic"`` or ``"sync"`` mutex pool for locked MTTKRP modes.
    pool_size:
        Mutex pool size.
    force_locks:
        Override the lock decision for non-root modes (``None`` = use
        :func:`repro.mttkrp.locks_policy.needs_locks`).
    backend:
        Kernel execution backend: ``"numpy"``, ``"cext"``, ``"auto"``
        (``cext`` when it builds, else a silent ``numpy`` fallback), or
        ``None`` to defer to ``$REPRO_BACKEND`` / the ``numpy`` default.
        See ``docs/BACKENDS.md``.
    seed:
        Seed for the random factor initialization.
    checkpoint_path:
        When set, snapshot the ALS state to this path (atomic ``.npz``,
        see :mod:`repro.resilience.checkpoint`) every
        ``checkpoint_every`` completed iterations.
    checkpoint_every:
        Snapshot cadence in iterations (default: every iteration).
    resume_from:
        Path of a ``cp_als`` checkpoint to resume from; the run continues
        at the saved iteration and reproduces an uninterrupted run
        bit-for-bit (same tensor, rank, and options required).
    """

    max_iterations: int = DEFAULT_ITERATIONS
    tolerance: float = 1e-5
    variant: str = "vectorized"
    sort_variant: str = "lexsort"
    allocation: str = "two"
    env: ChapelEnv = field(default_factory=ChapelEnv)
    mutex_kind: str = "atomic"
    pool_size: int = 1024
    force_locks: bool | None = None
    backend: str | None = None
    seed: int | None = 0
    checkpoint_path: str | os.PathLike | None = None
    checkpoint_every: int = 1
    resume_from: str | os.PathLike | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.variant not in ACCESS_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {ACCESS_VARIANTS}")
        if self.sort_variant not in SORT_VARIANTS:
            raise ValueError(
                f"unknown sort_variant {self.sort_variant!r}; choose from {SORT_VARIANTS}"
            )
        if self.allocation not in CSF_ALLOCATIONS:
            raise ValueError(
                f"unknown allocation {self.allocation!r}; choose from {CSF_ALLOCATIONS}"
            )
        if self.mutex_kind not in ("atomic", "sync"):
            raise ValueError("mutex_kind must be 'atomic' or 'sync'")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        check_backend_name(self.backend)
