"""repro — reproduction of *Parallel Sparse Tensor Decomposition in Chapel*.

A from-scratch Python implementation of SPLATT-style sparse CP-ALS tensor
decomposition (COO → sort → CSF → parallel MTTKRP → ALS), together with the
Chapel-runtime substrate the paper studies (tasking layers, sync/atomic
mutex pools) and a calibrated performance model + benchmark harness that
regenerates every table and figure of the paper's evaluation.

Quickstart::

    import repro

    x = repro.synthetic_dataset("nell-2")     # scaled Table I stand-in
    result = repro.cp_als(x, rank=16)
    print(result.fit, result.timers.as_row())

See README.md for the architecture overview and DESIGN.md for the
experiment index.
"""

from repro.analysis import core_consistency, factor_match_score
from repro.completion import CompletionOptions, CompletionResult, complete
from repro.constrained import ConstrainedResult, constrained_cp_als
from repro.core import CpalsOptions, CpalsResult, KruskalTensor, RoutineTimers, cp_als
from repro.csf import CsfSet, CsfTensor, build_csf, build_csf_set
from repro.distributed import DistributedResult, LocaleGrid, choose_grid, distributed_cp_als
from repro.mttkrp import ACCESS_VARIANTS, dense_mttkrp_reference, mttkrp, mttkrp_csf
from repro.observe import TraceRecorder, tracing
from repro.resilience import (
    Checkpoint,
    CheckpointError,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    inject_faults,
    load_checkpoint,
    retrying,
    save_checkpoint,
)
from repro.runtime import AtomicLockPool, ChapelEnv, SyncLockPool, make_tasking_layer
from repro.tucker import TuckerResult, ttmc, tucker_hooi
from repro.tensor import (
    DATASET_SIGNATURES,
    SORT_VARIANTS,
    SparseTensor,
    binarize,
    drop_empty_slices,
    load_tns,
    planted_low_rank,
    random_tensor,
    save_tns,
    scale_values,
    sort_tensor,
    split_nonzeros,
    subtensor,
    synthetic_dataset,
    tensor_stats,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "cp_als",
    "CpalsResult",
    "CpalsOptions",
    "KruskalTensor",
    "RoutineTimers",
    # tensor
    "SparseTensor",
    "synthetic_dataset",
    "random_tensor",
    "planted_low_rank",
    "load_tns",
    "save_tns",
    "sort_tensor",
    "SORT_VARIANTS",
    "DATASET_SIGNATURES",
    "tensor_stats",
    "split_nonzeros",
    "drop_empty_slices",
    "scale_values",
    "binarize",
    "subtensor",
    # csf
    "CsfTensor",
    "CsfSet",
    "build_csf",
    "build_csf_set",
    # mttkrp
    "mttkrp",
    "mttkrp_csf",
    "ACCESS_VARIANTS",
    "dense_mttkrp_reference",
    # observe
    "tracing",
    "TraceRecorder",
    # resilience
    "FaultPlan",
    "InjectedFault",
    "inject_faults",
    "RetryPolicy",
    "retrying",
    "Checkpoint",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    # runtime
    "ChapelEnv",
    "AtomicLockPool",
    "SyncLockPool",
    "make_tasking_layer",
    # completion
    "complete",
    "CompletionOptions",
    "CompletionResult",
    # constrained
    "constrained_cp_als",
    "ConstrainedResult",
    # distributed
    "distributed_cp_als",
    "DistributedResult",
    "LocaleGrid",
    "choose_grid",
    # analysis
    "factor_match_score",
    "core_consistency",
    # tucker
    "tucker_hooi",
    "TuckerResult",
    "ttmc",
]
