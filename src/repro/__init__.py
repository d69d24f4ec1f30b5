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

import importlib
import sys
import types

#: Where each public name lives.  Nothing is imported until a name is
#: first read (PEP 562), so ``import repro.core.cpals`` pays only for the
#: solve path: no scipy, and none of analysis, tucker, distributed or
#: completion.
_EXPORTS = {
    "repro.analysis": ("core_consistency", "factor_match_score"),
    "repro.completion": ("CompletionOptions", "CompletionResult", "complete"),
    "repro.constrained": ("ConstrainedResult", "constrained_cp_als"),
    "repro.core": ("CpalsOptions", "CpalsResult", "KruskalTensor", "RoutineTimers", "cp_als"),
    "repro.csf": ("CsfSet", "CsfTensor", "build_csf", "build_csf_set"),
    "repro.distributed": ("DistributedResult", "LocaleGrid", "choose_grid", "distributed_cp_als"),
    "repro.mttkrp": ("ACCESS_VARIANTS", "dense_mttkrp_reference", "mttkrp", "mttkrp_csf"),
    "repro.observe": ("TraceRecorder", "tracing"),
    "repro.resilience": (
        "Checkpoint", "CheckpointError", "FaultPlan", "InjectedFault", "RetryPolicy",
        "inject_faults", "load_checkpoint", "retrying", "save_checkpoint",
    ),
    "repro.runtime": ("AtomicLockPool", "ChapelEnv", "SyncLockPool", "make_tasking_layer"),
    "repro.tucker": ("TuckerResult", "ttmc", "tucker_hooi"),
    "repro.tensor": (
        "DATASET_SIGNATURES", "SORT_VARIANTS", "SparseTensor", "binarize",
        "drop_empty_slices", "load_tns", "planted_low_rank", "random_tensor",
        "save_tns", "scale_values", "sort_tensor", "split_nonzeros", "subtensor",
        "synthetic_dataset", "tensor_stats",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

#: Submodules readable as ``repro.<name>`` before anything imported them.
_SUBMODULES = frozenset(
    {m.rpartition(".")[2] for m in _EXPORTS} | {"_util", "backend", "linalg", "probe"}
)

#: This module's own lazy-lookup names, left out of ``dir(repro)``.
_LAZY_MACHINERY = frozenset(
    {"importlib", "sys", "types", "_EXPORTS", "_OWNER", "_SUBMODULES",
     "_LAZY_MACHINERY", "_Package", "__getattr__", "__dir__"}
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


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(_OWNER[name]), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"repro.{name}")
    else:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    names = set(globals()) | set(__all__) | _SUBMODULES
    return sorted(names - _LAZY_MACHINERY)


class _Package(types.ModuleType):
    """Keeps a public name that shares its subpackage's name (``mttkrp``)
    bound to the function: the import system binds the subpackage there
    when something first imports it."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, types.ModuleType) and _OWNER.get(name) == value.__name__:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
