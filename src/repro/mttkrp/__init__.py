"""MTTKRP — matricized tensor times Khatri-Rao product.

The critical kernel of CP-ALS (lines 5/8/11 of Algorithm 1) and the routine
the paper spends Figs 2-4 and 9-10 optimizing.  Three independent axes are
modeled, matching the paper:

1. **Algorithm** (:mod:`repro.mttkrp.csf_kernels`): SPLATT's root /
   internal / leaf CSF algorithms, selected per output mode by the CSF
   allocation (:class:`repro.csf.CsfSet`).
2. **Row-access variant** (:mod:`repro.mttkrp.variants`): the paper's
   optimization ladder — ``slicing`` (naive port), ``index2d``,
   ``pointer`` — plus ``vectorized``, the compiled-speed baseline standing
   in for SPLATT's C.
3. **Synchronization** (:mod:`repro.mttkrp.locks_policy`): non-root modes
   update shared rows; SPLATT either privatizes (thread-local buffers +
   reduction) or locks rows via the mutex pool, decided per
   (tensor, mode, task count) — the YELP-vs-NELL-2 dichotomy.
"""

from repro.mttkrp.locks_policy import needs_locks
from repro.mttkrp.partition import nnz_balanced_blocks
from repro.mttkrp.reference import dense_mttkrp_reference
from repro.mttkrp.scatter import (
    MttkrpContext,
    RowScatter,
    ScatterPlan,
    Workspace,
)
from repro.mttkrp.variants import ACCESS_VARIANTS, mttkrp, mttkrp_csf

__all__ = [
    "mttkrp",
    "mttkrp_csf",
    "ACCESS_VARIANTS",
    "dense_mttkrp_reference",
    "needs_locks",
    "nnz_balanced_blocks",
    "RowScatter",
    "ScatterPlan",
    "Workspace",
    "MttkrpContext",
]
