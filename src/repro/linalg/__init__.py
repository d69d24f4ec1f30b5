"""Dense factor-matrix kernels used by CP-ALS.

These are the non-MTTKRP routines of the paper's per-routine breakdown:
``Mat AᵀA`` (:mod:`repro.linalg.ata`), ``Inverse``
(:mod:`repro.linalg.inverse`), ``Mat norm`` (:mod:`repro.linalg.norms`) and
``CPD fit`` (:mod:`repro.linalg.fit`), plus the Khatri-Rao product used by
the dense reference MTTKRP in tests.

SPLATT calls OpenBLAS ``syrk``/``potrf``/``potrs`` here; we call the same
algorithms through :mod:`scipy.linalg`, except that ``potrs`` runs only
against the ``R×R`` identity and one GEMM applies the inverse to the tall
MTTKRP result (see DESIGN.md §2).
"""

from repro.linalg.ata import gram, hadamard_gram
from repro.linalg.fit import kruskal_inner, kruskal_norm_squared, calc_fit
from repro.linalg.inverse import pseudo_inverse_gram, solve_normal_equations
from repro.linalg.khatri_rao import khatri_rao
from repro.linalg.norms import normalize_columns

__all__ = [
    "gram",
    "hadamard_gram",
    "pseudo_inverse_gram",
    "solve_normal_equations",
    "khatri_rao",
    "normalize_columns",
    "calc_fit",
    "kruskal_inner",
    "kruskal_norm_squared",
]
