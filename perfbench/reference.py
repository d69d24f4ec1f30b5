"""Independent CP-ALS reference used to check the program's fits.

Plain NumPy/SciPy over the COO nonzeros: no CSF, no scatter plans, no
tasking layer, no compiled backend.  It follows the same algorithm as
``repro.core.cpals.cp_als`` (SPLATT's ``cpd_als``): uniform random
initialisation from ``numpy.random.default_rng(seed)``, a Cholesky solve of
the normal equations per mode, 2-norm column normalisation on the first
iteration and max-norm after, and the fit evaluated from the last mode's
MTTKRP.  Agreement to a tight tolerance therefore checks the program's
whole solve path against an implementation that shares none of its code.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy import linalg as sla

#: Largest accepted ``|fit - reference|``.  The program and this reference
#: sum in different orders, so they agree to rounding (observed ~1e-15);
#: a real defect moves the fit far more than this.
FIT_TOLERANCE = 1e-7


def _solve(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    try:
        chol = sla.cho_factor(v, lower=False, check_finite=False)
        return sla.cho_solve(chol, m.T, check_finite=False).T
    except sla.LinAlgError:
        return m @ np.linalg.pinv(v, hermitian=True)


def reference_fit(coords: np.ndarray, values: np.ndarray, dims, rank: int,
                  iterations: int, seed: int) -> float:
    """Final fit of ``iterations`` CP-ALS sweeps (tolerance 0) from ``seed``."""
    nmodes = len(dims)
    nnz = values.shape[0]
    rng = np.random.default_rng(seed)
    factors = [rng.random((d, rank)) for d in dims]
    # one (dim x nnz) selection matrix per mode: MTTKRP = S_n @ (vals * KR rows)
    select = [
        sp.csr_matrix((np.ones(nnz), (coords[:, n], np.arange(nnz))),
                      shape=(dims[n], nnz))
        for n in range(nmodes)
    ]
    grams = [f.T @ f for f in factors]
    lam = np.ones(rank)
    xnorm2 = float(values @ values)
    fit = 0.0
    for it in range(iterations):
        m = None
        for n in range(nmodes):
            v = np.ones((rank, rank))
            rows = np.repeat(values[:, None], rank, axis=1)
            for k in range(nmodes):
                if k != n:
                    v *= grams[k]
                    rows *= factors[k][coords[:, k]]
            m = np.asarray(select[n] @ rows)
            a = _solve(m, v)
            if it == 0:
                norms = np.sqrt((a * a).sum(axis=0))
                norms[norms == 0.0] = 1.0
            else:
                norms = np.maximum(np.abs(a).max(axis=0), 1.0)
            a /= norms
            lam = norms
            factors[n] = a
            grams[n] = a.T @ a
        had = np.ones((rank, rank))
        for g in grams:
            had *= g
        znorm2 = max(float(lam @ had @ lam), 0.0)
        inner = float(lam @ np.einsum("ir,ir->r", m, factors[-1]))
        residual = max(xnorm2 + znorm2 - 2.0 * inner, 0.0)
        fit = 1.0 - np.sqrt(residual) / np.sqrt(xnorm2)
    return float(fit)


def fit_matches(fit: float, reference: float) -> bool:
    """True when a reported fit agrees with the reference."""
    return bool(np.isfinite(fit)) and abs(fit - reference) <= FIT_TOLERANCE
