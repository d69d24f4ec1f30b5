"""TTMc — sparse tensor times matrix chain (Tucker's dominant kernel).

For output mode ``n`` with factor matrices ``U_m ∈ R^{I_m × R_m}``, TTMc
computes the mode-``n`` unfolding of ``X ×_{m≠n} U_mᵀ``:

    Y[i_n, (r_{m1}, r_{m2}, …)] = Σ_{nonzeros with mode-n index i_n}
                                   v · Π_{m≠n} U_m[i_m, r_m]

an ``(I_n, Π_{m≠n} R_m)`` dense matrix.  Where MTTKRP's per-nonzero work
is a Hadamard product of rows (R flops), TTMc's is their *outer* product
(Π R_m flops) — the memory/compute blow-up that motivated SPLATT's
CSF-based formulation.

Implementation: vectorized over nonzero chunks — each chunk materializes
the growing Kronecker of its factor rows by broadcasting, then
scatter-adds into the output by mode-``n`` index.  Chunking bounds the
``(chunk, Π R_m)`` intermediate.  Column ordering matches
:func:`repro.linalg.khatri_rao`'s convention (lowest remaining mode varies
fastest), so dense references built from matricize/Kronecker line up.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import VALUE_DTYPE, check_axis, prod
from repro.mttkrp.scatter import RowScatter
from repro.observe import spans as _obs
from repro.tensor.coo import SparseTensor

__all__ = ["ttmc", "ttmc_dense_reference"]

#: Nonzeros per vectorized chunk; bounds the (chunk × ΠR) intermediate at
#: a few MB for typical Tucker ranks.
_CHUNK = 8192


def ttmc(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    chunk_size: int = _CHUNK,
    backend=None,
) -> np.ndarray:
    """Sparse TTMc for output ``mode`` (see module docstring).

    ``factors`` holds all ``N`` matrices; ``factors[mode]`` is ignored.
    Returns the ``(I_mode, Π_{m≠mode} R_m)`` unfolding with the lowest
    remaining mode's rank index varying fastest.  Each chunk's scatter-add
    reduces through its scatter's CSR segment sum, or with a compiled
    ``backend`` (resolved :class:`~repro.backend.registry.Backend`) its
    gather-segment-sum kernel.
    """
    mode = check_axis(mode, tensor.nmodes)
    if len(factors) != tensor.nmodes:
        raise ValueError(f"need {tensor.nmodes} factors, got {len(factors)}")
    for m, f in enumerate(factors):
        if f.ndim != 2 or f.shape[0] != tensor.dims[m]:
            raise ValueError(
                f"factor {m} has shape {f.shape}, expected ({tensor.dims[m]}, R_{m})"
            )
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if backend is not None and not hasattr(backend, "compiled"):
        from repro.backend import resolve_backend

        backend = resolve_backend(backend)

    rest = [m for m in range(tensor.nmodes) if m != mode]
    ncols = prod(factors[m].shape[1] for m in rest)
    out = np.zeros((tensor.dims[mode], ncols), dtype=VALUE_DTYPE)
    if tensor.nnz == 0:
        return out

    coords = tensor.coords
    values = tensor.values
    with _obs.span("ttmc", mode=mode, nnz=tensor.nnz, ncols=ncols):
        for start in range(0, tensor.nnz, chunk_size):
            sl = slice(start, min(start + chunk_size, tensor.nnz))
            c = coords[sl]
            # Kronecker of factor rows, highest remaining mode first so the
            # lowest remaining mode's index varies fastest in the flat column.
            acc = values[sl, None].copy()  # reprolint: allow(row-slice-copy) — (chunk, 1) Kronecker seed; acc grows R_m-fold per mode so it cannot share a buffer
            for m in reversed(rest):
                rows = factors[m][c[:, m]]  # reprolint: allow(row-slice-copy) — (chunk, R_m) gather; chunk coords change every call, nothing invariant to plan
                acc = (acc[:, :, None] * rows[:, None, :]).reshape(acc.shape[0], -1)  # reprolint: allow(hot-loop-alloc) — output width grows each mode; a fixed workspace buffer cannot hold it
            # chunk rows change every call, so the scatter is built per
            # chunk rather than cached in a plan
            RowScatter(c[:, mode]).scatter_accumulate(out, acc, backend=backend)
    return out


def ttmc_dense_reference(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
) -> np.ndarray:
    """Dense oracle: matricize, then multiply by the Kronecker of factors.

    Exponential memory; testing aid only.
    """
    mode = check_axis(mode, tensor.nmodes)
    unfolded = tensor.matricize(mode)
    rest = [m for m in range(tensor.nmodes) if m != mode]
    # matricize's columns have the lowest remaining mode fastest, so build
    # the Kronecker with the highest remaining mode as the left operand.
    kron = np.ones((1, 1), dtype=VALUE_DTYPE)
    for m in reversed(rest):
        kron = np.kron(kron, factors[m])
    return unfolded @ kron
