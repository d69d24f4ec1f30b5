"""The ``numpy`` reference backend.

``compiled`` stays ``False``: dispatch sites seeing this backend run the
vectorized NumPy/SciPy tree walk (:mod:`repro.mttkrp.csf_kernels`,
:class:`repro.mttkrp.scatter.RowScatter`), which *is* the reference
implementation — there is no second copy of it here.  The
gather segment sum is still provided (NumPy-implemented, same segment
semantics as :mod:`repro.backend.kernels_ref`) so tests can compare any
backend's primitive against this one directly.
"""

from __future__ import annotations

import numpy as np

from repro.backend.registry import Backend

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Always-available reference backend (the NumPy tree walk)."""

    name = "numpy"
    compiled = False

    def gather_segment_sum(self, x, order, starts, out) -> None:
        if starts.shape[0] == 0:
            return
        x = x[order]
        n = x.shape[0]
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = n
        if n == 0 or starts[-1] >= n:
            # reduceat cannot take a start index == n (empty tail segment);
            # rare enough that a per-segment loop is fine.
            for s in range(starts.shape[0]):
                out[s] = x[starts[s]:ends[s]].sum(axis=0)
            return
        np.add.reduceat(x, starts, axis=0, out=out)
        # reduceat treats an empty segment (starts[s] == starts[s+1]) as
        # x[starts[s]] instead of 0 — patch those to the kernel contract.
        empty = ends == starts
        if empty.any():
            out[empty] = 0.0
