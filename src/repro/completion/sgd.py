"""Stochastic gradient descent for tensor completion.

Per observed entry ``x`` with error ``e = v_x − ẑ_x``, the update for each
factor row is

    A^m[i_m] += η · (e · h_x^m − λ · A^m[i_m]),    h_x^m = ⊛_{k≠m} A^k[i_k]

SPLATT's HPC formulation processes entries in random order with a step
size decayed per epoch; in shared memory the updates race benignly
("HogWild"-style), which is also how we vectorize them here: the epoch is
processed in shuffled **chunks**, with each chunk's gradient contributions
scatter-added using the factor state at the chunk start.  Chunked HogWild
is semantically the mini-batch limit of the same algorithm;
``chunk_size=1`` recovers the strict sequential method (used in tests for
gradient verification).

The scatter-add goes through :mod:`repro.mttkrp.scatter`'s segment-sum
machinery (a stable sort, then one CSR pass that gathers and sums) rather
than ``np.add.at``: a batch's duplicate rows are pre-reduced in their
original order, so the result matches the element-at-a-time scatter to
summation rounding while running at vectorized speed, and the reduced
rows land in a :class:`Workspace` buffer reused across the epoch's
batches.
"""

from __future__ import annotations

import numpy as np

from repro._util import VALUE_DTYPE, as_rng
from repro.completion.losses import predict_entries
from repro.mttkrp.scatter import RowScatter, Workspace
from repro.tensor.coo import SparseTensor

__all__ = ["sgd_epoch"]


def sgd_epoch(
    tensor: SparseTensor,
    factors: list[np.ndarray],
    *,
    learn_rate: float,
    regularization: float = 1e-2,
    chunk_size: int = 256,
    rng: np.random.Generator | int | None = None,
    workspace: Workspace | None = None,
    backend=None,
) -> None:
    """One SGD epoch over all observed entries, updating in place.

    Parameters
    ----------
    learn_rate:
        Step size η for this epoch (the driver decays it across epochs).
    regularization:
        Weight-decay coefficient λ, applied per touched row per update.
    chunk_size:
        Entries per vectorized mini-batch; gradients within a chunk use
        the chunk-start factor state.
    rng:
        Shuffle source; pass the driver's generator for reproducibility.
    workspace:
        Scratch-buffer arena for the per-batch scatter; pass a persistent
        one (the completion driver does) so steady-state epochs reuse the
        same buffers instead of reallocating per batch.
    backend:
        Optional resolved compiled :class:`~repro.backend.registry.Backend`
        whose C gather segment sum reduces each batch in one
        GIL-releasing pass; results are identical.
    """
    if learn_rate <= 0:
        raise ValueError("learn_rate must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    ws = workspace if workspace is not None else Workspace()
    generator = as_rng(rng)
    order = generator.permutation(tensor.nnz)
    coords = tensor.coords
    values = tensor.values
    nmodes = tensor.nmodes
    rank = factors[0].shape[1]

    for start in range(0, tensor.nnz, chunk_size):
        batch = order[start : start + chunk_size]
        c = coords[batch]
        v = values[batch]
        err = v - predict_entries(c, factors)

        # h per mode = product of all rows / this mode's rows; computed by
        # forward/backward prefix products to stay O(N·B·R).
        rows = [factors[m][c[:, m]] for m in range(nmodes)]
        prefix = np.ones((len(batch), rank), dtype=VALUE_DTYPE)
        prefixes = []
        for m in range(nmodes):
            prefixes.append(prefix.copy())
            prefix = prefix * rows[m]
        suffix = np.ones((len(batch), rank), dtype=VALUE_DTYPE)
        for m in range(nmodes - 1, -1, -1):
            h = prefixes[m] * suffix
            grad = err[:, None] * h - regularization * rows[m]
            grad *= learn_rate
            # Batch rows change every chunk (shuffled), so the scatter
            # structure is built per batch; its sort is stable, keeping
            # each row's update order, and the reduced rows land in a
            # reused workspace buffer.
            RowScatter(c[:, m], tag=("sgd",)).scatter_accumulate(
                factors[m], grad, ws, backend=backend
            )
            suffix = suffix * rows[m]
