"""Chapel-style whole-array reduction of per-task buffers.

The paper calls out "built-in reductions, whole array assignments and
operations" as the Chapel features of *significant value* for the port
(§IV-E).  The one the program needs is :func:`array_reduce_buffers`: the
"reduction on myVals" pattern from the paper's Listing 7, combining
per-task private buffers into one output (used by the interpreted
variants' privatized MTTKRP; the vectorized path merges compact per-task
buffers instead).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.runtime.tasking import TaskingLayer

__all__ = ["array_reduce_buffers"]


def array_reduce_buffers(
    layer: TaskingLayer,
    out: np.ndarray,
    buffers: Sequence[np.ndarray],
) -> np.ndarray:
    """Combine per-task private buffers into ``out`` (Listing 7's pattern).

    The reduction is itself data-parallel: the *rows* of ``out`` are
    blocked over tasks and each task sums its row range across all
    buffers, so no two tasks touch the same output element.
    """
    for buf in buffers:
        if buf.shape != out.shape:
            raise ValueError(f"buffer shape {buf.shape} != out shape {out.shape}")
    if not buffers:
        return out
    nrows = out.shape[0]

    def body(lo: int, hi: int, tid: int) -> None:
        for buf in buffers:
            out[lo:hi] += buf[lo:hi]

    layer.forall(nrows, body)
    return out
