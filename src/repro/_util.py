"""Shared internal helpers: validation, RNG handling, index math, atomic writes.

These utilities are deliberately tiny and dependency-free so every
subpackage (tensor, csf, mttkrp, runtime, perfmodel) can use them without
import cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "INDEX_DTYPE",
    "VALUE_DTYPE",
    "as_rng",
    "atomic_write",
    "check_axis",
    "check_positive",
    "check_rank",
    "ensure_index_array",
    "ensure_value_array",
    "human_bytes",
    "prod",
]

#: Canonical dtype for nonzero coordinates.  SPLATT uses 64-bit indices by
#: default (``IDX_TYPEWIDTH 64``); we mirror that.
INDEX_DTYPE = np.int64

#: Canonical dtype for nonzero values and factor matrices (SPLATT's
#: ``VAL_TYPEWIDTH 64`` → double precision).
VALUE_DTYPE = np.float64


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or pass through.

    Accepting either form in public APIs lets callers write
    ``generate(..., seed=0)`` in scripts and share one generator across many
    calls in tests.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def prod(values: Iterable[int]) -> int:
    """Exact integer product (``math.prod`` but tolerant of numpy ints)."""
    out = 1
    for v in values:
        out *= int(v)
    return out


def check_positive(name: str, value: int) -> int:
    """Validate that ``value`` is a positive integer and return it as int."""
    ivalue = int(value)
    if ivalue <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return ivalue


def check_rank(rank: int) -> int:
    """Validate a decomposition rank."""
    return check_positive("rank", rank)


def check_axis(axis: int, nmodes: int) -> int:
    """Validate a mode index against the tensor order, supporting negatives."""
    ax = int(axis)
    if ax < 0:
        ax += nmodes
    if not 0 <= ax < nmodes:
        raise ValueError(f"mode {axis} out of range for order-{nmodes} tensor")
    return ax


def ensure_index_array(arr: Sequence | np.ndarray, *, name: str = "indices") -> np.ndarray:
    """Coerce to a C-contiguous :data:`INDEX_DTYPE` ndarray, validating values.

    Negative coordinates are rejected: SPLATT tensors are 1-indexed on disk
    and 0-indexed in memory, never negative.
    """
    out = np.ascontiguousarray(arr, dtype=INDEX_DTYPE)
    if out.size and out.min() < 0:
        raise ValueError(f"{name} must be non-negative")
    return out


def ensure_value_array(arr: Sequence | np.ndarray, *, name: str = "values") -> np.ndarray:
    """Coerce to a C-contiguous :data:`VALUE_DTYPE` ndarray of finite values."""
    out = np.ascontiguousarray(arr, dtype=VALUE_DTYPE)
    if out.size and not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    return out


def human_bytes(nbytes: float) -> str:
    """Render a byte count the way the paper's Table I does (``240 MB``)."""
    units = ["B", "KB", "MB", "GB", "TB"]
    size = float(nbytes)
    for unit in units:
        if size < 1024.0 or unit == units[-1]:
            if unit == "B":
                return f"{int(size)} {unit}"
            return f"{size:.2f} {unit}"
        size /= 1024.0
    raise AssertionError("unreachable")


@contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """Write ``path`` all-or-nothing: yield a binary handle to a temp file.

    The temp file sits next to ``path``; on a clean exit it is flushed,
    fsynced and ``os.replace``-d over ``path``.  A crash at any point
    leaves the previous complete file (or none), never a torn one, and a
    raised error also removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with tmp.open("wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # failed write: don't litter
