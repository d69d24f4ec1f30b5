"""Checkpoint/restart: atomic ``.npz`` snapshots of iterative solver state.

A long CP-ALS / HOOI / completion run killed at iteration *k* should cost
*k mod N* iterations, not the whole run.  The drivers snapshot their loop
state every ``checkpoint_every`` iterations through
:func:`save_checkpoint` and resume through ``resume_from=``; the golden
tests assert that a killed-and-resumed run is ``allclose`` to an
uninterrupted one.

File format (version 1) — one NumPy ``.npz`` archive:

========================  =============================================
``header``                ``uint8`` bytes of a JSON object: ``version``,
                          ``kind`` ("cp_als" / "hooi" / "completion"),
                          ``iteration`` (completed iterations), ``nfactors``,
                          optional ``rng_state`` (NumPy bit-generator
                          state), and a free-form ``meta`` dict the
                          driver uses for compatibility checks.
``factor0..factorN-1``    the factor matrices.
``arr_<name>``            any extra driver arrays (λ, fit history,
                          residuals, best-so-far factors, ...).
========================  =============================================

Writes are **atomic** (:func:`repro._util.atomic_write`, shared with
``.tnsb`` tensors): the archive is written to a same-directory
temporary file, flushed and fsynced, then ``os.replace``-d over the
destination — a kill mid-write leaves either the previous complete
checkpoint or none, never a torn one.  ``allow_pickle`` stays ``False``
on both ends.

Every save/load is traced as a ``checkpoint.save`` / ``checkpoint.load``
span with ``kind``, ``iteration`` and ``path`` attributes (see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from repro._util import atomic_write
from repro.observe import spans as _obs

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is missing, malformed, or incompatible."""


def _jsonable(obj):
    """Recursively convert NumPy scalars/arrays to JSON-serializable types
    (bit-generator states mix plain ints with ``uint64`` arrays)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


@dataclass
class Checkpoint:
    """One loaded checkpoint (see the module docstring for the format)."""

    kind: str
    iteration: int
    factors: list[np.ndarray]
    arrays: dict[str, np.ndarray]
    meta: dict
    rng_state: dict | None
    version: int


def save_checkpoint(
    path: str | os.PathLike,
    *,
    kind: str,
    iteration: int,
    factors: list[np.ndarray],
    arrays: dict[str, np.ndarray] | None = None,
    meta: dict | None = None,
    rng: np.random.Generator | None = None,
) -> None:
    """Atomically write a solver checkpoint.

    Parameters
    ----------
    kind:
        Driver tag (``"cp_als"`` / ``"hooi"`` / ``"completion"``);
        :func:`load_checkpoint` refuses a mismatched kind.
    iteration:
        Iterations/epochs *completed* when this state was captured.
    factors:
        The factor matrices (snapshotted by the write itself).
    arrays:
        Extra named arrays (fit history, λ, residuals, ...).
    meta:
        JSON-serializable driver metadata (dims, rank, algorithm, ...)
        used for compatibility checks on resume.
    rng:
        Generator whose bit-generator state should be captured (needed by
        stochastic solvers — SGD shuffling must resume mid-stream).
    """
    header = {
        "version": CHECKPOINT_VERSION,
        "kind": str(kind),
        "iteration": int(iteration),
        "nfactors": len(factors),
        "meta": _jsonable(meta or {}),
    }
    if rng is not None:
        header["rng_state"] = _jsonable(rng.bit_generator.state)
    payload: dict[str, np.ndarray] = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    }
    for m, factor in enumerate(factors):
        payload[f"factor{m}"] = np.ascontiguousarray(factor)
    for name, arr in (arrays or {}).items():
        payload[f"arr_{name}"] = np.asarray(arr)

    with _obs.span("checkpoint.save", kind=kind, iteration=iteration, path=str(path)):
        with atomic_write(path) as fh:
            np.savez(fh, **payload)
    _obs.count("checkpoint.saves")


def load_checkpoint(
    path: str | os.PathLike, *, expect_kind: str | None = None
) -> Checkpoint:
    """Load and validate a checkpoint written by :func:`save_checkpoint`.

    Raises
    ------
    CheckpointError
        When the file is unreadable, from a newer format version, or its
        ``kind`` does not match ``expect_kind``.
    """
    path = Path(path)
    with _obs.span("checkpoint.load", path=str(path)):
        try:
            with np.load(path, allow_pickle=False) as data:
                if "header" not in data:
                    raise CheckpointError(f"{path}: not a repro checkpoint (no header)")
                try:
                    header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise CheckpointError(f"{path}: corrupt checkpoint header: {exc}") from exc
                version = int(header.get("version", -1))
                if version > CHECKPOINT_VERSION or version < 1:
                    raise CheckpointError(
                        f"{path}: checkpoint version {version} not supported "
                        f"(this build reads <= {CHECKPOINT_VERSION})"
                    )
                kind = str(header.get("kind", ""))
                if expect_kind is not None and kind != expect_kind:
                    raise CheckpointError(
                        f"{path}: checkpoint kind {kind!r} cannot resume a "
                        f"{expect_kind!r} run"
                    )
                nfactors = int(header.get("nfactors", 0))
                missing = [m for m in range(nfactors) if f"factor{m}" not in data]
                if missing:
                    raise CheckpointError(f"{path}: missing factor arrays {missing}")
                factors = [np.array(data[f"factor{m}"]) for m in range(nfactors)]
                arrays = {
                    name[len("arr_"):]: np.array(data[name])
                    for name in data.files
                    if name.startswith("arr_")
                }
        except CheckpointError:
            raise
        except (OSError, BadZipFile, ValueError) as exc:
            # np.load raises BadZipFile for truncated archives and
            # ValueError for garbage it mistakes for pickled data
            raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    _obs.count("checkpoint.loads")
    return Checkpoint(
        kind=kind,
        iteration=int(header.get("iteration", 0)),
        factors=factors,
        arrays=arrays,
        meta=dict(header.get("meta", {})),
        rng_state=header.get("rng_state"),
        version=version,
    )
