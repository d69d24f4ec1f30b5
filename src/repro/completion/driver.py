"""The completion driver: train/validation loop over any of the solvers.

Mirrors SPLATT's ``splatt complete`` workflow: hold out a validation slice
of the observed entries, iterate the chosen optimizer, track train and
validation RMSE per epoch, and stop when validation stops improving (with
a patience window) or the epoch cap is hit.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro._util import VALUE_DTYPE, as_rng, check_rank
from repro.backend import check_backend_name
from repro.completion.als import als_step
from repro.completion.ccd import ccd_epoch
from repro.completion.losses import predict_entries, rmse
from repro.completion.sgd import sgd_epoch
from repro.mttkrp.scatter import Workspace
from repro.observe import spans as _obs
from repro.resilience.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.tensor.coo import SparseTensor

__all__ = ["ALGORITHMS", "CompletionOptions", "CompletionResult", "complete"]

ALGORITHMS: tuple[str, ...] = ("als", "sgd", "ccd")


@dataclass
class CompletionOptions:
    """Configuration for :func:`complete`.

    Attributes
    ----------
    algorithm:
        ``"als"``, ``"sgd"`` or ``"ccd"``.
    max_epochs:
        Epoch cap (SPLATT default: 50 for completion).
    regularization:
        λ for all solvers.
    learn_rate / learn_rate_decay:
        SGD step size and its per-epoch multiplier.
    sgd_chunk_size:
        Entries per vectorized HogWild chunk (see
        :func:`repro.completion.sgd.sgd_epoch`); larger chunks are faster
        but amplify intra-chunk row collisions.
    validation_fraction:
        Share of observed entries held out for early stopping (0 disables
        the split and early stopping).
    patience:
        Stop after this many epochs without a new best validation RMSE.
    seed:
        Controls initialization, the validation split and SGD shuffling.
    checkpoint_path:
        When set, snapshot the training state (factors, best-so-far
        model, histories, RNG state) to this path every
        ``checkpoint_every`` epochs (atomic ``.npz``, see
        :mod:`repro.resilience.checkpoint`).
    checkpoint_every:
        Snapshot cadence in epochs.
    resume_from:
        Path of a ``completion`` checkpoint to resume; requires the same
        tensor, rank, algorithm and seed, and reproduces the
        uninterrupted run (the RNG resumes mid-stream, so SGD shuffles
        continue exactly where the killed run stopped).
    backend:
        Kernel execution backend for the ALS/SGD scatter reductions
        (``"numpy"``/``"cext"``/``"auto"``/``None``; see
        ``docs/BACKENDS.md``).  CCD is scatter-free and ignores it.
    """

    algorithm: str = "als"
    max_epochs: int = 50
    regularization: float = 1e-2
    learn_rate: float = 1e-2
    learn_rate_decay: float = 0.95
    sgd_chunk_size: int = 256
    validation_fraction: float = 0.1
    patience: int = 5
    seed: int | None = 0
    checkpoint_path: str | os.PathLike | None = None
    checkpoint_every: int = 1
    resume_from: str | os.PathLike | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.regularization < 0:
            raise ValueError("regularization must be >= 0")
        if self.algorithm == "als" and self.regularization <= 0:
            raise ValueError("ALS completion requires regularization > 0")
        if not 0 <= self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.learn_rate <= 0 or not 0 < self.learn_rate_decay <= 1:
            raise ValueError("learn_rate > 0 and 0 < learn_rate_decay <= 1 required")
        if self.sgd_chunk_size < 1:
            raise ValueError("sgd_chunk_size must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        check_backend_name(self.backend)


@dataclass
class CompletionResult:
    """Outcome of a completion run.

    ``factors`` carry the component magnitudes (no separate λ).
    """

    factors: list[np.ndarray]
    train_rmse: list[float]
    val_rmse: list[float]
    epochs: int
    converged: bool
    seconds: float
    algorithm: str
    best_epoch: int = field(default=0)

    def predict(self, coords: np.ndarray) -> np.ndarray:
        """Model values at arbitrary coordinates."""
        return predict_entries(coords, self.factors)

    @property
    def final_train_rmse(self) -> float:
        return self.train_rmse[-1] if self.train_rmse else float("nan")


def _split(
    tensor: SparseTensor, fraction: float, rng: np.random.Generator
) -> tuple[SparseTensor, np.ndarray, np.ndarray]:
    """Hold out ``fraction`` of the entries for validation."""
    if fraction == 0 or tensor.nnz < 10:
        return tensor, np.empty((0, tensor.nmodes), dtype=np.int64), np.empty(0)
    n_val = max(1, int(tensor.nnz * fraction))
    val_idx = rng.choice(tensor.nnz, size=n_val, replace=False)
    mask = np.zeros(tensor.nnz, dtype=bool)
    mask[val_idx] = True
    train = SparseTensor(
        tensor.coords[~mask], tensor.values[~mask], tensor.dims, name=tensor.name
    )
    return train, tensor.coords[mask], tensor.values[mask]


def complete(
    tensor: SparseTensor,
    rank: int,
    options: CompletionOptions | None = None,
) -> CompletionResult:
    """Fit a rank-``R`` completion model to the observed entries.

    Returns the best-validation model (last model when no validation split
    is configured).
    """
    rank = check_rank(rank)
    if tensor.nnz == 0:
        raise ValueError("cannot complete an empty tensor")
    opts = options if options is not None else CompletionOptions()
    rng = as_rng(opts.seed)

    train, val_coords, val_values = _split(tensor, opts.validation_fraction, rng)

    # Initialization: small positive factors scaled so the initial model
    # magnitude matches the data's mean magnitude (standard for SGD
    # stability).
    mean_mag = float(np.abs(train.values).mean()) or 1.0
    scale = (mean_mag / rank) ** (1.0 / train.nmodes)
    factors = [
        np.asarray(rng.random((d, rank)) * scale, dtype=VALUE_DTYPE)
        for d in train.dims
    ]

    start = time.perf_counter()
    train_hist: list[float] = []
    val_hist: list[float] = []
    best_val = float("inf")
    best_epoch = 0
    best_factors = [f.copy() for f in factors]
    stall = 0
    converged = False
    learn_rate = opts.learn_rate
    ccd_residual: np.ndarray | None = None
    # one scratch arena for every SGD epoch: steady-state batches reuse the
    # same scatter buffers instead of reallocating per chunk
    sgd_workspace = Workspace()
    start_epoch = 0

    if opts.resume_from is not None:
        ck = load_checkpoint(opts.resume_from, expect_kind="completion")
        meta = ck.meta
        if meta.get("algorithm") != opts.algorithm or meta.get("rank") != rank or tuple(
            meta.get("dims", ())
        ) != tensor.dims:
            raise CheckpointError(
                f"{opts.resume_from}: checkpoint ({meta.get('algorithm')}, rank "
                f"{meta.get('rank')}, dims {meta.get('dims')}) does not match "
                f"this run ({opts.algorithm}, rank {rank}, dims {list(tensor.dims)})"
            )
        factors = [np.asarray(f, dtype=VALUE_DTYPE) for f in ck.factors]
        best_factors = [
            np.asarray(ck.arrays[f"best_factor{m}"], dtype=VALUE_DTYPE)
            for m in range(tensor.nmodes)
        ]
        train_hist = [float(v) for v in ck.arrays["train_rmse"]]
        val_hist = [float(v) for v in ck.arrays["val_rmse"]]
        if "ccd_residual" in ck.arrays:
            ccd_residual = np.asarray(ck.arrays["ccd_residual"], dtype=VALUE_DTYPE)
        best_val = float(meta["best_val"])
        best_epoch = int(meta["best_epoch"])
        stall = int(meta["stall"])
        learn_rate = float(meta["learn_rate"])
        start_epoch = ck.iteration
        if ck.rng_state is not None:
            # Resume the generator mid-stream so SGD shuffling (and any
            # later draw) continues exactly where the killed run stopped.
            rng.bit_generator.state = ck.rng_state

    def checkpoint(completed: int) -> None:
        if opts.checkpoint_path is None or completed % opts.checkpoint_every:
            return
        arrays = {
            "train_rmse": np.asarray(train_hist, dtype=float),
            "val_rmse": np.asarray(val_hist, dtype=float),
        }
        for m, f in enumerate(best_factors):
            arrays[f"best_factor{m}"] = f
        if ccd_residual is not None:
            arrays["ccd_residual"] = ccd_residual
        save_checkpoint(
            opts.checkpoint_path,
            kind="completion",
            iteration=completed,
            factors=factors,
            arrays=arrays,
            meta={
                "algorithm": opts.algorithm,
                "rank": rank,
                "dims": list(tensor.dims),
                "best_val": best_val,
                "best_epoch": best_epoch,
                "stall": stall,
                "learn_rate": learn_rate,
            },
            rng=rng,
        )

    epochs_run = start_epoch
    run_span = _obs.span(
        "completion",
        algorithm=opts.algorithm,
        rank=rank,
        nnz=train.nnz,
        dims=list(train.dims),
    )
    with run_span:
        from repro.backend import resolve_backend

        bk = resolve_backend(opts.backend)
        if bk.compiled:
            bk.ensure_ready()
        run_span.set_attrs(backend=bk.name)
        if start_epoch:
            run_span.set_attrs(resumed_from_iteration=start_epoch)
        for epoch in range(start_epoch, opts.max_epochs):
            with _obs.span("completion.epoch", epoch=epoch + 1):
                if opts.algorithm == "als":
                    als_step(
                        train, factors,
                        regularization=opts.regularization,
                        backend=bk,
                    )
                elif opts.algorithm == "sgd":
                    sgd_epoch(
                        train, factors,
                        learn_rate=learn_rate,
                        regularization=opts.regularization,
                        chunk_size=opts.sgd_chunk_size,
                        rng=rng,
                        workspace=sgd_workspace,
                        backend=bk,
                    )
                    learn_rate *= opts.learn_rate_decay
                else:  # ccd
                    ccd_residual = ccd_epoch(
                        train, factors,
                        regularization=opts.regularization,
                        residual=ccd_residual,
                    )

                epochs_run = epoch + 1
                train_hist.append(rmse(train.coords, train.values, factors))
            if val_values.size:
                val = rmse(val_coords, val_values, factors)
                val_hist.append(val)
                if val < best_val - 1e-12:
                    best_val = val
                    best_epoch = epochs_run
                    best_factors = [f.copy() for f in factors]
                    stall = 0
                else:
                    stall += 1
                    if stall >= opts.patience:
                        checkpoint(epochs_run)
                        converged = True
                        break
            checkpoint(epochs_run)
        run_span.set_attrs(epochs=epochs_run, converged=converged)

    elapsed = time.perf_counter() - start
    final = best_factors if val_values.size else factors
    return CompletionResult(
        factors=final,
        train_rmse=train_hist,
        val_rmse=val_hist,
        epochs=epochs_run,
        converged=converged,
        seconds=elapsed,
        algorithm=opts.algorithm,
        best_epoch=best_epoch if val_values.size else epochs_run,
    )
