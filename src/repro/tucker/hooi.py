"""HOOI — higher-order orthogonal iteration for sparse Tucker.

Alternating scheme over the modes: with all factors but ``n`` fixed,

    Y_n = unfolding of  X ×_{m≠n} U_mᵀ          (sparse TTMc)
    U_n = leading R_n left singular vectors of Y_n

and after a full sweep the core is ``G = U_nᵀ Y_n`` (reshaped).  Because
the factors are orthonormal, the fit has the closed form

    ‖X − [G; U]‖² = ‖X‖² − ‖G‖²

so no reconstruction is ever materialized.  Factors start from random
orthonormal bases (QR of Gaussian); each HOOI sweep then performs the
(sequentially truncated) HOSVD projections, which is the standard sparse
practice — a direct HOSVD of the raw unfoldings would densify.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._util import VALUE_DTYPE, as_rng, check_positive
from repro.observe import spans as _obs
from repro.resilience.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.tensor.coo import SparseTensor
from repro.tucker.ttmc import ttmc

__all__ = ["TuckerResult", "tucker_hooi"]


@dataclass
class TuckerResult:
    """A Tucker model ``X ≈ G ×_1 U_1 ×_2 U_2 ⋯``.

    Attributes
    ----------
    core:
        The ``(R_1, …, R_N)`` core tensor.
    factors:
        Orthonormal-column factor matrices ``U_m ∈ R^{I_m × R_m}``.
    fits:
        Fit after each sweep.
    """

    core: np.ndarray
    factors: list[np.ndarray]
    fits: list[float]
    iterations: int
    converged: bool
    seconds: float

    @property
    def fit(self) -> float:
        """Final fit."""
        return self.fits[-1] if self.fits else 0.0

    @property
    def ranks(self) -> tuple[int, ...]:
        """Core ranks per mode."""
        return self.core.shape

    def to_dense(self) -> np.ndarray:
        """Materialize the reconstruction (testing aid)."""
        out = self.core
        for m, u in enumerate(self.factors):
            out = np.moveaxis(np.tensordot(u, out, axes=(1, m)), 0, m)
        return out

    def predict(self, coords: np.ndarray) -> np.ndarray:
        """Model values at sparse coordinates (no densification)."""
        coords = np.asarray(coords)
        if coords.ndim != 2 or coords.shape[1] != len(self.factors):
            raise ValueError(f"coords must be (k, {len(self.factors)})")
        # contract the core against each coordinate's factor rows
        acc = np.broadcast_to(
            self.core, (coords.shape[0], *self.core.shape)
        ).reshape(coords.shape[0], -1)
        shape = list(self.core.shape)
        for m, u in enumerate(self.factors):
            rows = u[coords[:, m]]  # reprolint: allow(row-slice-copy) — (k, R_m) gather; prediction coords change every call, no invariant layout to plan
            acc = acc.reshape(coords.shape[0], shape[0], -1)
            acc = np.einsum("kr,krj->kj", rows, acc)
            shape = shape[1:]
        return acc[:, 0]


def _random_orthonormal(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return np.ascontiguousarray(q, dtype=VALUE_DTYPE)


def _hosvd_basis(tensor: SparseTensor, mode: int, rank: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Leading left singular vectors of the sparse mode unfolding.

    Uses ``scipy.sparse.linalg.svds`` on :meth:`SparseTensor.to_scipy`.
    ``svds`` requires ``rank < min(shape)``; degenerate cases fall back to
    a random orthonormal basis (HOOI converges from either — HOSVD just
    starts closer).
    """
    from scipy.sparse.linalg import svds

    unfolding = tensor.to_scipy(mode)
    if rank >= min(unfolding.shape):
        return _random_orthonormal(rng, tensor.dims[mode], rank)
    u, _s, _vt = svds(unfolding, k=rank, random_state=0)
    # svds returns ascending singular values; order is irrelevant for a
    # basis, but orthonormality can degrade for tiny tails — re-orthogonalize
    q, _ = np.linalg.qr(u)
    return np.ascontiguousarray(q[:, :rank], dtype=VALUE_DTYPE)


def tucker_hooi(
    tensor: SparseTensor,
    ranks: Sequence[int],
    *,
    max_iterations: int = 50,
    tolerance: float = 1e-5,
    init: str = "hosvd",
    seed: int | np.random.Generator | None = 0,
    checkpoint_path: str | os.PathLike | None = None,
    checkpoint_every: int = 1,
    resume_from: str | os.PathLike | None = None,
    backend: str | None = None,
) -> TuckerResult:
    """Fit a Tucker model with core ranks ``ranks`` by HOOI.

    Parameters
    ----------
    ranks:
        One core rank per mode, each ≤ the mode length.
    tolerance:
        Stop when the fit improves by less (0 disables).
    init:
        ``"hosvd"`` (default) seeds each mode with the leading left
        singular vectors of its *sparse* unfolding (truncated HOSVD via
        ``scipy.sparse.linalg.svds``); ``"random"`` uses random orthonormal
        bases.  HOSVD typically saves several sweeps.
    checkpoint_path / checkpoint_every / resume_from:
        Snapshot factors/core/fit history atomically every
        ``checkpoint_every`` sweeps and/or resume a killed run (see
        :mod:`repro.resilience.checkpoint`); a resumed run reproduces an
        uninterrupted one.
    backend:
        Kernel execution backend for the TTMc scatter reductions
        (``"numpy"``/``"cext"``/``"auto"``/``None``; see
        ``docs/BACKENDS.md``).  Results are identical across backends.

    Returns
    -------
    :class:`TuckerResult` with orthonormal factors.
    """
    nmodes = tensor.nmodes
    if len(ranks) != nmodes:
        raise ValueError(f"need {nmodes} ranks, got {len(ranks)}")
    ranks = tuple(check_positive(f"ranks[{m}]", r) for m, r in enumerate(ranks))
    for m, (r, d) in enumerate(zip(ranks, tensor.dims)):
        if r > d:
            raise ValueError(f"ranks[{m}]={r} exceeds mode length {d}")
    if tensor.nnz == 0:
        raise ValueError("cannot decompose an empty tensor")

    if init not in ("hosvd", "random"):
        raise ValueError(f"unknown init {init!r}; use 'hosvd' or 'random'")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    fits: list[float] = []
    start_iteration = 0
    core = np.zeros(ranks, dtype=VALUE_DTYPE)
    if resume_from is not None:
        ck = load_checkpoint(resume_from, expect_kind="hooi")
        if tuple(ck.meta.get("ranks", ())) != ranks or tuple(
            ck.meta.get("dims", ())
        ) != tensor.dims:
            raise CheckpointError(
                f"{resume_from}: checkpoint ranks/dims "
                f"{ck.meta.get('ranks')}/{ck.meta.get('dims')} do not match "
                f"this run ({list(ranks)}/{list(tensor.dims)})"
            )
        factors = [np.asarray(f, dtype=VALUE_DTYPE) for f in ck.factors]
        core = np.asarray(ck.arrays["core"], dtype=VALUE_DTYPE)
        fits = [float(f) for f in ck.arrays["fits"]]
        start_iteration = ck.iteration
    else:
        rng = as_rng(seed)
        if init == "hosvd":
            factors = [
                _hosvd_basis(tensor, m, r, rng) for m, r in enumerate(ranks)
            ]
        else:
            factors = [
                _random_orthonormal(rng, d, r) for d, r in zip(tensor.dims, ranks)
            ]
    xnorm2 = tensor.norm() ** 2

    converged = False
    iterations = start_iteration
    start = time.perf_counter()

    def checkpoint(completed: int) -> None:
        if checkpoint_path is None or completed % checkpoint_every:
            return
        save_checkpoint(
            checkpoint_path,
            kind="hooi",
            iteration=completed,
            factors=factors,
            arrays={"core": core, "fits": np.asarray(fits, dtype=float)},
            meta={"ranks": list(ranks), "dims": list(tensor.dims), "init": init},
        )

    run_span = _obs.span(
        "hooi",
        ranks=list(ranks),
        dims=list(tensor.dims),
        nnz=tensor.nnz,
        init=init,
    )
    with run_span:
        from repro.backend import resolve_backend

        bk = resolve_backend(backend)
        if bk.compiled:
            bk.ensure_ready()
        run_span.set_attrs(backend=bk.name)
        if start_iteration:
            run_span.set_attrs(resumed_from_iteration=start_iteration)
        for it in range(start_iteration, max_iterations):
            y_last: np.ndarray | None = None
            with _obs.span("hooi.sweep", iteration=it + 1):
                for mode in range(nmodes):
                    y = ttmc(tensor, factors, mode, backend=bk)  # (I_mode, prod other ranks)
                    with _obs.span("hooi.svd", mode=mode):
                        u, _s, _vt = np.linalg.svd(y, full_matrices=False)
                    factors[mode] = np.ascontiguousarray(u[:, : ranks[mode]], dtype=VALUE_DTYPE)
                    y_last = y

            if y_last is None:  # zero-mode tensors never reach the sweep
                raise RuntimeError(
                    "HOOI sweep produced no TTMc result; cannot form the core"
                )
            # core from the last mode's TTMc: G_(N-1) = U_{N-1}^T Y
            last = nmodes - 1
            core_unf = factors[last].T @ y_last  # (R_last, prod others)
            rest = [m for m in range(nmodes) if m != last]
            # TTMc columns put the lowest remaining mode fastest, so a C-order
            # unflatten enumerates the remaining modes highest-first; permute
            # the axes back to natural mode order afterwards.
            core_c = core_unf.reshape(ranks[last], *[ranks[m] for m in reversed(rest)])
            axis_modes = [last, *reversed(rest)]  # current axis -> mode id
            core = core_c.transpose([axis_modes.index(m) for m in range(nmodes)])

            residual2 = xnorm2 - float((core**2).sum())
            if residual2 < 8.0 * np.finfo(VALUE_DTYPE).eps * xnorm2:
                # ‖X‖² and ‖G‖² agree to machine precision: the sqrt would
                # amplify cancellation noise into O(1e-8) fit jitter, so
                # report exact recovery instead
                residual2 = 0.0
            fit = 1.0 - float(np.sqrt(residual2) / np.sqrt(xnorm2))
            fits.append(fit)
            iterations = it + 1
            checkpoint(iterations)
            if tolerance > 0 and it > 0 and abs(fits[-1] - fits[-2]) < tolerance:
                converged = True
                break
        run_span.set_attrs(
            iterations=iterations,
            converged=converged,
            fit=float(fits[-1]) if fits else 0.0,
        )

    return TuckerResult(
        core=core,
        factors=factors,
        fits=fits,
        iterations=iterations,
        converged=converged,
        seconds=time.perf_counter() - start,
    )
