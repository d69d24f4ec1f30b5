"""Distributed CP-ALS over locales (medium-grained algorithm).

Executes the *real* algorithm — each locale owns a real sub-tensor with its
own CSF set and computes real local MTTKRPs — behind a pluggable
:class:`~repro.distributed.transport.Transport`:

``transport="sim"``
    every locale runs in this process; fold/expand are performed by the
    driver and metered (the original simulation — numerics match serial
    CP-ALS bit-for-bit).
``transport="proc"``
    every non-empty locale is a spawned worker process; the packed COO,
    factor matrices, λ and per-locale partials live in shared-memory
    segments mapped by all sides, and fold/expand are a medium-grained
    all-reduce over those segments (docs/DISTRIBUTED.md).  Numerics match
    the simulated transport because the driver folds locale partials in
    the same fixed rank order.

per mode ``m`` update:

1. **local MTTKRP** — every locale computes partials over its sub-volume;
   by construction its touched mode-``m`` rows lie inside its own mode
   layer's row block, so reduction never crosses layers.
2. **fold** — partials reduce to the block in ascending locale rank
   (metered via :func:`~repro.distributed.comm.exchange_counts` as each
   locale sending its touched-but-not-owned rows, reduce-scatter message
   pattern within the layer; fault-injectable at ``comm.fold``).
3. **solve + normalize** — the driver solves the full mode against the
   replicated ``R×R`` normal matrix (Gram replication is ``O(R²)`` and not
   metered, as in the original).
4. **expand** — the updated factor is published back to the locales
   (zero-copy through the shared factor segment under ``proc``; metered
   symmetrically, fault-injectable at ``comm.expand``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro._util import VALUE_DTYPE, as_rng, check_rank
from repro.core.cpals import init_factors
from repro.core.kruskal import KruskalTensor
from repro.distributed.comm import (
    CommStats,
    exchange_counts,
    expand_exchange,
    fold_exchange,
)
from repro.distributed.grid import LocaleGrid, choose_grid
from repro.distributed.partition import MediumGrainPartition, partition_medium_grain
from repro.distributed.transport import make_transport
from repro.linalg.ata import gram, hadamard_gram
from repro.linalg.fit import calc_fit
from repro.linalg.inverse import solve_normal_equations
from repro.linalg.norms import normalize_columns
from repro.observe import spans as _obs
from repro.tensor.coo import SparseTensor

__all__ = ["DistributedResult", "distributed_cp_als"]


@dataclass
class DistributedResult:
    """Outcome of a distributed CP-ALS run."""

    kruskal: KruskalTensor
    fits: list[float]
    iterations: int
    converged: bool
    seconds: float
    grid: LocaleGrid
    partition: MediumGrainPartition
    comm: CommStats
    #: Transport the run executed on (``"sim"`` or ``"proc"``).
    transport: str = "sim"
    #: Per-locale numeric observe summaries (``proc`` only): locale rank →
    #: flat ``span.*``/``counter.*`` dict from that worker's recorder.
    locale_stats: dict[int, dict[str, float]] = field(default_factory=dict)

    @property
    def fit(self) -> float:
        return self.fits[-1] if self.fits else 0.0


def _touched_rows(sub: SparseTensor, mode: int) -> np.ndarray:
    """Unique mode-``mode`` indices present in a locale's sub-tensor."""
    if sub.nnz == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(sub.mode_indices(mode))


def distributed_cp_als(
    tensor: SparseTensor,
    rank: int,
    *,
    nlocales: int = 4,
    grid: LocaleGrid | None = None,
    transport: str = "sim",
    backend=None,
    max_iterations: int = 20,
    tolerance: float = 1e-5,
    seed: int | None = 0,
) -> DistributedResult:
    """CP-ALS over a medium-grained locale decomposition.

    Parameters
    ----------
    nlocales / grid:
        Either a locale count (grid chosen by :func:`choose_grid`) or an
        explicit :class:`LocaleGrid`.
    transport:
        ``"sim"`` (in-process, metered simulation — the default) or
        ``"proc"`` (real spawned worker processes exchanging through
        shared memory; see docs/DISTRIBUTED.md).
    backend:
        Kernel backend for the local MTTKRPs (``None`` defers to
        ``$REPRO_BACKEND``/default; under ``proc`` each worker resolves
        and compiles it independently).
    Other parameters follow :func:`repro.core.cpals.cp_als`.

    Returns
    -------
    :class:`DistributedResult`, whose ``comm`` field holds the metered
    fold/expand traffic (identical across transports — the data plane
    changes, the algorithm's communication pattern does not).  The fitted
    model matches serial CP-ALS to floating-point reduction-order
    differences.  ``seconds`` times the ALS sweep only; transport startup
    (worker spawn, shared-memory mapping, per-locale CSF build) happens
    before the clock starts, mirroring how the paper's timed regions
    exclude one-time setup.
    """
    rank = check_rank(rank)
    if tensor.nnz == 0:
        raise ValueError("cannot decompose an empty tensor")
    if grid is None:
        grid = choose_grid(tensor.dims, nlocales)
    part = partition_medium_grain(tensor, grid)
    nmodes = tensor.nmodes

    touched = [
        [_touched_rows(sub, m) for m in range(nmodes)]
        for sub in part.locale_tensors
    ]

    comm = CommStats()
    rng = as_rng(seed)
    factors = init_factors(tensor.dims, rank, rng)
    lam = np.ones(rank, dtype=VALUE_DTYPE)
    grams = [gram(f) for f in factors]
    xnorm2 = tensor.norm() ** 2

    fits: list[float] = []
    converged = False
    iterations = 0

    tr = make_transport(transport, part, grid, rank, backend=backend)
    with tr:
        with _obs.span("dist.transport.start", transport=tr.name,
                       locales=grid.nlocales):
            tr.start(factors)
        start = time.perf_counter()

        for it in range(max_iterations):
            last_mttkrp: np.ndarray | None = None
            for mode in range(nmodes):
                with _obs.span("dist.mode", mode=mode, it=it, transport=tr.name):
                    v = hadamard_gram(factors, mode, grams=grams)

                    # 1. local MTTKRPs + 2. fold (reduce layer-block
                    # partials in ascending locale rank; meter the traffic)
                    m_global = np.zeros((tensor.dims[mode], rank), dtype=VALUE_DTYPE)
                    with _obs.span("dist.fold", mode=mode):
                        for lrank, lo, hi, partial in tr.mttkrp_partials(mode, factors):
                            m_global[lo:hi] += partial
                            sent, msgs = exchange_counts(
                                part, grid, mode, touched[lrank][mode]
                            )
                            fold_exchange(comm, mode, sent, msgs)

                    # 3. solve + normalize (same sequence as serial CP-ALS)
                    new_factor = solve_normal_equations(m_global, v)
                    normalize_columns(
                        new_factor, which="2" if it == 0 else "max", out_lambda=lam
                    )
                    factors[mode] = new_factor
                    grams[mode] = gram(new_factor)

                    # 4. expand: the solved rows flow back out to every
                    # locale that touches them
                    with _obs.span("dist.expand", mode=mode):
                        tr.push_factor(mode, new_factor)
                        for lrank in tr.active:
                            sent, msgs = exchange_counts(
                                part, grid, mode, touched[lrank][mode]
                            )
                            expand_exchange(comm, mode, sent, msgs)

                    last_mttkrp = m_global

            if last_mttkrp is None:  # zero-mode tensors cannot reach the sweep
                raise RuntimeError(
                    "distributed CP-ALS sweep updated no modes; cannot compute fit"
                )
            fits.append(calc_fit(xnorm2, lam, factors, last_mttkrp, grams=grams))
            iterations = it + 1
            if tolerance > 0 and it > 0 and abs(fits[-1] - fits[-2]) < tolerance:
                converged = True
                break

        seconds = time.perf_counter() - start

    kruskal = KruskalTensor(lam.copy(), [f.copy() for f in factors])
    return DistributedResult(
        kruskal=kruskal,
        fits=fits,
        iterations=iterations,
        converged=converged,
        seconds=seconds,
        grid=grid,
        partition=part,
        comm=comm,
        transport=tr.name,
        locale_stats=tr.locale_stats,
    )
