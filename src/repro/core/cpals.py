"""The CP-ALS driver (Algorithm 1 of the paper, SPLATT's ``cpd_als``).

For each mode per iteration:

1. ``V ← ∗_{m≠n} A^(m)ᵀA^(m)``           (Mat AᵀA, using cached Grams)
2. ``M ← MTTKRP(X, A, n)``                (MTTKRP)
3. ``A^(n) ← solve(M, V)``                (Inverse — potrf/potrs)
4. normalize columns of ``A^(n)`` into λ  (Mat norm; 2-norm on the first
   iteration, max-norm after, as SPLATT does)
5. refresh the cached Gram of ``A^(n)``   (Mat AᵀA)

After the last mode the fit is evaluated from the final MTTKRP (CPD fit)
and the loop stops on convergence or the iteration cap.  The pre-processing
sort + CSF construction is timed as the paper's ``Sort`` routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import VALUE_DTYPE, as_rng, check_rank
from repro.backend import resolve_backend
from repro.core.kruskal import KruskalTensor
from repro.core.options import CpalsOptions
from repro.core.timers import RoutineTimers
from repro.csf.build import build_csf_set
from repro.linalg.ata import gram, hadamard_gram
from repro.linalg.fit import calc_fit
from repro.linalg.inverse import solve_normal_equations
from repro.linalg.norms import normalize_columns
from repro.mttkrp.variants import MttkrpInfo, mttkrp_csf
from repro.observe import spans as _obs
from repro.resilience.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.runtime.accounting import CostCounters
from repro.runtime.locks import make_mutex_pool
from repro.runtime.tasking import make_tasking_layer
from repro.tensor.coo import SparseTensor

__all__ = ["cp_als", "CpalsResult", "save_cpals_checkpoint"]


@dataclass
class CpalsResult:
    """Everything a CP-ALS run produced.

    Attributes
    ----------
    kruskal:
        The fitted model (λ and unit-column factors).
    fits:
        Fit after each completed iteration.
    iterations:
        Iterations actually executed.
    converged:
        True when the tolerance criterion stopped the loop.
    timers:
        Per-routine wall time, paper breakdown.
    counters:
        Synchronization events across the whole run.
    mttkrp_infos:
        One :class:`MttkrpInfo` per MTTKRP invocation, in execution order
        (records algorithm, variant and whether locks were used).
    engine_stats:
        Amortized-engine accounting for the run: scatter-plan cache
        hits/misses and bytes (from the CSF set's
        :class:`~repro.mttkrp.scatter.MttkrpContext`) merged with the
        tasking layer's worker-pool reuse counters.  The plan keys are
        absent when no plan was built, the pool keys when no multi-task
        loop ran.
    """

    kruskal: KruskalTensor
    fits: list[float]
    iterations: int
    converged: bool
    timers: RoutineTimers
    counters: CostCounters
    mttkrp_infos: list[MttkrpInfo] = field(default_factory=list)
    engine_stats: dict = field(default_factory=dict)

    @property
    def fit(self) -> float:
        """Final fit."""
        return self.fits[-1] if self.fits else 0.0

    def summary(self) -> str:
        """Human-readable run report (what ``repro cpd`` prints)."""
        from repro.core.timers import ROUTINE_LABELS, ROUTINES

        lines = [
            f"rank-{self.kruskal.rank} CP model of a "
            f"{'x'.join(str(d) for d in self.kruskal.dims)} tensor",
            f"fit = {self.fit:.6f} after {self.iterations} iterations "
            f"(converged: {self.converged})",
            "per-routine seconds:",
        ]
        for routine in ROUTINES:
            lines.append(
                f"  {ROUTINE_LABELS[routine]:10s} {self.timers.total(routine):.4f}"
            )
        locked = sorted({i.mode for i in self.mttkrp_infos if i.used_locks})
        if locked:
            lines.append(f"mutex-pool MTTKRP modes: {locked} "
                         f"({self.counters.lock_acquires} acquires, "
                         f"{self.counters.lock_contended} contended)")
        else:
            lines.append("no-lock MTTKRP for all modes")
        if self.engine_stats:
            es = self.engine_stats
            lines.append(
                "amortized engine: "
                f"{es.get('plan_hits', 0)}/{es.get('plan_hits', 0) + es.get('plan_misses', 0)} "
                f"plan hits, {es.get('workers', 0)} pool workers over "
                f"{es.get('dispatches', 0)} dispatches"
            )
        return "\n".join(lines)


def init_factors(
    dims: tuple[int, ...], rank: int, seed: int | np.random.Generator | None
) -> list[np.ndarray]:
    """Random uniform factor initialization (SPLATT's ``mat_rand``)."""
    rng = as_rng(seed)
    return [np.asarray(rng.random((d, rank)), dtype=VALUE_DTYPE) for d in dims]


def save_cpals_checkpoint(
    path, tensor: SparseTensor, iteration: int,
    factors: list[np.ndarray], weights: np.ndarray, fits: list[float],
) -> None:
    """Snapshot CP-ALS state after ``iteration`` completed sweeps.

    The one writer of the ``cp_als`` checkpoint layout that
    ``resume_from`` reads: ``cp_als``'s periodic write and the serve
    daemon's suspend write both go through it.
    """
    save_checkpoint(
        path,
        kind="cp_als",
        iteration=iteration,
        factors=factors,
        arrays={"lambda": weights, "fits": np.asarray(fits, dtype=float)},
        meta={"rank": len(weights), "dims": list(tensor.dims), "nnz": tensor.nnz},
    )


def cp_als(
    tensor: SparseTensor,
    rank: int,
    options: CpalsOptions | None = None,
    *,
    callback=None,
    csf_set=None,
    layer=None,
) -> CpalsResult:
    """Run CP-ALS on a sparse tensor.

    Parameters
    ----------
    tensor:
        Deduplicated COO tensor (order ≥ 2).
    rank:
        Decomposition rank ``R``.
    options:
        See :class:`CpalsOptions`; defaults reproduce the paper's setup
        except for rank/iterations, which callers pass explicitly.
    callback:
        Optional per-iteration observer ``callback(iteration, fit,
        factors)`` invoked after each completed ALS sweep (iteration is
        1-based; factors are the live matrices — copy before storing).
        Returning ``True`` stops the loop early (``converged`` stays
        False).
    csf_set:
        Optional pre-built :class:`~repro.csf.build.CsfSet` for *this*
        tensor.  Skips the sort + CSF construction entirely and reuses
        the set's :class:`~repro.mttkrp.scatter.MttkrpContext` plan
        cache — how the serve daemon amortizes cold-start across
        requests (docs/SERVING.md).  Must match the tensor's dims and
        ``options.allocation``.
    layer:
        Optional pre-built tasking layer whose persistent worker pool
        should be reused instead of spinning up a fresh one; callers
        sharing a layer must serialize their solves.

    Returns
    -------
    :class:`CpalsResult`

    Notes
    -----
    The interpreted MTTKRP variants (``slicing``/``index2d``/``pointer``)
    are 3rd-order only, as in the paper's port; ``vectorized`` (default)
    supports any order ≥ 2.
    """
    rank = check_rank(rank)
    if tensor.nmodes < 2:
        raise ValueError("CP-ALS requires an order-2+ tensor")
    if tensor.nnz == 0:
        raise ValueError("cannot decompose an empty tensor")
    opts = options if options is not None else CpalsOptions()

    timers = RoutineTimers()
    counters = CostCounters()
    if layer is None:
        layer = make_tasking_layer(opts.env)
    elif layer.env.tasking_layer != opts.env.tasking_layer:
        raise ValueError(
            f"shared layer is {layer.env.tasking_layer!r} but options "
            f"request {opts.env.tasking_layer!r}"
        )
    pool = make_mutex_pool(opts.mutex_kind, size=opts.pool_size, env=opts.env, counters=counters)

    run_span = _obs.span(
        "cp_als",
        rank=rank,
        dims=list(tensor.dims),
        nnz=tensor.nnz,
        variant=opts.variant,
        allocation=opts.allocation,
        ntasks=opts.env.num_tasks,
        tasking_layer=opts.env.tasking_layer,
    )
    with run_span:
        # Resolve the kernel backend once for the whole run; a compiled
        # backend pays its one-time JIT/compile cost here, inside the run
        # span, under its own distinct backend.compile span — never
        # attributed to mttkrp/mat_ata timers.
        bk = resolve_backend(opts.backend)
        if bk.compiled:
            bk.ensure_ready()
        run_span.set_attrs(backend=bk.name)
        # --- Sort: pre-processing sort + CSF construction (paper's Sort row) ---
        if csf_set is None:
            with timers.time("sort"):
                csf_set = build_csf_set(
                    tensor, allocation=opts.allocation, sort_variant=opts.sort_variant
                )
        else:
            # warm path (serve daemon): the caller's cached set stands in
            # for the build; its plan cache carries over between runs
            if csf_set.trees[0].dims != tensor.dims:
                raise ValueError(
                    f"csf_set is for a "
                    f"{'x'.join(str(d) for d in csf_set.trees[0].dims)} tensor, "
                    f"not {'x'.join(str(d) for d in tensor.dims)}"
                )
            if csf_set.allocation != opts.allocation:
                raise ValueError(
                    f"csf_set was built with allocation {csf_set.allocation!r} "
                    f"but options request {opts.allocation!r}"
                )
            run_span.set_attrs(csf_reused=True)
            _obs.count("cp_als.csf_reused")

        nmodes = tensor.nmodes
        fits: list[float] = []
        start_iteration = 0
        if opts.resume_from is not None:
            ck = load_checkpoint(opts.resume_from, expect_kind="cp_als")
            if ck.meta.get("rank") != rank or tuple(ck.meta.get("dims", ())) != tensor.dims:
                raise CheckpointError(
                    f"{opts.resume_from}: checkpoint is for a rank-"
                    f"{ck.meta.get('rank')} model of a "
                    f"{'x'.join(str(d) for d in ck.meta.get('dims', ()))} tensor, "
                    f"not rank-{rank} of {'x'.join(str(d) for d in tensor.dims)}"
                )
            factors = [np.asarray(f, dtype=VALUE_DTYPE) for f in ck.factors]
            lam = np.asarray(ck.arrays["lambda"], dtype=VALUE_DTYPE)
            fits = [float(f) for f in ck.arrays["fits"]]
            start_iteration = ck.iteration
            run_span.set_attrs(resumed_from_iteration=start_iteration)
        else:
            factors = init_factors(tensor.dims, rank, opts.seed)
            lam = np.ones(rank, dtype=VALUE_DTYPE)
        xnorm2 = tensor.norm() ** 2

        with timers.time("mat_ata"):
            grams = [gram(f) for f in factors]

        out_buffers = {m: np.zeros((tensor.dims[m], rank), dtype=VALUE_DTYPE) for m in range(nmodes)}
        infos: list[MttkrpInfo] = []
        converged = False
        iterations = start_iteration

        for it in range(start_iteration, opts.max_iterations):
            last_mttkrp: np.ndarray | None = None
            with _obs.span("cp_als.iteration", iteration=it + 1):
                for mode in range(nmodes):
                    with timers.time("mat_ata"):
                        v = hadamard_gram(factors, mode, grams=grams)
                    with timers.time("mttkrp"):
                        m_out, info = mttkrp_csf(
                            csf_set,
                            factors,
                            mode,
                            variant=opts.variant,
                            layer=layer,
                            pool=pool,
                            force_locks=opts.force_locks,
                            out=out_buffers[mode],
                            backend=bk,
                        )
                    infos.append(info)
                    with timers.time("inverse"):
                        new_factor = solve_normal_equations(m_out, v)
                    with timers.time("mat_norm"):
                        normalize_columns(new_factor, which="2" if it == 0 else "max", out_lambda=lam)
                    factors[mode] = new_factor
                    with timers.time("mat_ata"):
                        grams[mode] = gram(new_factor)
                    last_mttkrp = m_out

                if last_mttkrp is None:  # zero-mode tensors never reach here
                    raise RuntimeError(
                        "CP-ALS sweep updated no modes; cannot compute fit"
                    )
                with timers.time("cpd_fit"):
                    fit = calc_fit(xnorm2, lam, factors, last_mttkrp, grams=grams)
            fits.append(fit)
            iterations = it + 1
            if opts.checkpoint_path is not None and iterations % opts.checkpoint_every == 0:
                save_cpals_checkpoint(opts.checkpoint_path, tensor, iterations,
                                      factors, lam, fits)
            if callback is not None and callback(iterations, fit, factors):
                break
            if opts.tolerance > 0 and it > 0 and abs(fits[-1] - fits[-2]) < opts.tolerance:
                converged = True
                break

        kruskal = KruskalTensor(lam.copy(), [f.copy() for f in factors])
        engine_stats: dict = {"backend": bk.name}
        if bk.compile_seconds:
            engine_stats["backend_compile_seconds"] = bk.compile_seconds
        ctx = getattr(csf_set, "_mttkrp_context", None)
        if ctx is not None:
            engine_stats.update(ctx.stats())
        if getattr(layer, "_pool", None) is not None:
            engine_stats.update(layer.worker_pool.stats())
        engine_stats["retries"] = layer.retries
        engine_stats["backoff_seconds"] = layer.backoff_seconds
        engine_stats["degraded_dispatches"] = layer.degraded_dispatches
        run_span.set_attrs(iterations=iterations, converged=converged,
                           fit=float(fits[-1]) if fits else 0.0)
        for key, value in engine_stats.items():
            _obs.gauge(f"engine.{key}", value)
    return CpalsResult(
        kruskal=kruskal,
        fits=fits,
        iterations=iterations,
        converged=converged,
        timers=timers,
        counters=counters,
        mttkrp_infos=infos,
        engine_stats=engine_stats,
    )
