"""Figures 1-10 and §V-E of the paper, regenerated.

Simulated mode produces the same series the paper plots (seconds vs
threads/tasks, 1..32) from the calibrated performance model.  Measured mode
runs the real kernels at bench scale where that is meaningful on a GIL-bound
interpreter: serial optimization ladders (Figs 1-3, 5, 6) and real
multi-threaded lock-pool behaviour (Fig 4's contention counters).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.bench.datasets import BENCH_SCALE, bench_dataset
from repro.bench.runner import ExperimentResult, best_of, experiment
from repro.core.cpals import cp_als
from repro.core.options import CpalsOptions
from repro.core.timers import ROUTINES
from repro.csf.build import build_csf_set
from repro.mttkrp.variants import mttkrp_csf
from repro.perfmodel.routines import inverse_time, norm_time
from repro.perfmodel.simulate import SimConfig, paper_scale_stats, simulate_cpals
from repro.runtime.accounting import CostCounters
from repro.runtime.env import ChapelEnv, DEFAULT_SPINCOUNT
from repro.runtime.locks import make_mutex_pool
from repro.runtime.tasking import make_tasking_layer
from repro.tensor.sort import sort_tensor
from repro._util import as_rng

__all__ = []  # experiments are reached through the registry

TASKS = (1, 2, 4, 8, 16, 32)


# ----------------------------------------------------------------------
# Fig 1 — sorting optimization ladder (NELL-2)
# ----------------------------------------------------------------------
@experiment("fig1")
def fig1(*, measured: bool = False, scale: float = BENCH_SCALE) -> ExperimentResult:
    """Chapel sorting runtime, NELL-2: Initial / Array-opt / Slices-opt / All-opts."""
    variants = ("initial", "array_opt", "slices_opt", "all_opts")
    if measured:
        tensor = bench_dataset("nell-2", scale)
        rows = []
        for ntasks in (1, 2, 4):
            env = ChapelEnv(num_tasks=ntasks)
            best = best_of({
                v: lambda v=v: sort_tensor(tensor, 0, variant=v, env=env)
                for v in (*variants, "lexsort")
            }, rounds=3)
            rows.append([ntasks, *(round(t, 4) for t in best.values())])
        notes = [
            f"measured wall-clock at scale {scale:g}, best of 3 interleaved "
            "rounds; >1 task rows "
            "run the real parallel bucket sort (GIL-bound for interpreted "
            "quicksorts, so no speedup is expected — structure and "
            "correctness are what is exercised)",
            "shape criterion: the interpreted ladder is far slower than the "
            "vectorized lexsort (C stand-in) and initial >= all_opts; the "
            "intra-ladder deltas compress under the interpreter because the "
            "per-comparison cost dominates both de-optimizations",
        ]
        headers = ["tasks", "Initial", "Array-opt", "Slices-opt", "All-opts", "C(lexsort)"]
    else:
        stats = paper_scale_stats("nell-2")
        rows = []
        for p in TASKS:
            row = [p]
            for v in variants:
                cfg = replace(SimConfig.chapel_initial(p), sort_variant=v)
                row.append(round(simulate_cpals(stats, cfg).seconds["sort"], 3))
            rows.append(row)
        notes = [
            "simulated at paper scale",
            "paper anchors (serial): Initial 69.04 s, All-opts 9.86 s (~8x); "
            "Slices-opt alone ~4x (§V-C)",
        ]
        headers = ["tasks", "Initial", "Array-opt", "Slices-opt", "All-opts"]
    return ExperimentResult(
        exp_id="fig1",
        title="Chapel sorting runtime on NELL-2, optimization ladder (paper Fig 1)",
        headers=headers,
        rows=rows,
        notes=notes,
    )


# ----------------------------------------------------------------------
# Figs 2 & 3 — MTTKRP matrix-access ladder
# ----------------------------------------------------------------------
def _mttkrp_sweep(csf_set, factors, variant: str) -> None:
    """One serial MTTKRP over every mode with one access variant."""
    for mode in range(len(factors)):
        mttkrp_csf(csf_set, factors, mode, variant=variant)


def _access_ladder(dataset: str, fig_id: str, paper_note: str, *, measured: bool, scale: float):
    variants = ("slicing", "index2d", "pointer")
    if measured:
        tensor = bench_dataset(dataset, scale)
        csf_set = build_csf_set(tensor, allocation="two")
        rank = 16
        rng = as_rng(0)
        factors = [np.asarray(rng.random((d, rank))) for d in tensor.dims]
        best = best_of({
            v: lambda v=v: _mttkrp_sweep(csf_set, factors, v)
            for v in (*variants, "vectorized")
        }, rounds=3)
        rows = [[1, *(round(t, 4) for t in best.values())]]
        headers = ["tasks", "Initial(slicing)", "2D Index", "Pointer", "C(vectorized)"]
        notes = [
            f"measured wall-clock at scale {scale:g}, serial, all 3 modes, "
            "best of 3 interleaved rounds",
            "shape criterion: slicing slowest, pointer fastest interpreted, "
            "vectorized (the C stand-in) fastest overall",
        ]
    else:
        stats = paper_scale_stats(dataset)
        rows = []
        for p in TASKS:
            row = [p]
            for v in variants:
                # Figs 2/3 predate the mutex fix: sync-variable locks.
                cfg = replace(SimConfig.chapel_initial(p), mttkrp_variant=v)
                row.append(round(simulate_cpals(stats, cfg).seconds["mttkrp"], 3))
            rows.append(row)
        headers = ["tasks", "Initial(slicing)", "2D Index", "Pointer"]
        notes = ["simulated at paper scale (sync mutexes, as in the paper's Figs 2-3)",
                 paper_note]
    return ExperimentResult(
        exp_id=fig_id,
        title=f"Chapel MTTKRP runtime, matrix-access ladder, {dataset.upper()} "
              f"(paper {fig_id.replace('fig', 'Fig ')})",
        headers=headers,
        rows=rows,
        notes=notes,
    )


@experiment("fig2")
def fig2(*, measured: bool = False, scale: float = BENCH_SCALE) -> ExperimentResult:
    return _access_ladder(
        "yelp", "fig2",
        "paper anchors: 2D-index 12x over slicing; pointer another 1.26x; "
        "YELP scales poorly under sync locks beyond 2 tasks",
        measured=measured, scale=scale,
    )


@experiment("fig3")
def fig3(*, measured: bool = False, scale: float = BENCH_SCALE) -> ExperimentResult:
    return _access_ladder(
        "nell-2", "fig3",
        "paper anchors: 2D-index 17x over slicing; pointer another 1.26x; "
        "NELL-2 scales near-linearly (no locks at any task count)",
        measured=measured, scale=scale,
    )


# ----------------------------------------------------------------------
# Fig 4 — sync vs atomic vs fifo-sync mutex pools (YELP)
# ----------------------------------------------------------------------
@experiment("fig4")
def fig4(*, measured: bool = False, scale: float = BENCH_SCALE) -> ExperimentResult:
    """Mutex-pool comparison on YELP's locked MTTKRP."""
    if measured:
        return _fig4_measured(scale)
    stats = paper_scale_stats("yelp")
    rows = []
    for p in TASKS:
        sync = simulate_cpals(stats, replace(SimConfig.chapel_optimized(p), mutex_kind="sync"))
        atomic = simulate_cpals(stats, SimConfig.chapel_optimized(p))
        fifo = simulate_cpals(
            stats,
            replace(SimConfig.chapel_optimized(p), mutex_kind="sync", tasking_layer="fifo"),
        )
        rows.append([
            p,
            round(sync.seconds["mttkrp"], 3),
            round(atomic.seconds["mttkrp"], 3),
            round(fifo.seconds["mttkrp"], 3),
            bool(sync.locked_modes),
        ])
    return ExperimentResult(
        exp_id="fig4",
        title="Chapel MTTKRP on YELP: sync vs atomic vs FIFO-sync mutex pools (paper Fig 4)",
        headers=["tasks", "Sync(qthreads)", "Atomic", "FIFO-sync", "locks engaged"],
        rows=rows,
        notes=[
            "simulated at paper scale; pointer access variant throughout (as in Fig 4)",
            "paper anchors: atomic ~14.5x faster than sync at 32 tasks; FIFO-sync "
            "competitive with atomic; locks engage only beyond 2 tasks",
        ],
    )


def _fig4_measured(scale: float) -> ExperimentResult:
    """Real multi-threaded lock pools: wall time + contention counters.

    Python threads genuinely contend on the pools; the vectorized kernel
    releases the GIL inside NumPy, so lock traffic and sleep-vs-spin
    behaviour are real even though speedups are GIL-bound.
    """
    tensor = bench_dataset("yelp", scale)
    csf_set = build_csf_set(tensor, allocation="two")
    rank = 16
    rng = as_rng(0)
    factors = [np.asarray(rng.random((d, rank))) for d in tensor.dims]
    # the internal (non-root) mode is the one that locks
    locked_mode = next(
        m for m in range(tensor.nmodes) if csf_set.tree_for_mode(m)[1] != "root"
    )
    rows = []
    for p in (1, 2, 4):
        for kind, layer_name in (("sync", "qthreads"), ("atomic", "qthreads"), ("sync", "fifo")):
            env = ChapelEnv(num_tasks=p, tasking_layer=layer_name)
            counters = CostCounters()
            layer = make_tasking_layer(env)
            # A deliberately small pool concentrates lock traffic so real
            # contention (and sync sleeps) show up at bench scale.
            pool = make_mutex_pool(kind, size=8, env=env, counters=counters)
            # one timed run, not best_of: the seconds column must come
            # from the same run as the lock counters beside it
            start = time.perf_counter()
            mttkrp_csf(
                csf_set, factors, locked_mode,
                variant="vectorized", layer=layer, pool=pool, force_locks=True,
            )
            elapsed = time.perf_counter() - start
            snap = counters.snapshot()
            rows.append([
                p, f"{kind}/{layer_name}", round(elapsed, 4),
                snap["lock_acquires"], snap["lock_contended"], snap["sync_sleeps"],
            ])
    return ExperimentResult(
        exp_id="fig4",
        title="Measured lock pools on YELP's locked MTTKRP mode (real threads)",
        headers=["tasks", "pool/layer", "seconds", "acquires", "contended", "sleeps"],
        rows=rows,
        notes=[
            f"measured at scale {scale:g}; locks forced on the non-root mode",
            "shape criterion: only sync/qthreads records sleeps; contention "
            "appears once tasks > 1",
        ],
    )


# ----------------------------------------------------------------------
# Figs 5-8 — per-routine breakdowns, C vs Chapel-optimized
# ----------------------------------------------------------------------
def _routines_figure(dataset: str, ntasks: int, fig_id: str, *, measured: bool, scale: float):
    label = dataset.upper().replace("NELL-2", "NELL-2")
    if measured:
        tensor = bench_dataset(dataset, scale)
        rows = []
        for cfg_name, opts in (
            ("C(vectorized)", CpalsOptions(max_iterations=3, tolerance=0.0,
                                           variant="vectorized", sort_variant="lexsort")),
            ("Chapel-optimize", CpalsOptions(max_iterations=3, tolerance=0.0,
                                             variant="pointer", sort_variant="all_opts",
                                             mutex_kind="atomic")),
        ):
            result = cp_als(tensor, 16, opts)
            rows.append([cfg_name, *(round(result.timers.total(r), 4) for r in ROUTINES)])
        notes = [
            f"measured wall-clock at scale {scale:g}, serial, 3 iterations, rank 16",
            "shape criterion: per-routine parity except MTTKRP/Sort where the "
            "interpreted pointer kernel trails the vectorized baseline",
        ]
    else:
        stats = paper_scale_stats(dataset)
        rows = []
        for cfg_name, cfg in (
            ("C", SimConfig.c_reference(ntasks)),
            ("Chapel-optimize", SimConfig.chapel_optimized(ntasks)),
        ):
            run = simulate_cpals(stats, cfg)
            rows.append([cfg_name, *(round(run.seconds[r], 3) for r in ROUTINES)])
        notes = [
            f"simulated at paper scale, {ntasks} threads/tasks",
            "paper anchors: serial MTTKRP 13.13 vs 14.01 s (YELP) and 109.25 vs "
            "118.33 s (NELL-2); at 32 tasks the Chapel inverse stays serial "
            "(OMP_NUM_THREADS=1) while C's parallelizes",
        ]
    return ExperimentResult(
        exp_id=fig_id,
        title=f"Per-routine CP-ALS runtimes, {label}, {ntasks} thread(s)/task(s) "
              f"(paper {fig_id.replace('fig', 'Fig ')})",
        headers=["code", *ROUTINES],
        rows=rows,
        notes=notes,
    )


@experiment("fig5")
def fig5(*, measured: bool = False, scale: float = BENCH_SCALE) -> ExperimentResult:
    return _routines_figure("yelp", 1, "fig5", measured=measured, scale=scale)


@experiment("fig6")
def fig6(*, measured: bool = False, scale: float = BENCH_SCALE) -> ExperimentResult:
    return _routines_figure("nell-2", 1, "fig6", measured=measured, scale=scale)


@experiment("fig7")
def fig7(*, measured: bool = False, scale: float = BENCH_SCALE) -> ExperimentResult:
    return _routines_figure("yelp", 32, "fig7", measured=measured, scale=scale)


@experiment("fig8")
def fig8(*, measured: bool = False, scale: float = BENCH_SCALE) -> ExperimentResult:
    return _routines_figure("nell-2", 32, "fig8", measured=measured, scale=scale)


# ----------------------------------------------------------------------
# Figs 9 & 10 — MTTKRP scaling: C vs Chapel-initial vs Chapel-optimize
# ----------------------------------------------------------------------
def _scaling_figure(dataset: str, fig_id: str, paper_note: str, *, measured: bool, scale: float):
    if measured:
        # Serial-only measured comparison (parallel interpreted loops are
        # GIL-bound); the simulated series carries the scaling claim.
        tensor = bench_dataset(dataset, scale)
        csf_set = build_csf_set(tensor, allocation="two")
        rank = 16
        rng = as_rng(0)
        factors = [np.asarray(rng.random((d, rank))) for d in tensor.dims]
        times = best_of({
            v: lambda v=v: _mttkrp_sweep(csf_set, factors, v)
            for v in ("vectorized", "slicing", "pointer")
        }, rounds=3)
        rows = [[1, *(round(t, 4) for t in times.values()),
                 f"{100 * times['vectorized'] / times['pointer']:.1f}%"]]
        notes = [f"measured wall-clock at scale {scale:g}, serial, all modes, "
                 "best of 3 interleaved rounds",
                 "shape criterion: C < optimized << initial"]
    else:
        stats = paper_scale_stats(dataset)
        rows = []
        for p in TASKS:
            c = simulate_cpals(stats, SimConfig.c_reference(p)).seconds["mttkrp"]
            ini = simulate_cpals(stats, SimConfig.chapel_initial(p)).seconds["mttkrp"]
            opt = simulate_cpals(stats, SimConfig.chapel_optimized(p)).seconds["mttkrp"]
            rows.append([p, round(c, 3), round(ini, 2), round(opt, 3),
                         f"{100 * c / opt:.1f}%"])
        notes = ["simulated at paper scale", paper_note]
    return ExperimentResult(
        exp_id=fig_id,
        title=f"MTTKRP runtime, {dataset.upper()}: C vs Chapel-initial vs "
              f"Chapel-optimize (paper {fig_id.replace('fig', 'Fig ')})",
        headers=["tasks", "C", "Chapel-initial", "Chapel-optimize", "C/opt"],
        rows=rows,
        notes=notes,
    )


@experiment("fig9")
def fig9(*, measured: bool = False, scale: float = BENCH_SCALE) -> ExperimentResult:
    return _scaling_figure(
        "yelp", "fig9",
        "paper: Chapel-optimize achieves 83-93% of C MTTKRP on YELP, near-linear "
        "scaling; Chapel-initial only ~1.9x total speedup (sync locks)",
        measured=measured, scale=scale,
    )


@experiment("fig10")
def fig10(*, measured: bool = False, scale: float = BENCH_SCALE) -> ExperimentResult:
    return _scaling_figure(
        "nell-2", "fig10",
        "paper: Chapel-optimize achieves 84-96% of C MTTKRP on NELL-2, "
        "near-linear scaling for both optimized codes",
        measured=measured, scale=scale,
    )


# ----------------------------------------------------------------------
# §V-E — Qthreads × OpenMP interference
# ----------------------------------------------------------------------
@experiment("sec5e")
def sec5e(*, measured: bool = False) -> ExperimentResult:
    """Inverse-routine interference sweep (paper §V-E, YELP)."""
    stats = paper_scale_stats("yelp")
    rank, iters = 35, 20
    rows = []
    for omp in TASKS:
        t_default = inverse_time(stats.dims, rank, iters, is_c=False, omp_threads=omp,
                                 qt_affinity=True, qt_spincount=DEFAULT_SPINCOUNT)
        t_noaff = inverse_time(stats.dims, rank, iters, is_c=False, omp_threads=omp,
                               qt_affinity=False, qt_spincount=DEFAULT_SPINCOUNT)
        t_spin = inverse_time(stats.dims, rank, iters, is_c=False, omp_threads=omp,
                              qt_affinity=False, qt_spincount=300)
        t_c = inverse_time(stats.dims, rank, iters, is_c=True, omp_threads=omp,
                           qt_affinity=True, qt_spincount=DEFAULT_SPINCOUNT)
        norm_pen = norm_time(stats.dims, rank, iters, omp, is_c=False,
                             qt_affinity=False, omp_threads=omp) / max(
            norm_time(stats.dims, rank, iters, omp, is_c=False,
                      qt_affinity=True, omp_threads=omp), 1e-12)
        rows.append([omp, round(t_default, 3), round(t_noaff, 3), round(t_spin, 3),
                     round(t_c, 3), f"{norm_pen:.1f}x"])
    return ExperimentResult(
        exp_id="sec5e",
        title="Inverse routine under Qthreads x OpenMP interference, YELP (paper §V-E)",
        headers=["omp threads", "Chapel default", "QT_AFFINITY=no",
                 "+QT_SPINCOUNT=300", "C", "mat_norm penalty"],
        rows=rows,
        notes=[
            "simulated; paper anchors at 32 threads: default 15x slower than serial; "
            "affinity=no → 2x speedup; +spincount → further 2.3x, still ~4x slower "
            "than C; mat_norm degrades 7-13x when affinity is off",
        ],
    )


# ----------------------------------------------------------------------
# Headline — 83-96% of C, near-linear scaling
# ----------------------------------------------------------------------
@experiment("headline")
def headline(*, measured: bool = False) -> ExperimentResult:
    """The paper's abstract claim: 83-96% of C MTTKRP, near-linear scaling."""
    rows = []
    for ds in ("yelp", "nell-2"):
        stats = paper_scale_stats(ds)
        ratios = []
        opt_series = []
        for p in TASKS:
            c = simulate_cpals(stats, SimConfig.c_reference(p)).seconds["mttkrp"]
            o = simulate_cpals(stats, SimConfig.chapel_optimized(p)).seconds["mttkrp"]
            ratios.append(c / o)
            opt_series.append(o)
        speedup32 = opt_series[0] / opt_series[-1]
        rows.append([
            stats.name,
            f"{100 * min(ratios):.0f}%",
            f"{100 * max(ratios):.0f}%",
            round(speedup32, 1),
            f"{100 * speedup32 / 32:.0f}%",
        ])
    return ExperimentResult(
        exp_id="headline",
        title="Headline: Chapel MTTKRP performance relative to C, and scaling to 32 tasks",
        headers=["dataset", "min C/opt", "max C/opt", "opt speedup @32", "parallel efficiency"],
        rows=rows,
        notes=["paper: 83-96% of C performance and near-linear scalability up to 32 cores"],
    )
