"""Certification harness: prove the mutex-pool MTTKRP variants race-free.

Two entry points, used by the tests, the CI ``sanitize`` job and the CLI:

* :func:`certify_scatter_mutex` — run the locked scatter MTTKRP under the
  sanitizer across the full {sync, atomic} × {qthreads, fifo} matrix (the
  four curves of the paper's Fig 4) and return one
  :class:`~repro.sanitize.detector.RaceReport` per combination.  A clean
  matrix is the machine-checked form of §IV-A's claim that the mutex pool
  makes parallel scatter accumulation safe.

* :func:`seeded_unlocked_scatter` — the **positive control**: the same
  coforall shape deliberately scatter-assigning overlapping rows into one
  shared output with *no* pool.  A detector that cannot flag this tells
  you nothing when the matrix comes back clean; the tests assert this
  report is non-empty and that its :meth:`RaceReport.fingerprint` is a
  pure function of the seed.
"""

from __future__ import annotations

import numpy as np

from repro.sanitize.detector import RaceReport, sanitizing

__all__ = ["MUTEX_KINDS", "TASKING_LAYER_NAMES", "certify_scatter_mutex",
           "seeded_unlocked_scatter"]

MUTEX_KINDS: tuple[str, ...] = ("sync", "atomic")
TASKING_LAYER_NAMES: tuple[str, ...] = ("qthreads", "fifo")


def certify_scatter_mutex(
    tensor=None,
    *,
    rank: int = 6,
    ntasks: int = 4,
    pool_size: int = 32,
    fuzz_seed: int | None = None,
    modes=None,
    mutex_kinds=MUTEX_KINDS,
    layer_names=TASKING_LAYER_NAMES,
) -> dict[tuple[str, str], RaceReport]:
    """Sanitize locked-scatter MTTKRP across the Fig-4 runtime matrix.

    For every ``(mutex_kind, tasking_layer)`` combination, runs the
    vectorized MTTKRP with ``force_locks=True`` (so non-root modes take
    the ``scatter_mutex`` path through the real lock pool) for each output
    mode, under an installed sanitizer.  ``fuzz_seed`` additionally arms
    the schedule perturber so the certificate covers adversarial
    interleavings, not just the quiet one.

    Returns ``{(mutex_kind, layer_name): RaceReport}``; the matrix is
    certified when every report's ``.ok`` is true.  The small ``pool_size``
    default forces distinct output rows to *share* locks, which is the
    interesting case — correctness must come from mutual exclusion on the
    hashed bucket, not from accidental row privacy.
    """
    # Imported here so ``repro.sanitize`` stays importable from the runtime
    # modules (which the kernel stack below transitively imports).
    from repro.csf.build import build_csf_set
    from repro.mttkrp.variants import mttkrp_csf
    from repro.runtime.env import ChapelEnv
    from repro.runtime.locks import make_mutex_pool
    from repro.runtime.tasking import make_tasking_layer
    from repro.tensor.generate import random_tensor

    if tensor is None:
        tensor = random_tensor((24, 18, 15), 400, seed=13)
    rng = np.random.default_rng(17)
    factors = [np.asarray(rng.random((d, rank))) for d in tensor.dims]
    mode_list = list(modes) if modes is not None else list(range(tensor.nmodes))

    reports: dict[tuple[str, str], RaceReport] = {}
    for kind in mutex_kinds:
        for layer_name in layer_names:
            env = ChapelEnv(num_tasks=ntasks, tasking_layer=layer_name)
            layer = make_tasking_layer(env)
            pool = make_mutex_pool(kind, size=pool_size, env=env)
            csf_set = build_csf_set(tensor, allocation="two")
            try:
                with sanitizing(seed=fuzz_seed) as san:
                    for mode in mode_list:
                        mttkrp_csf(
                            csf_set, factors, mode,
                            layer=layer,
                            pool=pool,
                            force_locks=True,
                        )
            finally:
                layer.shutdown()
            reports[(kind, layer_name)] = san.report()
    return reports


def seeded_unlocked_scatter(
    seed: int = 0,
    *,
    nrows: int = 12,
    rank: int = 4,
    ntasks: int = 4,
    fuzz: bool = True,
) -> RaceReport:
    """Positive control: an intentionally unlocked contended scatter.

    ``ntasks`` coforall tasks each ``scatter_assign`` the *same* seeded
    contended row set into one shared output with no mutex pool — every
    shared row is written concurrently by every task with an empty
    lockset, so the detector must produce ``data-race`` findings on the
    ``RowScatter.scatter_assign`` site covering all contended rows.

    Deterministic by construction: the rows come from ``seed``, task
    timelines are forked in tid order, and each racy ``(task, row)`` pair
    is counted exactly once — so ``report.fingerprint()`` depends only on
    ``seed``, which is what the same-seed ⇒ same-report test asserts.
    """
    from repro.mttkrp.scatter import RowScatter
    from repro.runtime.env import ChapelEnv
    from repro.runtime.tasking import make_tasking_layer

    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nrows, size=4 * nrows).astype(np.int64)
    contribs = rng.random((rows.size, rank))
    out = np.zeros((nrows, rank))
    scatter = RowScatter(rows)

    env = ChapelEnv(num_tasks=ntasks, tasking_layer="fifo")
    layer = make_tasking_layer(env)
    try:
        with sanitizing(seed=seed if fuzz else None) as san:
            san.register_array(out, "control.out")
            layer.coforall(ntasks, lambda tid: scatter.scatter_assign(out, contribs))
    finally:
        layer.shutdown()
    return san.report()
