"""Locale worker process for the multi-process (``proc``) transport.

Each worker is one *locale* of the medium-grained decomposition, running
in its own interpreter (spawned, so nothing is inherited by accident).
On startup it

1. maps the driver's shared-memory arena (:class:`~repro.distributed.shm.ShmArena.attach`)
   — the packed COO arrays, the factor matrices and λ, and its partial
   output buffer are all zero-copy views into the same physical pages the
   driver sees;
2. slices its own nonzeros out of the packed COO segment (a view, not a
   copy) and builds its locale-local CSF set from them;
3. resolves its kernel backend independently through the ordinary
   selection precedence (``cext`` compiles per process — compiled
   kernels are what make per-process MTTKRPs fast enough for the fold to
   matter);

then serves the driver's command loop: for every ``("mttkrp", mode)`` it
computes the local MTTKRP over its sub-volume and writes the rows of its
mode layer's block into its partial segment (the write *is* the locale's
contribution to the fold all-reduce — no message carries payload).  The
whole life of the worker runs under a private
:class:`~repro.observe.TraceRecorder`; on ``("stop",)`` the recorder's
numeric metrics are returned so the driver can merge per-locale span and
counter summaries into its own observe stream.

Only tiny control tuples and the final metrics dict ever cross the pipe.
"""

from __future__ import annotations

import traceback

from repro.backend import resolve_backend
from repro.csf.build import build_csf_set
from repro.distributed.shm import ShmArena
from repro.mttkrp.variants import mttkrp_csf
from repro.observe import spans as _obs
from repro.tensor.coo import SparseTensor

__all__ = ["worker_main", "numeric_metrics"]


def numeric_metrics(recorder: "_obs.TraceRecorder") -> dict[str, float]:
    """The recorder's flat metrics, numbers only (safe to ship and merge)."""
    return {
        name: float(value)
        for name, value in recorder.metrics().items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _serve(conn, locale_rank: int, manifest: dict, spec: dict) -> None:
    """Attach, build, and answer commands until ``stop`` (worker body)."""
    arena = ShmArena.attach(manifest)
    try:
        dims = tuple(spec["dims"])
        rank = int(spec["rank"])
        lo_nnz, hi_nnz = spec["nnz_range"]
        coords = arena["coords"][lo_nnz:hi_nnz]  # contiguous row slice: no copy
        values = arena["values"][lo_nnz:hi_nnz]
        sub = SparseTensor(coords, values, dims, name=f"locale{locale_rank}")
        with _obs.span("locale.csf.build", locale=locale_rank):
            csf_set = build_csf_set(sub)
        backend = resolve_backend(spec["backend"])
        backend.ensure_ready()
        _obs.gauge("locale.backend", backend.name)

        factors = [arena[f"factor{m}"] for m in range(len(dims))]
        partial = arena[f"partial{locale_rank}"]
        blocks = spec["blocks"]  # per-mode (lo, hi) factor-row block

        conn.send(("ready", locale_rank, backend.name))
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            if msg[0] != "mttkrp":  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown command {msg[0]!r}")
            mode = int(msg[1])
            with _obs.span("locale.mttkrp", locale=locale_rank, mode=mode):
                m_local, _ = mttkrp_csf(csf_set, factors, mode, backend=backend)
            lo, hi = blocks[mode]
            # The locale's touched rows lie inside its layer block by
            # medium-grained construction; publishing that block slice
            # into the shared partial segment is the fold contribution.
            partial[: hi - lo] = m_local[lo:hi]
            _obs.count("locale.fold_rows_published", hi - lo)
            conn.send(("ok", mode))
    finally:
        arena.close()


def worker_main(conn, locale_rank: int, manifest: dict, spec: dict) -> None:
    """Process entry point (must stay module-level for ``spawn`` pickling).

    Every outcome is reported through ``conn``: ``("ready", ...)`` once
    serving, ``("ok", mode)`` per MTTKRP, ``("metrics", dict)`` after
    ``stop``, and ``("error", repr, traceback)`` on any failure.
    """
    recorder = _obs.TraceRecorder()
    try:
        with _obs.tracing(recorder=recorder):
            _serve(conn, locale_rank, manifest, spec)
        conn.send(("metrics", numeric_metrics(recorder)))
    except BaseException as exc:  # surface, don't die silently
        try:
            conn.send(("error", repr(exc), traceback.format_exc()))
        except (BrokenPipeError, OSError):  # driver already gone
            pass
    finally:
        conn.close()
