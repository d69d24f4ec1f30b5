"""Execution transports for distributed CP-ALS: simulated and real.

A :class:`Transport` supplies the driver loop in
:mod:`repro.distributed.cpals` with the two data-plane operations of the
medium-grained algorithm, leaving the metering, resilience hooks and
solver sequence in the driver where they are transport-independent:

* :meth:`Transport.mttkrp_partials` — every active locale's local MTTKRP
  over its sub-volume, returned as that locale's layer-block slice in
  locale-rank order (the driver folds them in that fixed order, so both
  transports produce bit-identical sums);
* :meth:`Transport.push_factor` — publish a freshly solved factor to the
  locales (the expand direction).

``sim`` (:class:`SimTransport`) executes every locale in-process, exactly
as the pre-transport simulation did: real per-locale CSF sets and real
local MTTKRPs, fold/expand performed by the driver and merely metered.

``proc`` (:class:`ProcTransport`) is the real thing: one spawned worker
process per non-empty locale, every bulk array — packed COO, factor
matrices, λ, per-locale partials — mapped through
:class:`~repro.distributed.shm.ShmArena` segments and never pickled.  A
mode update is a medium-grained all-reduce over shared memory: workers
publish their layer-block partials into their segments (fold), the
driver reduces them in rank order and writes the solved factor back into
the shared factor segment (expand); the only pipe traffic is tiny
control tuples.  Workers resolve their kernel backend independently and
return per-locale observe summaries at shutdown, which the driver merges
into its active trace (``locale{r}.*`` counters) and exposes as
``DistributedResult.locale_stats``.
"""

from __future__ import annotations

import numpy as np

from repro._util import VALUE_DTYPE
from repro.distributed.grid import LocaleGrid
from repro.distributed.partition import MediumGrainPartition
from repro.distributed.shm import ShmArena
from repro.observe import spans as _obs

__all__ = ["Transport", "SimTransport", "ProcTransport", "make_transport", "TRANSPORTS"]

#: Registered transport names (``distributed_cp_als(transport=)``, `--transport`).
TRANSPORTS: tuple[str, ...] = ("sim", "proc")

#: Seconds to wait for a worker to spawn, import and build its CSF.
_WORKER_START_TIMEOUT_S = 120.0
#: Seconds to wait for one local MTTKRP answer before declaring the
#: worker lost (generous: covers first-call JIT compilation).
_WORKER_REPLY_TIMEOUT_S = 300.0


class Transport:
    """Data-plane operations shared by all transports.

    Use as a context manager: ``__enter__`` builds per-locale state
    (``sim``) or spawns and connects the worker fleet (``proc``);
    ``__exit__`` always releases it.
    """

    name: str = "abstract"

    def __init__(self, part: MediumGrainPartition, grid: LocaleGrid, rank: int,
                 *, backend=None):
        self.part = part
        self.grid = grid
        self.rank = rank
        self.backend = backend
        #: Locale ranks that own at least one nonzero, ascending.
        self.active = [
            lrank for lrank, sub in enumerate(part.locale_tensors) if sub.nnz
        ]
        #: Per-locale per-mode factor-row block (lo, hi) of its mode layer.
        coords = grid.coords()
        self.blocks = {
            lrank: [
                part.row_block(mode, coords[lrank][mode])
                for mode in range(grid.nmodes)
            ]
            for lrank in self.active
        }
        #: Per-locale numeric observe summaries, filled on close (proc).
        self.locale_stats: dict[int, dict[str, float]] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self, factors: list[np.ndarray]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- data plane ----------------------------------------------------
    def mttkrp_partials(
        self, mode: int, factors: list[np.ndarray]
    ) -> list[tuple[int, int, int, np.ndarray]]:
        """Every active locale's local MTTKRP for ``mode``.

        Returns ``(lrank, lo, hi, partial)`` tuples in ascending locale
        rank, where ``partial`` has shape ``(hi - lo, rank)`` and holds
        the locale's contribution to factor rows ``[lo, hi)`` (its mode
        layer's block; rows it does not touch are zero).
        """
        raise NotImplementedError

    def push_factor(self, mode: int, factor: np.ndarray) -> None:
        """Publish the solved ``factor`` for ``mode`` to the locales."""
        raise NotImplementedError


class SimTransport(Transport):
    """All locales executed in the driver process (the metered simulation)."""

    name = "sim"

    def start(self, factors: list[np.ndarray]) -> None:
        from repro.csf.build import build_csf_set

        self._csf = {
            lrank: build_csf_set(self.part.locale_tensors[lrank])
            for lrank in self.active
        }

    def close(self) -> None:
        self._csf = {}

    def mttkrp_partials(self, mode, factors):
        from repro.mttkrp.variants import mttkrp_csf

        out = []
        for lrank in self.active:
            m_local, _ = mttkrp_csf(
                self._csf[lrank], factors, mode, backend=self.backend
            )
            lo, hi = self.blocks[lrank][mode]
            out.append((lrank, lo, hi, m_local[lo:hi]))
        return out

    def push_factor(self, mode, factor):
        pass  # locales share the driver's factor list already


class ProcTransport(Transport):
    """One spawned process per non-empty locale, shared-memory data plane."""

    name = "proc"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._arena: ShmArena | None = None
        self._procs: dict[int, object] = {}
        self._conns: dict[int, object] = {}

    # ------------------------------------------------------------------
    def start(self, factors: list[np.ndarray]) -> None:
        import multiprocessing as mp

        from repro.distributed.worker import worker_main
        from repro.runtime.env import limit_blas_threads

        part, grid = self.part, self.grid
        arena = ShmArena()
        self._arena = arena
        try:
            with _obs.span("dist.shm.map", transport=self.name):
                coords, values, offsets = part.packed_coo()
                arena.put("coords", coords)
                arena.put("values", values)
                for m, f in enumerate(factors):
                    arena.put(f"factor{m}", np.ascontiguousarray(f, dtype=VALUE_DTYPE))
                arena.put("lam", np.ones(self.rank, dtype=VALUE_DTYPE))
                for lrank in self.active:
                    max_block = max(hi - lo for lo, hi in self.blocks[lrank])
                    arena.create(f"partial{lrank}", (max_block, self.rank), VALUE_DTYPE)
            _obs.count("dist.shm.bytes_mapped", arena.nbytes)
            _obs.gauge("dist.shm.segments", len(arena.manifest()))

            ctx = mp.get_context("spawn")
            manifest = arena.manifest()
            with _obs.span("dist.workers.spawn", locales=len(self.active)):
                # Workers inherit the environment at spawn: pin BLAS/OpenMP
                # to one thread each so N locales never oversubscribe.
                with limit_blas_threads(1):
                    for lrank in self.active:
                        parent_conn, child_conn = ctx.Pipe()
                        spec = {
                            "dims": part.locale_tensors[lrank].dims,
                            "rank": self.rank,
                            "nnz_range": (int(offsets[lrank]), int(offsets[lrank + 1])),
                            "blocks": self.blocks[lrank],
                            "backend": self._backend_name(),
                        }
                        proc = ctx.Process(
                            target=worker_main,
                            args=(child_conn, lrank, manifest, spec),
                            name=f"repro-locale{lrank}",
                            daemon=True,
                        )
                        proc.start()
                        child_conn.close()
                        self._procs[lrank] = proc
                        self._conns[lrank] = parent_conn
                for lrank in self.active:
                    msg = self._recv(lrank, _WORKER_START_TIMEOUT_S)
                    if msg[0] != "ready":  # pragma: no cover - protocol guard
                        raise RuntimeError(f"locale {lrank}: unexpected {msg[0]!r}")
        except BaseException:
            self.close()
            raise

    def _backend_name(self) -> str | None:
        """The backend choice as a spawn-safe string (or None = default)."""
        backend = self.backend
        if backend is None or isinstance(backend, str):
            return backend
        return backend.name

    def _recv(self, lrank: int, timeout: float):
        conn = self._conns[lrank]
        if not conn.poll(timeout):
            raise RuntimeError(
                f"locale {lrank} worker did not answer within {timeout:.0f}s"
            )
        try:
            msg = conn.recv()
        except EOFError:
            raise RuntimeError(
                f"locale {lrank} worker died (pipe closed); "
                "partial results discarded"
            ) from None
        if msg[0] == "error":
            raise RuntimeError(
                f"locale {lrank} worker failed: {msg[1]}\n{msg[2]}"
            )
        return msg

    # ------------------------------------------------------------------
    def mttkrp_partials(self, mode, factors):
        # Broadcast first so all locales compute concurrently, then
        # collect in ascending rank order — the fold's fixed reduction
        # order, identical to the simulated transport's.
        for lrank in self.active:
            self._conns[lrank].send(("mttkrp", mode))
        out = []
        for lrank in self.active:
            msg = self._recv(lrank, _WORKER_REPLY_TIMEOUT_S)
            if msg != ("ok", mode):  # pragma: no cover - protocol guard
                raise RuntimeError(f"locale {lrank}: unexpected reply {msg!r}")
            lo, hi = self.blocks[lrank][mode]
            out.append((lrank, lo, hi, self._arena[f"partial{lrank}"][: hi - lo]))
        return out

    def push_factor(self, mode, factor):
        # The factor segment is the broadcast medium: one in-place write
        # and every locale's next read sees the new rows, zero-copy.
        self._arena[f"factor{mode}"][...] = factor

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            for lrank, conn in list(self._conns.items()):
                proc = self._procs[lrank]
                try:
                    if proc.is_alive():
                        conn.send(("stop",))
                        msg = self._recv(lrank, _WORKER_START_TIMEOUT_S)
                        if msg[0] == "metrics":
                            self.locale_stats[lrank] = msg[1]
                except (RuntimeError, BrokenPipeError, OSError):
                    pass  # already collecting the wreckage; keep going
                finally:
                    conn.close()
            for proc in self._procs.values():
                proc.join(timeout=10.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=5.0)
        finally:
            self._conns.clear()
            self._procs.clear()
            if self._arena is not None:
                self._arena.close()
                self._arena = None
        rec = _obs.active_recorder()
        if rec is not None and self.locale_stats:
            for lrank, summary in sorted(self.locale_stats.items()):
                rec.absorb(summary, prefix=f"locale{lrank}.")


def make_transport(
    name: str,
    part: MediumGrainPartition,
    grid: LocaleGrid,
    rank: int,
    *,
    backend=None,
) -> Transport:
    """Instantiate a registered transport by name."""
    if name == "sim":
        return SimTransport(part, grid, rank, backend=backend)
    if name == "proc":
        return ProcTransport(part, grid, rank, backend=backend)
    raise ValueError(f"unknown transport {name!r}; choose from {TRANSPORTS}")
