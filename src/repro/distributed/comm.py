"""Communication metering for the simulated distributed CP-ALS.

The medium-grained algorithm's per-mode-update traffic:

* **fold** — every locale sends its partial MTTKRP rows to the rows'
  owners inside its mode layer (reduce-scatter within the layer);
* **expand** — owners broadcast the freshly solved rows back to the
  locales whose sub-volumes touch them (allgather within the layer).

:class:`CommStats` accumulates the messages and payload bytes those
exchanges would put on a real interconnect, which is the quantity the
medium-grained paper (and any grid-shape ablation) optimizes.

Resilience: :func:`fold_exchange` / :func:`expand_exchange` fire the
``comm.fold`` / ``comm.expand`` fault sites before metering.  Injected
failures are retried (resends metered as ``retried_messages``) and, once
retries run out, degrade to a fallback transport
(``degraded_exchanges``; the payload still arrives) or propagate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import probe as _probe
from repro._util import VALUE_DTYPE

__all__ = ["CommStats", "exchange_counts", "fold_exchange", "expand_exchange"]

_BYTES_PER_VALUE = VALUE_DTYPE().itemsize  # 8


@dataclass
class CommStats:
    """Aggregate communication metrics for one distributed run."""

    fold_rows: int = 0
    expand_rows: int = 0
    fold_messages: int = 0
    expand_messages: int = 0
    #: Per-mode breakdown: mode -> (fold_rows, expand_rows).
    per_mode: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: Resilience accounting (only nonzero under fault injection):
    #: injected exchange failures, retried sends, messages re-put on the
    #: wire by those retries, simulated backoff, degraded-transport
    #: completions.
    faults_injected: int = 0
    retries: int = 0
    retried_messages: int = 0
    backoff_seconds: float = 0.0
    degraded_exchanges: int = 0

    def record_fold(self, mode: int, rows: int, messages: int) -> None:
        self.fold_rows += rows
        self.fold_messages += messages
        f, e = self.per_mode.get(mode, (0, 0))
        self.per_mode[mode] = (f + rows, e)

    def record_expand(self, mode: int, rows: int, messages: int) -> None:
        self.expand_rows += rows
        self.expand_messages += messages
        f, e = self.per_mode.get(mode, (0, 0))
        self.per_mode[mode] = (f, e + rows)

    def volume_bytes(self, rank: int) -> int:
        """Total payload for a decomposition rank ``R`` (each exchanged row
        is ``R`` doubles)."""
        return (self.fold_rows + self.expand_rows) * rank * _BYTES_PER_VALUE

    @property
    def total_messages(self) -> int:
        return self.fold_messages + self.expand_messages

    def merge(self, other: "CommStats") -> None:
        self.fold_rows += other.fold_rows
        self.expand_rows += other.expand_rows
        self.fold_messages += other.fold_messages
        self.expand_messages += other.expand_messages
        self.faults_injected += other.faults_injected
        self.retries += other.retries
        self.retried_messages += other.retried_messages
        self.backoff_seconds += other.backoff_seconds
        self.degraded_exchanges += other.degraded_exchanges
        for mode, (f, e) in other.per_mode.items():
            mf, me = self.per_mode.get(mode, (0, 0))
            self.per_mode[mode] = (mf + f, me + e)


def _resilient_send(stats: CommStats, site: str, messages: int) -> None:
    """Poke ``site`` with retry/degradation semantics, accounting into
    ``stats``.  Returns normally when the (simulated) exchange went
    through — possibly on the degraded transport."""
    p = _probe.current
    if p is None:
        return

    def on_retry(backoff: float, attempts: int) -> None:
        stats.faults_injected += 1
        stats.retries += 1
        stats.retried_messages += messages
        stats.backoff_seconds += backoff

    exc = p.retry(lambda: p.fault(site), on_retry)
    if exc is None:
        return
    stats.faults_injected += 1
    if not p.policy.degrade:
        raise exc
    # The layer-collective keeps failing; complete the exchange over the
    # (simulated) fallback transport instead of killing the whole run.
    stats.degraded_exchanges += 1
    p.count("comm.degraded")


def exchange_counts(part, grid, mode: int, rows) -> tuple[int, int]:
    """Rows and messages one locale puts on the wire for one layer
    collective (identical for fold and expand — the patterns are duals).

    ``rows`` is the locale's touched mode-``mode`` index array.  Within its
    layer each locale owns an even share of the layer's factor-row block;
    everything it touches beyond that share crosses the interconnect, in a
    reduce-scatter (fold) or allgather (expand) of ``layer_size - 1``
    messages.  A locale with no touched rows exchanges nothing.

    This is the single audited home of the metering math — both the fold
    and expand loops of every transport call it, so the two directions can
    never drift apart again.
    """
    if rows.size == 0:
        return 0, 0
    layer = part.layer_of_index(mode, int(rows[0]))
    lo, hi = part.row_block(mode, layer)
    layer_size = grid.layer_size(mode, layer)
    own = (hi - lo) // max(layer_size, 1)
    sent = max(int(rows.size) - own, 0)
    return sent, max(layer_size - 1, 0)


def fold_exchange(stats: CommStats, mode: int, rows: int, messages: int) -> None:
    """One metered fold (reduce-scatter) exchange, fault-injectable at the
    ``comm.fold`` site."""
    _resilient_send(stats, "comm.fold", messages)
    stats.record_fold(mode, rows, messages)


def expand_exchange(stats: CommStats, mode: int, rows: int, messages: int) -> None:
    """One metered expand (allgather) exchange, fault-injectable at the
    ``comm.expand`` site."""
    _resilient_send(stats, "comm.expand", messages)
    stats.record_expand(mode, rows, messages)
