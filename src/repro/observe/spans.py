"""Structured tracing core: nestable, thread-aware spans and counters.

The paper attributes every second of Figs 1-10 to a *named* piece of work
(sorting, MTTKRP row access, mutex contention, Qthreads interference); this
module gives the reproduction the same vocabulary.  A **span** is one timed
region with a name, attributes and a parent; the runtime and kernels open
spans around tasking-layer dispatches, MTTKRP sweeps and algorithm
iterations, and the active :class:`TraceRecorder` collects them into
per-thread timelines plus aggregate metrics.

Design constraints (see docs/OBSERVABILITY.md):

* **Near-zero overhead when disabled.**  The recorder lives in the one
  instrumentation slot, :data:`repro.probe.current` (docs/RUNTIME.md lists
  the events that reach it).  Hot call sites test the slot inline; the
  rest call :func:`span`, which returns a shared no-op context manager
  when tracing is off — no allocation, no locking, no clock read.
* **Thread-aware.**  Spans are stacked per thread (``threading.local``),
  so a ``coforall`` task body traced on a pool worker lands on that
  worker's timeline.  Cross-thread causality (dispatch → task) is kept via
  an explicit ``parent_id`` on the task spans.
* **Non-perturbing.**  Recorders never touch the arrays or factor state of
  the computation; enabling tracing must not change any numeric result
  (asserted by the property suite).

Use :class:`tracing` (re-exported from :mod:`repro.observe`) to install a
recorder for a ``with`` block, or pass ``--trace PATH`` to the CLI.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import probe as _probe

__all__ = [
    "SpanRecord",
    "TraceRecorder",
    "tracing",
    "span",
    "count",
    "gauge",
    "enabled",
    "active_recorder",
]

def enabled() -> bool:
    """True when a recorder is installed (tracing is on)."""
    return active_recorder() is not None


def active_recorder() -> "TraceRecorder | None":
    """The installed recorder, or ``None``."""
    p = _probe.current
    return None if p is None else p.recorder


class _NullSpan:
    """Shared no-op span: the disabled-path return value of :func:`span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> "_NullSpan":
        return self

    def set_attrs(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any):
    """Open a span named ``name`` (context manager).

    Returns the shared no-op span when tracing is disabled, so call sites
    can unconditionally write ``with observe.span("sort"): ...``.
    """
    p = _probe.current
    if p is None or p.recorder is None:
        return NULL_SPAN
    return p.recorder.span(name, attrs)  # reprolint: allow(span-no-ctx) — span() is the factory; every call site enters the returned context manager


def count(name: str, n: int | float = 1) -> None:
    """Increment counter ``name`` by ``n`` on the active recorder (if any)."""
    p = _probe.current
    if p is not None:
        p.count(name, n)


def gauge(name: str, value: Any) -> None:
    """Set gauge ``name`` to ``value`` on the active recorder (if any)."""
    rec = active_recorder()
    if rec is not None:
        rec.gauge(name, value)


@dataclass
class SpanRecord:
    """One finished span.

    ``start``/``end`` are recorder-clock seconds (``time.perf_counter`` by
    default); ``tid`` is a compact per-recorder thread id (0 = the first
    thread seen, normally the main thread); ``parent`` is the id of the
    enclosing span or ``None`` for a root.
    """

    id: int
    name: str
    tid: int
    start: float
    end: float
    parent: int | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _LiveSpan:
    """An open span; records itself on ``__exit__``."""

    __slots__ = ("_rec", "name", "attrs", "id", "_parent", "_tid", "_start")

    def __init__(self, rec: "TraceRecorder", name: str, attrs: dict[str, Any],
                 parent_id: int | None):
        self._rec = rec
        self.name = name
        self.attrs = attrs
        self.id = -1
        self._parent = parent_id
        self._tid = -1
        self._start = 0.0

    def set_attr(self, key: str, value: Any) -> "_LiveSpan":
        self.attrs[key] = value
        return self

    def set_attrs(self, **attrs: Any) -> "_LiveSpan":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        self._rec._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._rec._exit(self)
        return False


class TraceRecorder:
    """Collects spans, counters and gauges for one traced region.

    Spans nest per thread; :meth:`span_tree` reassembles the global tree
    (cross-thread edges included), :meth:`metrics` flattens everything into
    a plain dict, and :meth:`chrome_trace` renders Chrome-trace-format JSON
    loadable by ``chrome://tracing`` and Perfetto.
    """

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, Any] = {}
        self._tls = threading.local()
        self._next_id = 0
        self._threads: dict[int, int] = {}
        self._thread_names: dict[int, str] = {}
        #: Total recorder events (span completions + counter/gauge updates);
        #: the overhead benchmark uses this to bound the disabled-path cost.
        self.events_recorded = 0
        self.t0 = clock()

    # ------------------------------------------------------------------
    def _thread_id(self) -> int:
        ident = threading.get_ident()
        tid = self._threads.get(ident)
        if tid is None:
            with self._lock:
                tid = self._threads.setdefault(ident, len(self._threads))
                self._thread_names.setdefault(tid, threading.current_thread().name)
        return tid

    def _stack(self) -> list["_LiveSpan"]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def span(self, name: str, attrs: dict[str, Any] | None = None,
             *, parent_id: int | None = None) -> _LiveSpan:
        """Open a span; ``parent_id`` overrides the per-thread nesting
        (used for cross-thread dispatch → task edges)."""
        return _LiveSpan(self, name, dict(attrs) if attrs else {}, parent_id)

    def _enter(self, live: _LiveSpan) -> None:
        stack = self._stack()
        if live._parent is None and stack:
            live._parent = stack[-1].id
        with self._lock:
            live.id = self._next_id
            self._next_id += 1
        live._tid = self._thread_id()
        stack.append(live)
        live._start = self._clock()  # last, so setup cost stays outside

    def _exit(self, live: _LiveSpan) -> None:
        end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is live:
            stack.pop()
        else:  # tolerate out-of-order exits rather than corrupting the stack
            try:
                stack.remove(live)
            except ValueError:
                pass
        record = SpanRecord(
            id=live.id, name=live.name, tid=live._tid,
            start=live._start, end=end, parent=live._parent, attrs=live.attrs,
        )
        with self._lock:
            self._records.append(record)
            self.events_recorded += 1

    # ------------------------------------------------------------------
    def count(self, name: str, n: int | float = 1) -> None:
        """Thread-safe monotone counter increment."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
            self.events_recorded += 1

    def gauge(self, name: str, value: Any) -> None:
        """Thread-safe last-value gauge."""
        with self._lock:
            self._gauges[name] = value
            self.events_recorded += 1

    def absorb(self, metrics: dict[str, float], *, prefix: str = "") -> None:
        """Merge an external flat numeric metrics dict into the counters.

        The multi-process transport uses this to fold each locale worker's
        span/counter summary (collected by a recorder in *that* process)
        into the driver's trace as ``{prefix}{name}`` counters — the
        per-locale numbers then ride along in :meth:`metrics`, the Chrome
        trace export and every downstream consumer.  Non-numeric values
        are ignored; counts accumulate across repeated absorbs.
        """
        with self._lock:
            for name, value in metrics.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                key = f"{prefix}{name}"
                self._counters[key] = self._counters.get(key, 0) + value
                self.events_recorded += 1

    # ------------------------------------------------------------------
    def finished_spans(self) -> list[SpanRecord]:
        """Completed spans, ordered by start time."""
        with self._lock:
            records = list(self._records)
        records.sort(key=lambda r: (r.start, r.id))
        return records

    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._gauges)

    def thread_names(self) -> dict[int, str]:
        """Compact tid → thread name, for exporters."""
        with self._lock:
            return dict(self._thread_names)

    def span_tree(self) -> list[dict[str, Any]]:
        """The finished spans as a forest of nested dicts.

        Each node is ``{"name", "tid", "start", "duration", "attrs",
        "children"}`` with children ordered by start time.  Spans whose
        parent never finished (or was recorded out of order) become roots.
        """
        records = self.finished_spans()
        nodes: dict[int, dict[str, Any]] = {}
        for r in records:
            nodes[r.id] = {
                "name": r.name,
                "tid": r.tid,
                "start": r.start - self.t0,
                "duration": r.duration,
                "attrs": dict(r.attrs),
                "children": [],
            }
        roots: list[dict[str, Any]] = []
        for r in records:
            node = nodes[r.id]
            if r.parent is not None and r.parent in nodes:
                nodes[r.parent]["children"].append(node)
            else:
                roots.append(node)
        return roots

    def metrics(self) -> dict[str, Any]:
        """Flat metrics dict: per-span-name totals, counters and gauges.

        Keys are dotted: ``span.<name>.count`` / ``span.<name>.total_s``,
        ``counter.<name>``, ``gauge.<name>`` — the shape benchmarks and
        regression checks consume (docs/OBSERVABILITY.md).
        """
        out: dict[str, Any] = {}
        per_name: dict[str, tuple[int, float]] = {}
        for r in self.finished_spans():
            n, total = per_name.get(r.name, (0, 0.0))
            per_name[r.name] = (n + 1, total + r.duration)
        for name, (n, total) in sorted(per_name.items()):
            out[f"span.{name}.count"] = n
            out[f"span.{name}.total_s"] = total
        for name, value in sorted(self.counters().items()):
            out[f"counter.{name}"] = value
        for name, value in sorted(self.gauges().items()):
            out[f"gauge.{name}"] = value
        return out

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict[str, Any]:
        """Chrome-trace-format JSON object (see :mod:`repro.observe.export`)."""
        from repro.observe.export import chrome_trace

        return chrome_trace(self)

    def write(self, path) -> None:
        """Write :meth:`chrome_trace` as JSON to ``path``."""
        from repro.observe.export import write_chrome_trace

        write_chrome_trace(self, path)


class tracing:
    """Install a recorder for a ``with`` block::

        with tracing() as tr:
            repro.cp_als(x, rank=16)
        tr.metrics()                       # flat dict
        tr.write("trace.json")             # chrome://tracing / Perfetto

    ``tracing("trace.json")`` writes the Chrome trace automatically on
    exit.  Nesting is allowed (the previous recorder is restored); the
    installed recorder is process-global, so trace one region at a time.
    """

    def __init__(self, path=None, *, recorder: TraceRecorder | None = None):
        self.path = path
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self._prev: TraceRecorder | None = None

    def __enter__(self) -> TraceRecorder:
        self._prev = _probe.install("recorder", self.recorder)
        return self.recorder

    def __exit__(self, *exc) -> bool:
        _probe.install("recorder", self._prev)
        self._prev = None
        if self.path is not None:
            self.recorder.write(self.path)
        return False
