"""Deterministic concurrency sanitizer for the simulated tasking runtime.

The paper's Fig-4 story rests on the claim that the mutex pool makes the
parallel MTTKRP scatter race-free under both ``sync`` and ``atomic`` locks
(§IV-A, Listing 6).  This module can *prove* it for a run, instead of
observing that fits happen to match: the runtime's primitives
(``coforall`` fork/join and the lock pools) and the MTTKRP scatter
kernels report their events to an installed :class:`Sanitizer`, which
maintains

* a **vector clock** per task (fork/join are the happens-before edges —
  see :mod:`repro.sanitize.clocks`),
* a **lockset** per task (which pool locks it currently holds), and
* **shadow state** per instrumented array row (the last write and reads
  per task, with the lockset each was performed under).

Two accesses to the same row race when neither happened before the other,
they hold no lock in common, and at least one is a write — the classic
happens-before × lockset hybrid.  Lock acquire/release deliberately does
*not* create happens-before edges (only mutual exclusion): that is what
makes the verdict a property of the program's logical structure rather
than of the interleaving the OS happened to pick, so the same run
produces the same report every time.  Findings that depend on dynamic
schedules can still vary across runs; docs/SANITIZER.md spells out which
guarantees hold where.

On top of the race detector sit a **lock-order graph** (ABBA deadlock
potential, :mod:`repro.sanitize.lockgraph`), **outstanding-wait tracking**
(lost wakeups, surfaced by :meth:`Sanitizer.run_watched`), and an optional
seeded **schedule-perturbation fuzzer** (:mod:`repro.sanitize.fuzz`).

Disabled cost: the sanitizer lives in the one instrumentation slot,
:data:`repro.probe.current`, which every site tests inline; the cost is
bounded by ``benchmarks/test_perf_trace_overhead.py``.  docs/RUNTIME.md
lists the events that reach the sanitizer.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro import probe as _probe
from repro.observe import spans as _obs
from repro.sanitize.clocks import VectorClock
from repro.sanitize.fuzz import SchedulePerturber
from repro.sanitize.lockgraph import LockOrderGraph

__all__ = [
    "RaceFinding",
    "RaceReport",
    "Sanitizer",
    "sanitizing",
    "active_sanitizer",
    "enabled",
    "pause",
]

def enabled() -> bool:
    """True when a sanitizer is installed."""
    return active_sanitizer() is not None


def active_sanitizer() -> "Sanitizer | None":
    """The installed :class:`Sanitizer`, or ``None``."""
    p = _probe.current
    return None if p is None else p.sanitizer


def pause(site: str) -> None:
    """Fuzzer perturbation point: maybe inject a deterministic delay.

    No-op unless a sanitizer with a schedule perturber is installed — the
    disabled path is one slot read and one ``is None`` test.
    """
    p = _probe.current
    if p is not None:
        p.pause(site)


# ======================================================================
# findings
# ======================================================================
@dataclass
class RaceFinding:
    """One deduplicated sanitizer finding.

    ``kind`` is ``"data-race"``, ``"lock-order"`` or ``"lost-wakeup"``.
    For data races, ``sites`` / ``tasks`` are the normalized (sorted)
    pair involved, ``rows`` the sorted racy row indices and ``count`` the
    number of racy access pairs folded into this finding.
    """

    kind: str
    array: str
    sites: tuple[str, ...]
    tasks: tuple[int, ...] = ()
    rows: tuple[int, ...] = ()
    count: int = 0
    detail: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        head = f"[{self.kind}] {self.array}"
        if self.sites:
            head += f" at {' <-> '.join(self.sites)}"
        parts = [head]
        if self.rows:
            shown = ", ".join(str(r) for r in self.rows[:8])
            more = f", ... ({len(self.rows)} rows)" if len(self.rows) > 8 else ""
            parts.append(f"rows [{shown}{more}]")
        if self.tasks:
            parts.append(f"tasks {list(self.tasks)}")
        if self.count:
            parts.append(f"{self.count} racy pair(s)")
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)


class RaceReport:
    """The sanitizer's verdict for one sanitized region."""

    def __init__(self, findings: list[RaceFinding], *, stats: dict[str, int]):
        self.findings = findings
        self.stats = stats

    @property
    def ok(self) -> bool:
        """True when the region is certified clean (no findings)."""
        return not self.findings

    def by_kind(self, kind: str) -> list[RaceFinding]:
        return [f for f in self.findings if f.kind == kind]

    def fingerprint(self) -> tuple:
        """The schedule-independent projection of the findings.

        ``(kind, array, sites, rows, count)`` per finding, sorted — for a
        fixed program and fuzz seed this tuple is identical across runs
        (the determinism the tests pin down).  Task ids are excluded: which
        concrete task pair trips a race first is the scheduler's choice,
        even though *whether* it trips is not.
        """
        return tuple(
            sorted((f.kind, f.array, f.sites, f.rows, f.count) for f in self.findings)
        )

    def summary(self) -> str:
        races = len(self.by_kind("data-race"))
        orders = len(self.by_kind("lock-order"))
        lost = len(self.by_kind("lost-wakeup"))
        if self.ok:
            return (
                "sanitizer: clean "
                f"({self.stats['accesses']} accesses, "
                f"{self.stats['lock_events']} lock events, "
                f"{self.stats['tasks']} tasks checked)"
            )
        return (
            f"sanitizer: {len(self.findings)} finding(s) — "
            f"{races} data race(s), {orders} lock-order cycle(s), "
            f"{lost} lost wakeup(s)"
        )

    def render(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  {i + 1}. {f.describe()}" for i, f in enumerate(self.findings))
        return "\n".join(lines)


# ======================================================================
# the sanitizer
# ======================================================================
class _Task:
    """One logical task timeline: its vector clock and held locks."""

    __slots__ = ("id", "label", "clock", "held")

    def __init__(self, task_id: int, label: str, clock: VectorClock):
        self.id = task_id
        self.label = label
        self.clock = clock
        self.held: list[tuple] = []


class _TaskScope:
    """Binds a forked task to the executing thread for a ``with`` block."""

    __slots__ = ("_san", "_task")

    def __init__(self, san: "Sanitizer", task: _Task):
        self._san = san
        self._task = task

    def __enter__(self) -> _Task:
        self._san._push_task(self._task)
        if self._san.perturber is not None:
            self._san.perturber.pause("task.begin")
        return self._task

    def __exit__(self, *exc) -> bool:
        self._san._pop_task(self._task)
        return False


class Sanitizer:
    """Vector-clock happens-before race detector with lockset filtering.

    Install with :class:`sanitizing`; the runtime and the scatter kernels
    find the instance through the probe slot and report fork/join,
    lock, wait and array-access events.  Call
    :meth:`report` afterwards for the verdict.

    Parameters
    ----------
    seed:
        When not ``None``, attach a :class:`SchedulePerturber` with this
        seed so the sanitized region is also driven through adversarial
        interleavings.  ``None`` (default) detects without perturbing.
    max_findings:
        Stop recording new distinct findings past this count (the shadow
        state keeps updating so locksets stay sound).
    """

    def __init__(self, *, seed: int | None = None, max_findings: int = 256):
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count()
        self._threads_seen: dict[int, _Task] = {}
        #: shadow[array key][row] -> {(task, write, lockset): timestamp}
        self._shadow: dict[int, dict[int, dict[tuple, int]]] = {}
        self._array_names: dict[int, str] = {}
        self._findings: dict[tuple, RaceFinding] = {}
        self.lock_graph = LockOrderGraph()
        self.perturber = SchedulePerturber(seed) if seed is not None else None
        self._waits: dict[tuple, dict[int, str]] = {}
        self.accesses = 0
        self.lock_events = 0
        self.tasks_created = 0
        self.max_findings = max_findings

    # ------------------------------------------------------------------
    # task timelines
    # ------------------------------------------------------------------
    def _new_task(self, label: str, clock: VectorClock) -> _Task:
        with self._lock:
            task = _Task(next(self._ids), label, clock)
            self.tasks_created += 1
        task.clock.tick(task.id)
        return task

    def _stack(self) -> list[_Task]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current_task(self) -> _Task:
        """The task bound to the calling thread.

        A thread with no bound task (the main thread, or a stray worker)
        lazily gets its own root task.  Distinct unbound threads get
        *concurrent* timelines — the safe default: accesses from threads
        the runtime never forked are treated as unordered.
        """
        stack = self._stack()
        if stack:
            return stack[-1]
        ident = threading.get_ident()
        task = self._threads_seen.get(ident)
        if task is None:
            task = self._new_task(f"root@{len(self._threads_seen)}", VectorClock())
            self._threads_seen[ident] = task
        return task

    def _push_task(self, task: _Task) -> None:
        self._stack().append(task)

    def _pop_task(self, task: _Task) -> None:
        stack = self._stack()
        if stack and stack[-1] is task:
            stack.pop()
        else:  # pragma: no cover - defensive, mirrors the span stack
            try:
                stack.remove(task)
            except ValueError:
                pass

    def fork(self, ntasks: int, label: str = "coforall") -> list[_Task]:
        """Fork ``ntasks`` child timelines off the calling task.

        Children inherit the parent's clock (everything the parent did so
        far happened before every child) and are mutually concurrent.
        Returns the handles in tid order; run each body inside
        ``with san.task(handle):`` and close with :meth:`join`.
        """
        parent = self.current_task()
        parent.clock.tick(parent.id)
        base = parent.clock.copy()
        return [self._new_task(f"{label}[{tid}]", base.copy()) for tid in range(ntasks)]

    def task(self, handle: _Task) -> _TaskScope:
        """Context manager binding ``handle`` to the executing thread."""
        return _TaskScope(self, handle)

    def join(self, handles: Iterable[_Task]) -> None:
        """Join child timelines back into the calling task (barrier)."""
        parent = self.current_task()
        for child in handles:
            parent.clock.join(child.clock)
        parent.clock.tick(parent.id)

    # ------------------------------------------------------------------
    # locks
    # ------------------------------------------------------------------
    def on_acquire(self, token: tuple, site: str) -> None:
        """A lock identified by ``token`` is now held by the calling task."""
        task = self.current_task()
        for held in task.held:
            self.lock_graph.add_edge(held, token, site)
        task.held.append(token)
        with self._lock:
            self.lock_events += 1

    def on_release(self, token: tuple) -> None:
        """The calling task releases ``token`` (last-acquired occurrence)."""
        task = self.current_task()
        for i in range(len(task.held) - 1, -1, -1):
            if task.held[i] == token:
                del task.held[i]
                break
        with self._lock:
            self.lock_events += 1

    # ------------------------------------------------------------------
    # waits (lost-wakeup detection)
    # ------------------------------------------------------------------
    def wait_begin(self, key: tuple, what: str) -> None:
        """The calling task starts blocking on ``key`` (wants ``what``)."""
        task = self.current_task()
        with self._lock:
            self._waits.setdefault(key, {})[task.id] = what

    def wait_end(self, key: tuple) -> None:
        """The calling task's block on ``key`` completed."""
        task = self.current_task()
        with self._lock:
            waiters = self._waits.get(key)
            if waiters is not None:
                waiters.pop(task.id, None)

    def pending_waits(self) -> list[tuple[tuple, int, str]]:
        """Outstanding blocked waits as ``(key, task id, wanted state)``."""
        with self._lock:
            return sorted(
                (key, task_id, what)
                for key, waiters in self._waits.items()
                for task_id, what in waiters.items()
            )

    def run_watched(self, fn: Callable[[], Any], timeout: float = 5.0):
        """Run ``fn`` under a watchdog; convert a hang into findings.

        A genuinely lost wakeup never returns, so it cannot be diagnosed
        from the blocked thread.  ``run_watched`` executes ``fn`` on a
        daemon thread and joins with ``timeout``; on expiry every
        outstanding wait becomes a ``lost-wakeup`` finding and ``None``
        is returned (the stuck thread is left to the caller, which
        normally unblocks it explicitly and joins).  On normal completion
        the callable's result is returned (its exception re-raised).
        """
        box: dict[str, Any] = {}

        def runner() -> None:
            try:
                box["result"] = fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["error"] = exc

        thread = threading.Thread(target=runner, daemon=True, name="san-watched")
        thread.start()
        thread.join(timeout)
        if thread.is_alive():
            for key, task_id, what in self.pending_waits():
                self._add_finding(
                    kind="lost-wakeup",
                    array=self._key_label(key),
                    sites=(f"blocked waiting for {what}",),
                    tasks=(task_id,),
                    detail="watchdog expired with this wait outstanding",
                )
            if not self.pending_waits():
                self._add_finding(
                    kind="lost-wakeup",
                    array="<unknown>",
                    sites=("watchdog timeout",),
                    detail="watched callable hung outside instrumented waits",
                )
            return None
        if "error" in box:
            raise box["error"]
        return box.get("result")

    # ------------------------------------------------------------------
    # shadow memory
    # ------------------------------------------------------------------
    def register_array(self, array: np.ndarray, name: str) -> None:
        """Give ``array`` a readable name in race reports."""
        with self._lock:
            self._array_names[id(array)] = name

    def _name_of(self, array: np.ndarray) -> str:
        return self._array_names.get(id(array), f"ndarray#{id(array) & 0xFFFF:04x}")

    @staticmethod
    def _key_label(key: tuple) -> str:
        return "/".join(str(part) for part in key)

    def on_access(
        self,
        array: np.ndarray,
        rows,
        *,
        write: bool,
        site: str,
        name: str | None = None,
    ) -> None:
        """Record accesses to ``array``'s ``rows`` by the calling task.

        ``rows`` is an int or an integer array; duplicate rows collapse
        (same task, same lockset — one shadow entry).  Each new access is
        checked against every stored access to the same row from another
        task: concurrent clocks + disjoint locksets + at least one write
        ⇒ data race.
        """
        task = self.current_task()
        lockset = frozenset(task.held)
        if name is not None:
            self.register_array(array, name)
        rows = np.atleast_1d(np.asarray(rows))
        if rows.size == 0:
            return
        unique_rows = np.unique(rows)
        with self._lock:
            timestamp = task.clock.get(task.id)
            shadow = self._shadow.setdefault(id(array), {})
            self.accesses += int(unique_rows.size)
            racy_rows: list[int] = []
            other_ids: set[int] = set()
            entry_key = (task.id, write, lockset)
            for row in unique_rows:
                row = int(row)
                cell = shadow.get(row)
                if cell is None:
                    shadow[row] = {entry_key: timestamp}
                    continue
                for (other_id, other_write, other_locks), other_ts in cell.items():
                    if other_id == task.id:
                        continue
                    if not (write or other_write):
                        continue
                    if not lockset.isdisjoint(other_locks):
                        continue
                    if task.clock.covers(other_id, other_ts):
                        continue
                    # One detection per racy (task, row) pair, whichever
                    # conflicting entry is hit first — each row is counted
                    # once per access event, independent of dict order, so
                    # aggregate counts are schedule-independent.
                    racy_rows.append(row)
                    other_ids.add(other_id)
                    break
                cell[entry_key] = timestamp
        if racy_rows:
            arr_name = name if name is not None else self._name_of(array)
            self._add_finding(
                kind="data-race",
                array=arr_name,
                sites=(site,),
                tasks=tuple(sorted({task.id, *other_ids})),
                rows=tuple(racy_rows),
                count=len(racy_rows),
            )

    # ------------------------------------------------------------------
    # findings
    # ------------------------------------------------------------------
    def _add_finding(
        self,
        *,
        kind: str,
        array: str,
        sites: tuple[str, ...],
        tasks: tuple[int, ...] = (),
        rows: tuple[int, ...] = (),
        count: int = 0,
        detail: str = "",
        **attrs: Any,
    ) -> None:
        # Dedup on the schedule-independent identity (kind, array, sites);
        # task ids and row sets from repeated detections merge in, so the
        # report is a function of the logical access structure.
        dedup = (kind, array, tuple(sorted(sites)))
        with self._lock:
            finding = self._findings.get(dedup)
            if finding is None:
                if len(self._findings) >= self.max_findings:
                    return
                finding = RaceFinding(
                    kind=kind, array=array, sites=tuple(sorted(sites)),
                    tasks=tasks, rows=tuple(sorted(set(rows))),
                    count=count, detail=detail, attrs=dict(attrs),
                )
                self._findings[dedup] = finding
                is_new = True
            else:
                finding.rows = tuple(sorted(set(finding.rows) | set(rows)))
                finding.tasks = tuple(sorted(set(finding.tasks) | set(tasks)))
                finding.count += count
                is_new = False
        rec = _obs.active_recorder()
        if rec is not None:
            rec.count("sanitize.findings")
            if is_new:
                # a zero-length span so the race lands on the Chrome trace
                # timeline at the moment of detection, with its details.
                with rec.span(
                    "sanitize.race",
                    {"kind": kind, "array": array, "sites": list(sites),
                     "rows": list(rows[:8]), "count": count},
                ):
                    pass

    def report(self) -> RaceReport:
        """The verdict so far: deterministic, sorted findings + stats.

        Lock-order cycles are computed here from the accumulated graph;
        outstanding waits are *not* auto-flagged (a still-running region
        legitimately has blocked tasks) — use :meth:`run_watched` to
        convert hangs into findings.
        """
        with self._lock:
            findings = list(self._findings.values())
            stats = {
                "accesses": self.accesses,
                "lock_events": self.lock_events,
                "tasks": self.tasks_created,
                "arrays": len(self._shadow),
            }
        for cycle in self.lock_graph.cycles():
            label = " -> ".join(self._key_label(tok) for tok in cycle + cycle[:1])
            findings.append(
                RaceFinding(
                    kind="lock-order", array=label,
                    sites=("lock acquisition order",),
                    detail="cycle in the lock-order graph (ABBA deadlock potential)",
                )
            )
        findings.sort(key=lambda f: (f.kind, f.array, f.sites, f.rows))
        return RaceReport(findings, stats=stats)


# ======================================================================
# installation
# ======================================================================
class sanitizing:
    """Install a :class:`Sanitizer` for a ``with`` block::

        with sanitizing(seed=7) as san:
            mttkrp_csf(csf_set, factors, 1, layer=layer, force_locks=True)
        report = san.report()
        assert report.ok, report.render()

    ``seed`` also arms the schedule-perturbation fuzzer; omit it to detect
    on the natural schedule.  Nesting restores the previous sanitizer; the
    installed instance is process-global (like the trace recorder and the
    fault plan), so sanitize one region at a time.
    """

    def __init__(self, *, seed: int | None = None, sanitizer: Sanitizer | None = None):
        self.sanitizer = sanitizer if sanitizer is not None else Sanitizer(seed=seed)
        self._prev: Sanitizer | None = None

    def __enter__(self) -> Sanitizer:
        self._prev = _probe.install("sanitizer", self.sanitizer)
        return self.sanitizer

    def __exit__(self, *exc) -> bool:
        _probe.install("sanitizer", self._prev)
        self._prev = None
        rec = _obs.active_recorder()
        if rec is not None:
            rec.gauge("sanitize.accesses", self.sanitizer.accesses)
            rec.gauge("sanitize.tasks", self.sanitizer.tasks_created)
        return False
