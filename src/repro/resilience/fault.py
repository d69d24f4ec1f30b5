"""Deterministic fault injection: seeded or targeted simulated failures.

Long CP-ALS runs on failure-prone machines die in the middle of a tasking
dispatch or a fold/expand exchange, not at a convenient iteration boundary.
To *test* the retry/degradation/checkpoint machinery we need failures that
are (a) injected at the real dispatch sites and (b) perfectly reproducible.
A :class:`FaultPlan` provides both:

* **targeted** faults — ``targets=[("pool.dispatch", 3)]`` fails exactly
  the third arrival at the ``pool.dispatch`` site and nothing else;
* **probabilistic** faults — ``probability=0.05, seed=7`` fails each
  matching arrival with a seeded Bernoulli draw, so a given plan always
  fails the same arrivals in a serial execution order.

A plan is installed for a ``with`` block via :class:`inject_faults` into
the one instrumentation slot, :data:`repro.probe.current`; docs/RUNTIME.md
lists the events that reach it and docs/RESILIENCE.md the fault sites
(``tasking.coforall``, ``pool.dispatch``, ``pool.task``,
``schedule.chunk``, ``comm.fold``, ``comm.expand``, ``serve.job``).  A
firing site raises :class:`InjectedFault`, which the resilience policies
in :mod:`repro.resilience.retry` know how to retry or degrade around;
every injection is counted on the active trace recorder as the
``fault.injected`` counter.
"""

from __future__ import annotations

import threading
from fnmatch import fnmatchcase
from typing import Iterable, Sequence

import numpy as np

from repro import probe as _probe
from repro.observe import spans as _obs

__all__ = ["InjectedFault", "FaultPlan", "inject_faults", "active_plan"]


class InjectedFault(RuntimeError):
    """A simulated infrastructure failure raised by a firing fault site.

    Distinct from any real error type so that retry policies can tell
    "the (simulated) machine broke" apart from "the task body is buggy":
    only :class:`InjectedFault` is retried; user exceptions propagate.
    """

    def __init__(self, site: str, occurrence: int):
        super().__init__(f"injected fault at {site!r} (occurrence {occurrence})")
        self.site = site
        self.occurrence = occurrence
        #: Cleared by a handler when replaying the failed operation would
        #: lose or double-apply work (e.g. an already-claimed schedule
        #: chunk); the tasking layer's dispatch retry honors it.
        self.retry_safe = True


class FaultPlan:
    """A deterministic schedule of simulated failures.

    Parameters
    ----------
    targets:
        ``(site, occurrence)`` pairs; the plan fails exactly the
        ``occurrence``-th (1-based) arrival at ``site``.
    probability:
        Per-arrival failure probability for sites matching ``sites``
        (0 disables the probabilistic mode).
    sites:
        ``fnmatch`` pattern (or sequence of patterns) selecting which
        sites the probabilistic mode applies to.  Targeted faults ignore
        this filter.
    seed:
        Seed for the probabilistic draws — same plan, same execution
        order, same failures.
    max_failures:
        Optional cap on total injections (useful with ``probability`` to
        model a bounded burst of failures).

    Thread safety: arrival counting and the RNG draw happen under one
    lock, so concurrent pokes from pool workers see consistent occurrence
    numbers.  All counters survive the plan's ``with`` block for
    post-mortem assertions (``arrivals``, ``injected``,
    ``faults_injected``).
    """

    def __init__(
        self,
        *,
        targets: Iterable[tuple[str, int]] = (),
        probability: float = 0.0,
        sites: str | Sequence[str] = "*",
        seed: int | None = 0,
        max_failures: int | None = None,
    ):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.targets = frozenset((str(s), int(n)) for s, n in targets)
        for site, occurrence in self.targets:
            if occurrence < 1:
                raise ValueError(f"occurrence for {site!r} must be >= 1 (got {occurrence})")
        self.probability = probability
        self.site_patterns: tuple[str, ...] = (
            (sites,) if isinstance(sites, str) else tuple(sites)
        )
        self.max_failures = max_failures
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._arrivals: dict[str, int] = {}
        #: ``(site, occurrence)`` pairs that actually fired, in order.
        self.injected: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    def _matches(self, site: str) -> bool:
        return any(fnmatchcase(site, pat) for pat in self.site_patterns)

    def arrivals(self, site: str | None = None) -> int | dict[str, int]:
        """Arrival count for one site (or the full per-site dict)."""
        with self._lock:
            if site is None:
                return dict(self._arrivals)
            return self._arrivals.get(site, 0)

    @property
    def faults_injected(self) -> int:
        """Total failures fired so far."""
        with self._lock:
            return len(self.injected)

    def reset(self) -> None:
        """Clear arrival counts and injection history (not the RNG)."""
        with self._lock:
            self._arrivals.clear()
            self.injected.clear()

    # ------------------------------------------------------------------
    def poke(self, site: str) -> None:
        """Record an arrival at ``site``; raise :class:`InjectedFault` if
        the plan schedules a failure for it."""
        with self._lock:
            occurrence = self._arrivals.get(site, 0) + 1
            self._arrivals[site] = occurrence
            fire = (site, occurrence) in self.targets
            if not fire and self.probability > 0.0 and self._matches(site):
                fire = bool(self._rng.random() < self.probability)
            if fire and self.max_failures is not None and len(self.injected) >= self.max_failures:
                fire = False
            if fire:
                self.injected.append((site, occurrence))
        if fire:
            _obs.count("fault.injected")
            raise InjectedFault(site, occurrence)


def active_plan() -> FaultPlan | None:
    """The installed :class:`FaultPlan`, or ``None``."""
    p = _probe.current
    return None if p is None else p.plan


def poke(site: str) -> None:
    """Poke ``site`` on the active plan (no-op when injection is off)."""
    p = _probe.current
    if p is not None:
        p.fault(site)


class inject_faults:
    """Install a :class:`FaultPlan` for a ``with`` block::

        plan = FaultPlan(targets=[("pool.dispatch", 2)])
        with inject_faults(plan):
            cp_als(x, rank=8, options=opts)   # 2nd pool dispatch fails

    Nesting restores the previous plan on exit; the installed plan is
    process-global (like the trace recorder), so inject into one region
    at a time.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._prev: FaultPlan | None = None

    def __enter__(self) -> FaultPlan:
        self._prev = _probe.install("plan", self.plan)
        return self.plan

    def __exit__(self, *exc) -> bool:
        _probe.install("plan", self._prev)
        self._prev = None
        return False
