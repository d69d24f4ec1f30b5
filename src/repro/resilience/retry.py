"""Retry-with-backoff and graceful-degradation policies.

A :class:`RetryPolicy` describes how the runtime reacts to an
:class:`~repro.resilience.fault.InjectedFault` (or, more generally, any
exception type listed in ``retry_on``):

* retry the failed operation up to ``max_retries`` times, with an
  exponential *simulated* backoff — by default the backoff seconds are
  only **accounted** (into :class:`~repro.distributed.comm.CommStats`,
  the tasking layer's counters and the ``retry.backoff_s`` trace
  counter), not slept, so tests stay fast; set ``sleep=True`` to really
  wait;
* once retries are exhausted, optionally **degrade**: the tasking layer
  falls back to running the coforall's tasks serially inline, and the
  simulated fold/expand exchanges fall back to a degraded transport
  (metered as ``degraded_exchanges``), instead of killing the run.

Real errors raised by task bodies are never retried — only the exception
types in ``retry_on`` — so a buggy kernel still fails fast.  Every site
retries through :meth:`repro.probe.Probe.retry`, the one retry loop.

**Idempotency caveat**: dispatch-level sites (``tasking.coforall``,
``pool.dispatch``, ``comm.*``) fire *before* any task body runs, so
retrying them is always safe.  Task-level sites (``pool.task``) fire
after sibling tasks may have done work; retrying a dispatch whose bodies
mutate shared state non-idempotently (e.g. lock-protected accumulation)
can double-apply that work.  Use task-level injection to test error
*propagation*, and dispatch-level injection to test *recovery* (see
docs/RESILIENCE.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import probe as _probe
from repro.observe import spans as _obs
from repro.resilience.fault import InjectedFault

__all__ = ["RetryPolicy", "retrying", "active_policy"]

#: Real sleeps are capped so a mis-configured policy can't hang a test run.
_MAX_REAL_SLEEP_S = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """How to react to a retryable failure.

    Attributes
    ----------
    max_retries:
        Retries per operation after the initial attempt.
    backoff_base:
        Simulated seconds before the first retry.
    backoff_factor:
        Multiplier applied per subsequent retry (exponential backoff).
    sleep:
        ``True`` really sleeps (capped at 50 ms per wait); ``False``
        (default) only accounts the backoff.
    degrade:
        After retries are exhausted: tasking layers run the loop
        serially, comm exchanges complete on the degraded transport.
        ``False`` re-raises instead.
    retry_on:
        Exception types eligible for retry/degradation.
    """

    max_retries: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    sleep: bool = False
    degrade: bool = True
    retry_on: tuple[type[BaseException], ...] = field(default=(InjectedFault,))

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Simulated backoff before retry ``attempt`` (0-based)."""
        return self.backoff_base * self.backoff_factor**attempt

    def handles(self, exc: BaseException) -> bool:
        """True when ``exc`` is eligible for retry under this policy."""
        return isinstance(exc, self.retry_on)

    def pause(self, backoff_s: float) -> None:
        """Wait out one backoff period (really, only when ``sleep``)."""
        _obs.count("retry.backoff_s", backoff_s)
        if self.sleep and backoff_s > 0:
            time.sleep(min(backoff_s, _MAX_REAL_SLEEP_S))


def active_policy() -> RetryPolicy | None:
    """The installed :class:`RetryPolicy`, or ``None`` (failures propagate
    immediately)."""
    p = _probe.current
    return None if p is None else p.policy


class retrying:
    """Install a :class:`RetryPolicy` for a ``with`` block::

        with inject_faults(plan), retrying(RetryPolicy(max_retries=5)):
            cp_als(x, rank=8)      # injected dispatch faults are retried

    Nesting restores the previous policy on exit.
    """

    def __init__(self, policy: RetryPolicy | None = None):
        self.policy = policy if policy is not None else RetryPolicy()
        self._prev: RetryPolicy | None = None

    def __enter__(self) -> RetryPolicy:
        self._prev = _probe.install("policy", self.policy)
        return self.policy

    def __exit__(self, *exc) -> bool:
        _probe.install("policy", self._prev)
        self._prev = None
        return False
