"""Seeded schedule-perturbation fuzzer for the tasking runtime.

The happens-before detector reasons about the *logical* structure of a
parallel region (fork/join, locksets), so it finds races regardless of how
the OS happened to interleave threads.  The fuzzer attacks the complement:
bugs whose *numeric effect* only shows under unlucky interleavings (lost
updates through an unlocked accumulate, lost wakeups on a sync lock).
It injects tiny, deterministic-by-seed delays at the runtime's
synchronization points — before lock acquires, at pooled task starts,
between scheduler chunk claims, at pool dispatch — driving
``coforall`` / ``forall`` / ``forall_scheduled`` bodies through adversarial
interleavings that a quiet machine would never produce.

Determinism contract: the *decision* at each arrival (pause or not, and
for how long) depends only on ``(seed, site, arrival index)`` through a
keyed blake2 hash — never on wall-clock time or Python's randomized
``hash()`` — so a failing schedule can be replayed by seed.  The resulting
OS interleaving is of course still the kernel's choice; the seed pins the
perturbation pattern, not the scheduler.
"""

from __future__ import annotations

import hashlib
import threading
import time

__all__ = ["SchedulePerturber"]


class SchedulePerturber:
    """Deterministic delay injector keyed by ``(seed, site, arrival)``.

    Parameters
    ----------
    seed:
        Replay key.  Same seed ⇒ same pause decisions at every site.
    pause_probability:
        Fraction of arrivals that pause at all.
    max_sleep_us:
        Longest injected sleep, in microseconds.  Roughly half of the
        pausing arrivals sleep (scaled by the draw); the rest yield the
        thread (``time.sleep(0)``), which is the cheapest way to force a
        context switch at a tense point.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        pause_probability: float = 0.5,
        max_sleep_us: int = 200,
    ):
        if not 0.0 <= pause_probability <= 1.0:
            raise ValueError("pause_probability must be in [0, 1]")
        if max_sleep_us < 0:
            raise ValueError("max_sleep_us must be >= 0")
        self.seed = int(seed)
        self.pause_probability = pause_probability
        self.max_sleep_us = max_sleep_us
        self._lock = threading.Lock()
        self._arrivals: dict[str, int] = {}
        self.pauses = 0
        self.sleeps = 0

    # ------------------------------------------------------------------
    def _draw(self, site: str, arrival: int) -> float:
        """A uniform [0, 1) draw fully determined by (seed, site, arrival)."""
        key = f"{self.seed}:{site}:{arrival}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def decisions(self, site: str, n: int) -> list[float]:
        """The first ``n`` draws for ``site`` (test/replay hook; does not
        consume arrivals)."""
        return [self._draw(site, i) for i in range(n)]

    def pause(self, site: str) -> None:
        """Maybe pause at ``site`` — the instrumented-runtime entry point."""
        with self._lock:
            arrival = self._arrivals.get(site, 0)
            self._arrivals[site] = arrival + 1
        draw = self._draw(site, arrival)
        if draw >= self.pause_probability:
            return
        with self._lock:
            self.pauses += 1
        # rescale the accepted draw to pick between a bare yield and a
        # short sleep; both cede the OS thread at the perturbation point.
        sub = draw / self.pause_probability
        if sub < 0.5 or self.max_sleep_us == 0:
            time.sleep(0)
        else:
            with self._lock:
                self.sleeps += 1
            time.sleep((sub - 0.5) * 2.0 * self.max_sleep_us * 1e-6)

    def arrivals(self, site: str | None = None) -> int | dict[str, int]:
        """Arrival count for one site (or the full per-site dict)."""
        with self._lock:
            if site is None:
                return dict(self._arrivals)
            return self._arrivals.get(site, 0)
