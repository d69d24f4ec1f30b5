"""Tracing overhead guard: disabled tracing + sanitizing must cost < 3%.

The tracing layer's contract (docs/OBSERVABILITY.md) is near-zero cost
when no recorder is installed: every instrumented call site either tests
the one instrumentation slot (``repro.probe.current``) or calls
:func:`repro.observe.spans.span`, which returns a shared no-op object.
A true A/B against a never-instrumented build is impossible at runtime,
so the guard bounds the overhead from measurable parts:

1. time a steady-state amortized MTTKRP sweep on the shared
   ``mttkrp_workload`` fixture with tracing disabled (``T``, best of
   :func:`repro.bench.runner.best_of` rounds);
2. run one traced sweep and read ``recorder.events_recorded`` — the
   number of instrumentation events the sweep emits (``N``), an upper
   bound on the disabled-path call count that matters;
3. time the disabled-path primitives directly (a ``with span()``, a
   ``count()``, a sanitizer ``pause()`` and a probe-slot read
   per event, ``c`` seconds amortized per call);

and asserts ``N * c < 3% * T``.
"""

from __future__ import annotations

import numpy as np

from repro import probe
from repro.bench.runner import best_of
from repro.mttkrp.variants import mttkrp_csf
from repro.observe import spans as spans_mod
from repro.observe import tracing
from repro.runtime.env import ChapelEnv
from repro.runtime.tasking import make_tasking_layer
from repro.sanitize import detector as san_mod

NTASKS = 2
TRIALS = 7
OVERHEAD_BUDGET = 0.03  # the ISSUE's acceptance threshold
NULLPATH_CALLS = 200_000


def _sweep(csf_set, factors, layer):
    for mode in range(len(factors)):
        mttkrp_csf(csf_set, factors, mode, layer=layer)


def _disabled_event_cost() -> float:
    """Amortized seconds per instrumentation event with tracing off.

    One "event" is modelled as its most expensive disabled-path shape: a
    ``span()`` call entered and exited as a context manager, plus a
    ``count()``.  Real hot sites are cheaper (a bare ``probe.current is
    None`` check), so this upper-bounds the per-event cost.
    """
    assert probe.current is None
    span = spans_mod.span
    count = spans_mod.count
    pause = san_mod.pause

    # no separate warm-up: the minimum of three rounds absorbs a cold first one
    def events() -> None:
        for _ in range(NULLPATH_CALLS):
            with span("x", a=1):
                pass
            count("x")
            # the sanitizer's disabled hot path: a fuzzer perturbation
            # point plus the bare slot read the runtime sites do inline
            pause("x")
            if probe.current is not None:  # pragma: no cover
                raise AssertionError

    return best_of({"events": events}, rounds=3)["events"] / NULLPATH_CALLS


def test_disabled_tracing_overhead_under_budget(benchmark, mttkrp_workload):
    _, factors, csf_set = mttkrp_workload
    layer = make_tasking_layer(ChapelEnv(num_tasks=NTASKS))
    try:
        # warm the plan cache and worker pool so T is steady-state
        _sweep(csf_set, factors, layer)
        _sweep(csf_set, factors, layer)

        # N: instrumentation events one traced steady-state sweep emits
        with tracing() as rec:
            _sweep(csf_set, factors, layer)
        events_per_sweep = rec.events_recorded
        assert events_per_sweep > 0  # instrumentation is actually present

        def measure():
            best = best_of({"sweep": lambda: _sweep(csf_set, factors, layer)},
                           TRIALS)
            return best["sweep"], _disabled_event_cost()

        sweep_seconds, per_event = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
        overhead_seconds = events_per_sweep * per_event
        ratio = overhead_seconds / sweep_seconds
        print(
            f"\ntracing-off overhead: {events_per_sweep} events/sweep x "
            f"{per_event * 1e9:.0f} ns = {overhead_seconds * 1e6:.1f} us "
            f"on a {sweep_seconds * 1e3:.1f} ms sweep "
            f"({ratio * 100:.3f}% of budgeted {OVERHEAD_BUDGET * 100:.0f}%)"
        )
        assert ratio < OVERHEAD_BUDGET, {
            "events_per_sweep": events_per_sweep,
            "per_event_seconds": per_event,
            "sweep_seconds": sweep_seconds,
            "ratio": ratio,
        }
    finally:
        layer.shutdown()


def test_traced_results_match_untraced(mttkrp_workload):
    """Safety rail for the guard itself: tracing on/off is numerically
    equivalent on this exact workload (the property suite covers the
    general case)."""
    _, factors, csf_set = mttkrp_workload
    layer = make_tasking_layer(ChapelEnv(num_tasks=NTASKS))
    try:
        plain = [
            mttkrp_csf(csf_set, factors, m, layer=layer)[0].copy()
            for m in range(len(factors))
        ]
        with tracing():
            traced = [
                mttkrp_csf(csf_set, factors, m, layer=layer)[0].copy()
                for m in range(len(factors))
            ]
        for a, b in zip(plain, traced):
            assert np.allclose(a, b, atol=1e-10)
    finally:
        layer.shutdown()
