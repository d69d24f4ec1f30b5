"""``repro.lint`` — static analyzer for the paper's performance discipline.

The dynamic tooling (``repro.observe`` traces, ``repro.sanitize`` races)
tells you what a *run* did; this package tells you what the *code* will do
before anything runs.  Its rules encode the three optimization stories of
the source paper as statically recognizable anti-patterns — per-call
allocation in hot kernels (Fig 1), row materialization via slice copies
(Figs 2–3), raw scatters and undisciplined shared-state updates (Fig 4) —
plus the concurrency discipline the simulated runtime depends on (no raw
threading, try/finally lock release, with-scoped spans, no strippable
asserts guarding invariants).  One rule, ``must-release``, looks at the
whole program at once: every lock, shm arena, socket, pool or manually
entered context must reach its release on every path, exceptional edges
included, with release effects followed across functions and modules.

Run it with ``python -m repro.lint src/repro`` (exit 1 on any unsuppressed
finding), or programmatically::

    from repro.lint import LintEngine, LintConfig

    findings = LintEngine(LintConfig()).lint_paths(["src/repro"])
    assert not [f for f in findings if not f.suppressed]

Findings carry stable fingerprints (the sanitizer's determinism contract
applied to code identity) and are silenced only by inline
``# reprolint: allow(rule-id) — reason`` comments or the
``[tool.reprolint]`` allowlist.  See docs/LINTING.md for the rule catalog
and its paper mapping.
"""

from __future__ import annotations

from repro.lint.engine import (
    RULES,
    Finding,
    LintConfig,
    LintEngine,
    Rule,
    load_config,
    register,
)
from repro.lint.report import render_json, render_rule_catalog, render_text, summarize

# importing the rule modules populates RULES
from repro.lint import (  # noqa: F401,E402
    rules_hygiene, rules_lifecycle, rules_perf, rules_runtime,
)

__all__ = [
    "RULES",
    "Finding",
    "LintConfig",
    "LintEngine",
    "Rule",
    "load_config",
    "register",
    "render_json",
    "render_rule_catalog",
    "render_text",
    "summarize",
]
