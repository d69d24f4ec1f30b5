"""``python -m repro.lint`` — the static analyzer CLI.

Usage::

    python -m repro.lint [paths ...]            # default: src/repro or repro
    python -m repro.lint src/repro --json report.json
    python -m repro.lint --list-rules

Exit status: 0 when every finding is suppressed (with a written reason),
1 when any active finding remains, 2 on usage errors.  Configuration is
read from the nearest ``pyproject.toml`` (``[tool.reprolint]``) above the
first linted path unless ``--config`` names one explicitly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import LintEngine, load_config
from repro.lint.report import (
    render_json,
    render_rule_catalog,
    render_sarif,
    render_text,
)


def _find_pyproject(start: Path) -> Path | None:
    cur = start.resolve()
    if cur.is_file():
        cur = cur.parent
    for candidate in [cur, *cur.parents]:
        p = candidate / "pyproject.toml"
        if p.is_file():
            return p
    return None


def _default_paths() -> list[str]:
    for candidate in ("src/repro", "repro"):
        if Path(candidate).is_dir():
            return [candidate]
    return ["."]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-level static analyzer enforcing the paper's "
                    "performance anti-patterns, the runtime's "
                    "concurrency discipline and resource lifecycles "
                    "(docs/LINTING.md)",
    )
    parser.add_argument("paths", nargs="*", help="files/directories to lint "
                        "(default: src/repro)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the deterministic JSON report to PATH "
                             "('-' for stdout)")
    parser.add_argument("--sarif", metavar="PATH", default=None,
                        help="write a SARIF 2.1.0 report to PATH ('-' for "
                             "stdout)")
    parser.add_argument("--config", metavar="PYPROJECT", default=None,
                        help="pyproject.toml to read [tool.reprolint] from "
                             "(default: discovered upward from the first path)")
    parser.add_argument("--rules", metavar="ID[,ID...]", default=None,
                        help="run only these rule ids")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="include suppressed findings in the text output")
    args = parser.parse_args(argv)

    if args.list_rules:
        sys.stdout.write(render_rule_catalog())
        return 0

    paths = args.paths or _default_paths()
    pyproject = Path(args.config) if args.config else _find_pyproject(Path(paths[0]))
    config = load_config(pyproject)
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        engine = LintEngine(config, rules=rules)
    except ValueError as exc:
        parser.error(str(exc))

    findings = engine.lint_paths([Path(p) for p in paths], root=Path.cwd())

    if args.json is not None:
        payload = render_json(findings)
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            Path(args.json).write_text(payload, encoding="utf-8")
    if args.sarif is not None:
        payload = render_sarif(findings)
        if args.sarif == "-":
            sys.stdout.write(payload)
        else:
            Path(args.sarif).write_text(payload, encoding="utf-8")
    if args.json != "-" and args.sarif != "-":
        sys.stdout.write(render_text(findings, show_suppressed=args.show_suppressed))

    return 1 if any(not f.suppressed for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
