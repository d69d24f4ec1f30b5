"""The ``repro.lint`` engine: AST walker, rule registry, suppressions.

The linter is **static** and **deterministic**: it parses each module with
:mod:`ast` (never importing it), runs every registered rule over the tree,
and emits :class:`Finding`\\ s carrying a stable fingerprint — the same
schedule-independent-identity idea as
:meth:`repro.sanitize.RaceReport.fingerprint`, but keyed on *code identity*
(rule, module, enclosing scope, normalized source line) instead of race
identity, so a finding's fingerprint survives unrelated line drift and two
runs over the same tree produce byte-identical reports.

Findings are silenced three ways, all of which keep the finding in the
report (marked ``suppressed``) so suppressions stay auditable:

* an inline comment on the offending line::

      np.add.at(out, rows, c)  # reprolint: allow(raw-scatter) — reason here

  The reason text after the dash is **required**; a suppression without one
  is itself reported (``bad-suppression``), because the whole point is a
  written record of why the anti-pattern is acceptable at this site.

* the same comment on a ``def``/``class`` line, which scopes the allowance
  to that entire body (for intentional anti-pattern exhibits like the
  interpreted "slicing" MTTKRP variants);

* a config allowlist (``[tool.reprolint]`` in ``pyproject.toml``): exact
  fingerprints or ``rule-id:path-glob`` entries.

A suppression that silences nothing is reported too (``unused-suppression``)
so stale allowances cannot linger after the code they excused is fixed.

Rule *scoping* is config-driven: the performance rules only fire in the
declared kernel modules (where the paper's anti-patterns actually cost
something), while runtime-discipline and hygiene rules fire everywhere.
See :class:`LintConfig` and docs/LINTING.md.
"""

from __future__ import annotations

import ast
import fnmatch
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "Finding",
    "LintConfig",
    "LintEngine",
    "ModuleView",
    "Rule",
    "RULES",
    "register",
    "load_config",
]


# ======================================================================
# rules
# ======================================================================
@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, category, and the check itself.

    ``check`` looks at one module and yields ``(node, message)`` pairs;
    ``program_check`` looks at every linted module at once and yields
    ``(module, node, message)`` triples.  The engine turns both into
    :class:`Finding`\\ s under the same suppressions.  Engine-emitted rules
    (suppression auditing) have neither.
    """

    id: str
    category: str  # "perf" | "runtime" | "hygiene" | "meta"
    summary: str
    paper: str | None = None  # figure/section of the source paper it encodes
    check: Callable[["ModuleView"], Iterator[tuple[ast.AST, str]]] | None = None
    program_check: Callable[
        [list["ModuleView"]], Iterator[tuple["ModuleView", ast.AST, str]]
    ] | None = None


#: Global rule registry, id → :class:`Rule`.  Populated by the
#: ``rules_*`` modules at import time; iteration order is sorted by id
#: wherever it can affect output.
RULES: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add ``rule`` to the registry (idempotent only for identical ids)."""
    if rule.id in RULES:
        raise ValueError(f"duplicate lint rule id {rule.id!r}")
    RULES[rule.id] = rule
    return rule


# ======================================================================
# configuration
# ======================================================================
@dataclass(frozen=True)
class LintConfig:
    """Rule scoping and allowlists.

    Globs match the *package-relative* posix path (``repro/mttkrp/...``).
    Defaults encode this repository's layout; ``[tool.reprolint]`` in
    pyproject.toml overrides field-by-field (dashes for underscores).
    """

    #: Modules whose loop/workspace contexts are performance-critical: the
    #: ``hot-loop-alloc`` and ``row-slice-copy`` rules fire only here.
    hot_modules: tuple[str, ...] = (
        "repro/mttkrp/*.py",
        "repro/tucker/*.py",
        "repro/backend/*.py",
    )
    #: Carve-outs from ``hot_modules`` — the reference MTTKRP is the
    #: deliberately naive spec baseline, and the backend kernel source is
    #: scalar-loop code *meant* to be JIT/C-compiled, where the interpreted
    #: NumPy heuristics do not apply.
    hot_exclude: tuple[str, ...] = (
        "repro/mttkrp/reference.py",
        "repro/backend/kernels_ref.py",
    )
    #: Modules where ``raw-scatter`` (``np.<ufunc>.at`` in hot paths) fires.
    scatter_modules: tuple[str, ...] = (
        "repro/mttkrp/*.py",
        "repro/tucker/*.py",
        "repro/completion/*.py",
        "repro/linalg/*.py",
        "repro/backend/*.py",
    )
    #: Modules allowed to touch :mod:`threading` directly — the simulated
    #: runtime and the tooling that instruments it.  Everyone else goes
    #: through ``repro.runtime``.
    threading_allow: tuple[str, ...] = (
        "repro/probe.py",
        "repro/runtime/*.py",
        "repro/observe/*.py",
        "repro/sanitize/*.py",
        "repro/resilience/*.py",
    )
    #: Exact finding fingerprints to suppress (config-level allowlist).
    allow_fingerprints: tuple[str, ...] = ()
    #: ``"rule-id:path-glob"`` entries to suppress wholesale.
    allow_rules: tuple[str, ...] = ()


def load_config(pyproject: Path | None) -> LintConfig:
    """The :class:`LintConfig` from ``[tool.reprolint]``, defaults if absent."""
    cfg = LintConfig()
    if pyproject is None or not pyproject.is_file():
        return cfg
    import tomllib

    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    section = data.get("tool", {}).get("reprolint", {})
    overrides = {}
    for key, value in section.items():
        attr = key.replace("-", "_")
        if attr in LintConfig.__dataclass_fields__:
            overrides[attr] = tuple(value)
    return replace(cfg, **overrides) if overrides else cfg


# ======================================================================
# findings
# ======================================================================
@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # package-relative posix path
    line: int
    col: int
    message: str
    snippet: str  # the offending source line, stripped
    scope: str  # dotted enclosing def/class chain, "<module>" at top level
    fingerprint: str = ""
    suppressed: bool = False
    reason: str | None = None  # suppression reason, when suppressed

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "scope": self.scope,
            "fingerprint": self.fingerprint,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }


def _fingerprint(rule: str, path: str, scope: str, norm: str, index: int) -> str:
    """Stable finding identity: survives unrelated line insertion/drift."""
    payload = f"{rule}|{path}|{scope}|{norm}|{index}"
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


# ======================================================================
# suppressions
# ======================================================================
#: Matches suppression comments: the ``reprolint:`` marker followed by
#: ``allow(...)`` with a comma-separated rule list, then a dash and the
#: mandatory written reason.  (Spelled out here rather than shown literally
#: so this very comment is not parsed as a suppression.)
_SUPPRESS_RE = re.compile(
    r"reprolint:\s*allow\(([^)]*)\)\s*(?:(?:—|–|--|-)\s*(\S.*))?"
)


@dataclass
class _Suppression:
    line: int
    rules: tuple[str, ...]
    reason: str | None
    used: bool = False


def _collect_suppressions(source: str) -> dict[int, _Suppression]:
    """Map line number → parsed ``reprolint: allow`` comment on that line."""
    out: dict[int, _Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if not m:
                continue
            rules = tuple(r.strip() for r in m.group(1).split(",") if r.strip())
            reason = m.group(2).strip() if m.group(2) else None
            out[tok.start[0]] = _Suppression(tok.start[0], rules, reason)
    except tokenize.TokenError:  # half-written file: no suppressions parsed
        pass
    return out


# ======================================================================
# module view (per-file context handed to rules)
# ======================================================================
_WS_PARAMS = frozenset({"ws", "workspace", "workspaces"})
_GUARD_PARAMS = _WS_PARAMS | frozenset(
    {"plan", "plans", "buffers", "trav", "traversal", "traversals"}
)
_LOOP_NODES = (ast.For, ast.While, ast.AsyncFor,
               ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNC_NODES + (ast.ClassDef,)


class ModuleView:
    """One parsed module plus the navigation helpers rules lean on."""

    def __init__(self, path: Path, relpath: str, source: str, tree: ast.Module,
                 config: LintConfig):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.config = config
        self._parent: dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parent[id(child)] = parent

    # -- path scoping ---------------------------------------------------
    def matches(self, globs: Iterable[str], exclude: Iterable[str] = ()) -> bool:
        rp = self.relpath
        if any(fnmatch.fnmatch(rp, g) for g in exclude):
            return False
        return any(fnmatch.fnmatch(rp, g) for g in globs)

    # -- tree navigation ------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parent.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parents from the immediate one outward to the module."""
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)

    def walk(self, *types: type) -> Iterator[ast.AST]:
        for node in ast.walk(self.tree):
            if not types or isinstance(node, types):
                yield node

    def scope_name(self, node: ast.AST) -> str:
        parts = [a.name for a in self.ancestors(node) if isinstance(a, _SCOPE_NODES)]
        return ".".join(reversed(parts)) or "<module>"

    def snippet(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # -- hot-context analysis -------------------------------------------
    def in_loop(self, node: ast.AST) -> bool:
        """Inside a loop/comprehension within the innermost function?"""
        for a in self.ancestors(node):
            if isinstance(a, _LOOP_NODES):
                return True
            if isinstance(a, _FUNC_NODES):
                return False
        return False

    def in_workspace_function(self, node: ast.AST) -> bool:
        """Any enclosing function (closures included) takes a workspace?"""
        for a in self.ancestors(node):
            if isinstance(a, _FUNC_NODES):
                args = a.args
                names = [p.arg for p in
                         args.posonlyargs + args.args + args.kwonlyargs]
                if any(n in _WS_PARAMS for n in names):
                    return True
        return False

    @staticmethod
    def _is_none_test(test: ast.expr, negated: bool) -> bool:
        """``X is None`` (or ``X is not None`` when ``negated``) over guard
        params, possibly ``or``-combined."""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            return all(ModuleView._is_none_test(v, negated) for v in test.values)
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
            return False
        op = test.ops[0]
        wanted = ast.IsNot if negated else ast.Is
        if not isinstance(op, wanted):
            return False
        left, right = test.left, test.comparators[0]
        return (
            isinstance(left, ast.Name)
            and left.id in _GUARD_PARAMS
            and isinstance(right, ast.Constant)
            and right.value is None
        )

    def under_plan_less_guard(self, node: ast.AST) -> bool:
        """Is ``node`` inside the explicitly plan-less fallback branch of an
        ``if ws is None:`` / ``if plan is not None: ... else:`` check?

        Those branches are the sanctioned unamortized fallbacks — allocation
        there is the documented cost of running without a plan.
        """
        child = node
        for a in self.ancestors(node):
            if isinstance(a, ast.If):
                in_body = any(child is s or self._contains(s, child) for s in a.body)
                in_orelse = not in_body and any(
                    child is s or self._contains(s, child) for s in a.orelse
                )
                if in_body and self._is_none_test(a.test, negated=False):
                    return True
                if in_orelse and self._is_none_test(a.test, negated=True):
                    return True
            child = a
        return False

    @staticmethod
    def _contains(root: ast.AST, target: ast.AST) -> bool:
        return any(n is target for n in ast.walk(root))

    def hot_context(self, node: ast.AST) -> str | None:
        """Why this node is performance-sensitive, or ``None``.

        ``"loop"`` — lexically inside a loop/comprehension;
        ``"workspace"`` — inside an amortized kernel (a function taking a
        workspace).  Either way, code inside a sanctioned ``if ws is None:``
        / ``if plan is not None: … else:`` fallback branch is *not* hot —
        allocating there is the documented price of running plan-less.
        """
        if self.in_loop(node):
            ctx = "loop"
        elif self.in_workspace_function(node):
            ctx = "workspace"
        else:
            return None
        return None if self.under_plan_less_guard(node) else ctx

    # -- statement helpers ----------------------------------------------
    def next_sibling(self, stmt: ast.stmt) -> ast.stmt | None:
        parent = self.parent(stmt)
        if parent is None:
            return None
        for name in ("body", "orelse", "finalbody"):
            block = getattr(parent, name, None)
            if isinstance(block, list) and stmt in block:
                i = block.index(stmt)
                return block[i + 1] if i + 1 < len(block) else None
        return None


# ======================================================================
# engine
# ======================================================================
class LintEngine:
    """Runs the registered rules over files and applies suppressions."""

    def __init__(self, config: LintConfig | None = None, *,
                 rules: Iterable[str] | None = None,
                 package_anchor: str = "repro"):
        # rule modules register themselves on import
        from repro.lint import (  # noqa: F401
            rules_hygiene, rules_lifecycle, rules_perf, rules_runtime,
        )

        self.config = config if config is not None else LintConfig()
        selected = set(rules) if rules is not None else set(RULES)
        unknown = selected - set(RULES)
        if unknown:
            raise ValueError(f"unknown lint rule(s): {sorted(unknown)}")
        self.rule_ids = tuple(sorted(selected))
        self.package_anchor = package_anchor

    # ------------------------------------------------------------------
    def _relpath(self, path: Path, root: Path | None) -> str:
        parts = path.resolve().parts
        anchor = self.package_anchor
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            return "/".join(parts[idx:])
        if root is not None:
            try:
                return path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                pass
        return path.name

    @staticmethod
    def collect_files(paths: Iterable[Path]) -> list[Path]:
        """Every ``.py`` under ``paths``, deterministically ordered."""
        files: set[Path] = set()
        for p in paths:
            p = Path(p)
            if p.is_dir():
                files.update(q for q in p.rglob("*.py"))
            elif p.suffix == ".py":
                files.add(p)
        return sorted(files, key=lambda q: q.resolve().as_posix())

    # ------------------------------------------------------------------
    def lint_source(self, source: str, *, path: Path | str = "<memory>",
                    relpath: str | None = None) -> list[Finding]:
        """Lint one in-memory module (the fixture-test entry point)."""
        path = Path(path)
        rp = relpath if relpath is not None else self._relpath(path, None)
        return self._lint_sources([(path, rp, source)])

    def lint_paths(self, paths: Iterable[Path | str],
                   root: Path | None = None) -> list[Finding]:
        """Lint files/directories; findings sorted, suppressions applied."""
        findings: list[Finding] = []
        sources: list[tuple[Path, str, str]] = []
        for f in self.collect_files([Path(p) for p in paths]):
            relpath = self._relpath(f, root)
            try:
                sources.append((f, relpath, f.read_text(encoding="utf-8")))
            except OSError as exc:
                findings.append(Finding(
                    rule="parse-error", path=relpath, line=1,
                    col=0, message=f"cannot read file: {exc}", snippet="",
                    scope="<module>",
                ))
        findings.extend(self._lint_sources(sources))
        findings.sort(key=Finding.sort_key)
        assign_fingerprints(findings)
        apply_config_allowlist(findings, self.config)
        return findings

    # ------------------------------------------------------------------
    def _lint_sources(self, sources: list[tuple[Path, str, str]]) -> list[Finding]:
        """Per-module rules on each source, then the whole-program rules
        over all of them, then the suppression audit of each module."""
        findings: list[Finding] = []
        modules: list[tuple[ModuleView, dict[int, _Suppression]]] = []
        for path, relpath, source in sources:
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                findings.append(Finding(
                    rule="parse-error", path=relpath, line=exc.lineno or 1,
                    col=exc.offset or 0, message=f"syntax error: {exc.msg}",
                    snippet="", scope="<module>",
                ))
                continue
            mod = ModuleView(path, relpath, source, tree, self.config)
            suppressions = _collect_suppressions(source)
            modules.append((mod, suppressions))
            for rid in self.rule_ids:
                check = RULES[rid].check
                if check is not None:
                    for node, message in check(mod):
                        findings.append(self._finding(
                            rid, mod, suppressions, node, message))

        suppressions_of = {id(mod): supps for mod, supps in modules}
        for rid in self.rule_ids:
            program_check = RULES[rid].program_check
            if program_check is not None and modules:
                for mod, node, message in program_check([m for m, _ in modules]):
                    findings.append(self._finding(
                        rid, mod, suppressions_of[id(mod)], node, message))

        for mod, suppressions in modules:
            findings.extend(self._audit_suppressions(mod, suppressions))
        findings.sort(key=Finding.sort_key)
        assign_fingerprints(findings)
        return findings

    def _finding(self, rid: str, mod: ModuleView,
                 suppressions: dict[int, _Suppression], node: ast.AST,
                 message: str) -> Finding:
        finding = Finding(
            rule=rid, path=mod.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message, snippet=mod.snippet(node),
            scope=mod.scope_name(node),
        )
        self._maybe_suppress(finding, mod, suppressions, node=node)
        return finding

    def _maybe_suppress(self, finding: Finding, mod: ModuleView,
                        suppressions: dict[int, _Suppression],
                        node: ast.AST | None = None) -> None:
        node_lines = [finding.line]
        # A multi-line statement may carry its suppression comment on any
        # of its physical lines (typically the closing one); scope bodies
        # (def/class) are excluded so an interior comment cannot silence a
        # finding on the definition itself.
        if node is not None and not isinstance(node, _SCOPE_NODES):
            end = getattr(node, "end_lineno", None) or finding.line
            node_lines += [ln for ln in range(finding.line + 1, end + 1)]
        node_lines += [
            ln for ln in self._def_lines(mod, finding) if ln not in node_lines
        ]
        for ln in node_lines:
            supp = suppressions.get(ln)
            if supp is None:
                continue
            if finding.rule in supp.rules or "*" in supp.rules:
                supp.used = True
                if supp.reason is not None:  # reasonless ones stay in force…
                    finding.suppressed = True  # …as bad-suppression findings
                    finding.reason = supp.reason
                return

    @staticmethod
    def _def_lines(mod: ModuleView, finding: Finding) -> list[int]:
        # Re-locate the finding's node scope chain by line: cheaper than
        # carrying node references on findings.
        lines = []
        for node in ast.walk(mod.tree):
            if isinstance(node, _SCOPE_NODES):
                end = getattr(node, "end_lineno", node.lineno)
                if node.lineno <= finding.line <= (end or node.lineno):
                    lines.append(node.lineno)
        return lines

    def _audit_suppressions(
        self, mod: ModuleView, suppressions: dict[int, _Suppression]
    ) -> list[Finding]:
        out: list[Finding] = []
        for supp in suppressions.values():
            unknown = [r for r in supp.rules if r != "*" and r not in RULES]
            if supp.reason is None:
                out.append(Finding(
                    rule="bad-suppression", path=mod.relpath, line=supp.line,
                    col=0,
                    message=(
                        "suppression without a written reason — use "
                        "'# reprolint: allow(rule-id) — why it is fine here'"
                    ),
                    snippet=mod.lines[supp.line - 1].strip()
                    if supp.line <= len(mod.lines) else "",
                    scope="<module>",
                ))
            elif unknown:
                out.append(Finding(
                    rule="bad-suppression", path=mod.relpath, line=supp.line,
                    col=0,
                    message=f"suppression names unknown rule(s): {unknown}",
                    snippet=mod.lines[supp.line - 1].strip()
                    if supp.line <= len(mod.lines) else "",
                    scope="<module>",
                ))
            elif not supp.used and all(
                r == "*" or r in self.rule_ids for r in supp.rules
            ):  # a rule that did not run cannot have used its allowance
                out.append(Finding(
                    rule="unused-suppression", path=mod.relpath, line=supp.line,
                    col=0,
                    message=(
                        f"suppression for {', '.join(supp.rules)} matches no "
                        "finding — remove it"
                    ),
                    snippet=mod.lines[supp.line - 1].strip()
                    if supp.line <= len(mod.lines) else "",
                    scope="<module>",
                ))
        return out



def assign_fingerprints(findings: list[Finding]) -> None:
    """Stable code-identity fingerprints, in report order."""
    seen: dict[tuple, int] = {}
    for f in findings:
        norm = re.sub(r"\s+", " ", f.snippet.split("#", 1)[0]).strip()
        key = (f.rule, f.path, f.scope, norm)
        index = seen.get(key, 0)
        seen[key] = index + 1
        f.fingerprint = _fingerprint(f.rule, f.path, f.scope, norm, index)


def apply_config_allowlist(findings: list[Finding], config: LintConfig) -> None:
    """Suppress findings named by the ``[tool.reprolint]`` allowlists."""
    allow_fp = set(config.allow_fingerprints)
    allow_rules = [
        entry.split(":", 1) for entry in config.allow_rules
        if ":" in entry
    ]
    for f in findings:
        if f.suppressed:
            continue
        if f.fingerprint in allow_fp:
            f.suppressed = True
            f.reason = "config allowlist (fingerprint)"
        elif any(rid == f.rule and fnmatch.fnmatch(f.path, glob)
                 for rid, glob in allow_rules):
            f.suppressed = True
            f.reason = "config allowlist (rule:path)"


# engine-emitted rules are registered here so --list-rules documents them
register(Rule(
    id="parse-error", category="meta",
    summary="file does not parse (or cannot be read); nothing else was checked",
))
register(Rule(
    id="bad-suppression", category="meta",
    summary="reprolint suppression without a written reason, or naming an "
            "unknown rule id",
))
register(Rule(
    id="unused-suppression", category="meta",
    summary="reprolint suppression that silences no finding (stale allowance)",
))
