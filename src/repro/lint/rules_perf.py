"""Performance rules: the paper's Figures 1–3 as enforced anti-patterns.

These rules are scoped to the configured kernel modules
(:attr:`~repro.lint.engine.LintConfig.hot_modules` /
``scatter_modules``) — the code the paper's measurements are about —
because a one-time allocation in a driver costs nothing, while the same
line inside an MTTKRP kernel is exactly the regression of Fig 1.

A *hot context* is either a loop/comprehension body or the body of an
amortized kernel (any function taking a ``ws``/``workspace`` parameter)
outside its sanctioned ``if ws is None:`` / ``if plan is not None: …
else:`` fallback branches — see
:meth:`repro.lint.engine.ModuleView.hot_context`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleView, Rule, register

#: NumPy allocators whose appearance in a hot context means a fresh
#: ``O(n)`` buffer per call — the per-iteration cost PR 1 amortized away.
_ALLOCATORS = frozenset({
    "zeros", "empty", "ones", "full",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "copy", "argsort", "repeat",
})

_CONTEXT_HINT = {
    "loop": "inside a loop",
    "workspace": "in an amortized kernel outside its plan-less fallback",
}


def _is_np_call(node: ast.Call, names: frozenset[str]) -> bool:
    """``np.<name>(...)`` / ``numpy.<name>(...)`` for ``name`` in ``names``."""
    f = node.func
    return (
        isinstance(f, ast.Attribute)
        and f.attr in names
        and isinstance(f.value, ast.Name)
        and f.value.id in ("np", "numpy")
    )


def _is_newaxis_subscript(node: ast.AST) -> bool:
    """``x[:, None]`` / ``x[lo:hi, None]`` — a broadcast-shaping subscript."""
    if not isinstance(node, ast.Subscript):
        return False
    sl = node.slice
    elts = sl.elts if isinstance(sl, ast.Tuple) else [sl]
    return any(isinstance(e, ast.Constant) and e.value is None for e in elts)


def _newaxis_allocating(mod: ModuleView, node: ast.Subscript) -> bool:
    """New-axis subscripts only *materialize* when consumed by an
    allocating expression: a call argument (``np.add.at(..., v[:, None])``)
    or a non-augmented binary op (``e[:, None] * h``).  As an in-place
    target or augmented operand (``w *= v[:, None]``) it is a free view."""
    parent = mod.parent(node)
    if isinstance(parent, ast.Call) and node in parent.args:
        return True
    if isinstance(parent, ast.keyword):
        grand = mod.parent(parent)
        return isinstance(grand, ast.Call)
    return isinstance(parent, ast.BinOp)


def _is_zero_size(call: ast.Call) -> bool:
    """``np.empty(0, ...)`` / ``np.zeros((0, rank))`` — empty-range sentinel
    returns, not per-element work."""
    if not call.args:
        return False
    first = call.args[0]
    if isinstance(first, ast.Tuple) and first.elts:
        first = first.elts[0]
    return isinstance(first, ast.Constant) and first.value == 0


def _check_hot_loop_alloc(mod: ModuleView) -> Iterator[tuple[ast.AST, str]]:
    cfg = mod.config
    if not mod.matches(cfg.hot_modules, cfg.hot_exclude):
        return
    for node in mod.walk(ast.Call):
        if not _is_np_call(node, _ALLOCATORS):
            continue
        if _is_zero_size(node):
            continue
        ctx = mod.hot_context(node)
        if ctx is None:
            continue
        yield node, (
            f"np.{node.func.attr} allocates {_CONTEXT_HINT[ctx]} (paper Fig 1 "
            "'Array-opt'): hoist it, or serve it from the plan-owned "
            "Workspace (repro.mttkrp.scatter.Workspace.buf)"
        )
    for node in mod.walk(ast.Subscript):
        if not _is_newaxis_subscript(node):
            continue
        if not _newaxis_allocating(mod, node):
            continue
        ctx = mod.hot_context(node)
        if ctx is None:
            continue
        yield node, (
            f"[:, None] broadcast materializes a temporary {_CONTEXT_HINT[ctx]} "
            "(paper Fig 1): stage it in a reusable Workspace buffer or fold "
            "it into an in-place update"
        )


def _index_has_slice(index: ast.AST) -> bool:
    """Is the index itself a column-slice gather like ``c[:, m]``?"""
    if not isinstance(index, ast.Subscript):
        return False
    sl = index.slice
    elts = sl.elts if isinstance(sl, ast.Tuple) else [sl]
    return any(isinstance(e, ast.Slice) for e in elts)


def _check_row_slice_copy(mod: ModuleView) -> Iterator[tuple[ast.AST, str]]:
    cfg = mod.config
    if not mod.matches(cfg.hot_modules, cfg.hot_exclude):
        return
    for node in mod.walk(ast.Call):
        # X[i].copy() / X[i, :].copy() — explicit row materialization, the
        # Chapel slice-descriptor overhead of Figs 2–3 ported to NumPy.
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr == "copy"
            and not node.args
            and isinstance(f.value, ast.Subscript)
            and mod.hot_context(node) is not None
        ):
            yield node, (
                "factor-row access copies the row (paper Figs 2–3 'slicing'): "
                "use a zero-copy 2-D index/view, or Workspace.take for batch "
                "gathers"
            )
    for node in mod.walk(ast.Subscript):
        # A[c[:, m]] — a fancy-indexed batch gather allocating one row copy
        # per element, in a hot context.
        if not isinstance(node.ctx, ast.Load):
            continue
        if not _index_has_slice(node.slice):
            continue
        if mod.hot_context(node) is None:
            continue
        yield node, (
            "fancy-indexed row gather materializes copies in a hot context "
            "(paper Figs 2–3): gather once into a plan/Workspace buffer "
            "(Workspace.take) or fold the permutation into the plan"
        )


def _check_raw_scatter(mod: ModuleView) -> Iterator[tuple[ast.AST, str]]:
    cfg = mod.config
    if not mod.matches(cfg.scatter_modules):
        return
    for node in mod.walk(ast.Call):
        f = node.func
        if not (
            isinstance(f, ast.Attribute)
            and f.attr == "at"
            and isinstance(f.value, ast.Attribute)
            and isinstance(f.value.value, ast.Name)
            and f.value.value.id in ("np", "numpy")
        ):
            continue
        ufunc = f.value.attr
        if mod.hot_context(node) is None:
            continue
        yield node, (
            f"np.{ufunc}.at is an unbuffered element-at-a-time scatter in a "
            "hot path: use a cached RowScatter/SegmentSum plan from "
            "repro.mttkrp.scatter (or RowScatter(rows).scatter_accumulate "
            "for one-shot rows)"
        )


register(Rule(
    id="hot-loop-alloc",
    category="perf",
    summary="per-call array allocation (np.zeros/empty/copy/argsort/... or a "
            "materializing [:, None] broadcast) in a hot loop or amortized "
            "kernel",
    paper="Fig 1 (Array-opt)",
    check=_check_hot_loop_alloc,
))

register(Rule(
    id="row-slice-copy",
    category="perf",
    summary="row materialization via slice-copies or fancy-indexed gathers "
            "in hot paths instead of in-place views / plan-owned buffers",
    paper="Figs 2–3 (slicing vs 2-D indexing vs pointer)",
    check=_check_row_slice_copy,
))

register(Rule(
    id="raw-scatter",
    category="perf",
    summary="np.<ufunc>.at scatter in a hot path instead of the cached "
            "scatter plans of repro.mttkrp.scatter",
    paper="Fig 4 (shared-state updates) + PR 1's amortization",
    check=_check_raw_scatter,
))
