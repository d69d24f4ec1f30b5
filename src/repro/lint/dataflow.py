"""A small forward dataflow core for the whole-program ``must-release`` rule.

Walk a function's statements in order, keep an abstract *environment*
(variable → lattice value), split on ``if``/``try`` branches, join at
merge points, and iterate loop bodies to a fixpoint.  This module provides
that driver — :class:`ForwardAnalysis` — so a rule only supplies its
lattice and transfer functions.

Lattice contract: values are immutable, compared with ``==``, and joined
with the analysis's :meth:`ForwardAnalysis.join_values`.  ``None`` inside
an environment means *unknown* (top).  Environments are plain dicts; the
driver copies them at branch points, joins them with
:meth:`~ForwardAnalysis.join_envs`, and drops variables that disagree
(their join is unknown) unless ``join_values`` says otherwise.

Exceptional flow: every statement that contains a call may raise.  The
driver accumulates the *union of environments observed before each
may-raise statement* of a ``try`` body and hands that to handlers and
``finally`` blocks — the exceptional-edge approximation the must-release
analysis relies on.  Loops run to a bounded fixpoint (the lattices here
are finite and tiny, so two or three passes converge; the driver caps at
``MAX_LOOP_PASSES`` and widens to unknown beyond it).
"""

from __future__ import annotations

import ast
from typing import Any

__all__ = ["ForwardAnalysis", "Env", "may_raise", "MAX_LOOP_PASSES"]

Env = dict[str, Any]

#: Fixpoint bound for loop bodies; beyond this everything widens to top.
MAX_LOOP_PASSES = 4

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def may_raise(stmt: ast.stmt) -> bool:
    """Conservative: any statement containing a call, raise or subscript
    may raise.  Constants, locals and plain attribute stores cannot (a
    ``self.x = y`` cannot fail in this codebase — no ``__slots__`` tricks
    or property setters that throw)."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Call, ast.Subscript)):
            return True
        if isinstance(node, _FUNC_NODES):  # a nested def's body doesn't run here
            return False
    return False


class ForwardAnalysis:
    """Forward walker over one function body.  Subclass and override.

    Hooks receive the statement/expression plus the live environment and
    mutate it.  Branch
    handling, joins, loop fixpoints and exceptional edges are the
    driver's job.
    """

    def __init__(self) -> None:
        self._exit_envs: list[Env] = []

    # -- hooks (override in analyses) -----------------------------------
    def join_values(self, a: Any, b: Any) -> Any:
        """Join two abstract values; default: keep only agreement."""
        return a if a == b else None

    def eval_expr(self, expr: ast.expr, env: Env) -> Any:
        """Abstract value of ``expr`` under ``env`` (default: unknown)."""
        return None

    def transfer_assign(self, target: ast.expr, value: Any,
                        node: ast.stmt, env: Env) -> None:
        """Bind ``target`` to abstract ``value`` (default: names only)."""
        if isinstance(target, ast.Name):
            if value is None:
                env.pop(target.id, None)
            else:
                env[target.id] = value

    def transfer_stmt(self, stmt: ast.stmt, env: Env) -> None:
        """Per-statement hook, called before structural handling."""

    def on_exit(self, env: Env, node: ast.stmt | None) -> None:
        """Called at every normal function exit (return / fall-through)."""

    # -- driver ----------------------------------------------------------
    def join_envs(self, a: Env, b: Env) -> Env:
        out: Env = {}
        for key in set(a) | set(b):
            if key in a and key in b:
                j = self.join_values(a[key], b[key])
                if j is not None:
                    out[key] = j
        return out

    def run(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[Env]:
        """Walk ``fn``'s body; returns the environments at normal exits."""
        self._exit_envs = []
        env = self._walk_block(fn.body, {})
        if env is not None:  # fall-through exit
            self._exit_envs.append(env)
            self.on_exit(env, None)
        return self._exit_envs

    # returns the fall-through env, or None when the block cannot complete
    def _walk_block(self, body: list[ast.stmt], env: Env | None) -> Env | None:
        for stmt in body:
            if env is None:
                return None
            env = self._walk_stmt(stmt, env)
        return env

    def _walk_stmt(self, stmt: ast.stmt, env: Env) -> Env | None:
        self.transfer_stmt(stmt, env)

        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval_expr(stmt.value, env)
            self._exit_envs.append(dict(env))
            self.on_exit(env, stmt)
            return None
        if isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
            return None

        if isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.value, env)
            for target in stmt.targets:
                self.transfer_assign(target, value, stmt, env)
            return env
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = self.eval_expr(stmt.value, env)
            self.transfer_assign(stmt.target, value, stmt, env)
            return env
        if isinstance(stmt, ast.AugAssign):
            self.eval_expr(stmt.value, env)
            self.transfer_assign(stmt.target, None, stmt, env)
            return env
        if isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value, env)
            return env

        if isinstance(stmt, ast.If):
            self.eval_expr(stmt.test, env)
            env_t = self._walk_block(stmt.body, dict(env))
            env_f = self._walk_block(stmt.orelse, dict(env))
            return self._merge(env_t, env_f)

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval_expr(stmt.iter, env)
            self.transfer_assign(stmt.target, None, stmt, env)
            return self._loop(stmt.body, stmt.orelse, env)
        if isinstance(stmt, ast.While):
            self.eval_expr(stmt.test, env)
            return self._loop(stmt.body, stmt.orelse, env)

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval_expr(item.context_expr, env)
                if item.optional_vars is not None:
                    self.transfer_assign(item.optional_vars, value, stmt, env)
            return self._walk_block(stmt.body, env)

        if isinstance(stmt, ast.Try):
            return self._try(stmt, env)

        return env  # nested definitions and the rest don't change bindings

    def _merge(self, a: Env | None, b: Env | None) -> Env | None:
        if a is None:
            return b
        if b is None:
            return a
        return self.join_envs(a, b)

    def _loop(self, body: list[ast.stmt], orelse: list[ast.stmt],
              env: Env) -> Env | None:
        # zero iterations is always possible → start from env, iterate the
        # body joining states until stable (bounded).
        state = dict(env)
        for _ in range(MAX_LOOP_PASSES):
            after = self._walk_block(body, dict(state))
            nxt = self._merge(state, after) if after is not None else state
            if nxt == state:
                break
            state = nxt
        else:
            state = {}  # widen: give up on everything loop-carried
        return self._walk_block(orelse, state)

    def _try(self, stmt: ast.Try, env: Env) -> Env | None:
        # Exceptional entry: join of states before every may-raise
        # statement of the body (approximated statement-by-statement).
        exc_env: Env | None = None
        cur: Env | None = dict(env)
        for s in stmt.body:
            if cur is None:
                break
            if may_raise(s):
                exc_env = cur if exc_env is None else self.join_envs(exc_env, cur)
            cur = self._walk_stmt(s, cur)
            if cur is not None and may_raise(s):
                # state *after* a may-raise statement can also flow to the
                # handler (the raise can come from a later statement)
                exc_env = self.join_envs(exc_env, cur)
        body_env = cur

        handler_exits: list[Env | None] = []
        for handler in stmt.handlers:
            h_env = dict(exc_env) if exc_env is not None else dict(env)
            if handler.name:
                h_env.pop(handler.name, None)
            handler_exits.append(self._walk_block(handler.body, h_env))

        if body_env is not None:
            body_env = self._walk_block(stmt.orelse, body_env)

        merged: Env | None = body_env
        for h in handler_exits:
            merged = self._merge(merged, h)

        if stmt.finalbody:
            # finally runs on both normal and exceptional paths; we only
            # propagate the normal continuation here, but give the
            # exceptional state to the finally walk too so release
            # accounting sees it (subclasses hook transfer_stmt).
            if merged is None:
                fin_in = exc_env if exc_env is not None else dict(env)
                self._walk_block(stmt.finalbody, dict(fin_in))
                return None
            return self._walk_block(stmt.finalbody, merged)
        return merged
