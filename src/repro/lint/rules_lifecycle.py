"""The ``must-release`` rule: every acquire reaches a release.

The runtime layers own real resources with paired acquire/release
protocols: :class:`repro.runtime.locks` pools (``acquire``/``release``
around scatter rows, Fig 4), :class:`repro.distributed.shm.ShmArena`
segments (``attach``/``close`` in every worker), sockets and their
``makefile`` views in :mod:`repro.serve`, worker pools
(``WorkerPool()``/``shutdown``), and manually driven context managers
(``cm.__enter__()``/``cm.__exit__()`` in the serve daemon).  A release
missing on the *exceptional* path is the classic leak: the normal path
works in every test, and the first bind failure or handler exception
strands a lock, a shm segment, or a process-global sanitizer install.

Unlike the per-module rules it runs over the whole program
(:class:`~repro.lint.program.Program`), because release effects cross
functions and modules.  It is path-sensitive over the dataflow core
(:mod:`repro.lint.dataflow`): acquisitions create tracked tokens in the
abstract environment; releases and ownership transfers (returning the
resource, passing it to a callee, storing it on an object) remove them.
It reports two defects:

* ``must-release`` at a normal exit — a locally owned resource can reach
  ``return``/fall-through with no release on some path;
* ``must-release`` on an exceptional edge — a statement that may raise
  executes while a resource is held, with no enclosing ``try`` whose
  handler or ``finally`` could release it (including ``raise`` with the
  resource still held).

Ownership rules keep the false-positive rate at zero on this tree:
``with`` acquisitions are always safe; resources stored on ``self``
inside *start-like* methods (``__init__``, ``__enter__``, ``start``,
``connect``, ``open``) stay tracked for exceptional edges only (the
object is not yet handed to the caller — an exception mid-start strands
them); in other methods a ``self.x =`` store transfers ownership to the
object.  Calls to methods whose bodies (transitively) release — a
``self.close()`` in an ``except`` block — count as releasing, via
call-graph release summaries.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.dataflow import Env, ForwardAnalysis, may_raise
from repro.lint.engine import ModuleView, Rule, register
from repro.lint.program import FunctionInfo, Program, dotted_name

__all__ = ["RELEASE_ATTRS", "RESOURCE_CLASSES"]

#: One raw result: (module, node, message).
RawFinding = tuple[ModuleView, ast.AST, str]

#: Attribute calls that release whatever their receiver holds.
RELEASE_ATTRS = frozenset({
    "release", "close", "shutdown", "stop", "unlink", "terminate", "__exit__",
})

#: Constructors / classmethod-constructors that hand back an owned resource.
RESOURCE_CLASSES: dict[str, str] = {
    "repro.distributed.shm.ShmArena": "shm arena",
    "repro.distributed.shm.ShmArena.attach": "shm arena",
    "repro.runtime.pool.WorkerPool": "worker pool",
}

#: Plain calls (import-expanded dotted form) returning owned resources.
_OPEN_CALLS: dict[str, str] = {
    "open": "file handle",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "tempfile.NamedTemporaryFile": "temp file",
}

#: ``receiver.<attr>()`` acquisitions (receiver must be a name or a
#: ``self.x`` attribute so the matching release can be identified).
_ACQUIRE_ATTRS: dict[str, str] = {
    "acquire": "lock",
    "__enter__": "manually entered context",
    "makefile": "socket file view",
}

#: Methods whose *job* is the protocol itself — ownership lives with
#: their caller, so their bodies are exempt.
_PROTOCOL_FUNCS = frozenset(RELEASE_ATTRS) | {"acquire", "__del__"}

#: Methods where ``self.x = <resource>`` keeps the resource tracked: the
#: object is mid-construction, an exception here strands the resource.
_START_LIKE = frozenset({"__init__", "__enter__", "start", "connect",
                         "open", "restart"})


class _Resource:
    """One tracked acquisition (mutable: ownership can move to self)."""

    __slots__ = ("token", "kind", "node", "owned", "key", "line")

    def __init__(self, token: int, kind: str, node: ast.Call, key: str | None):
        self.token = token
        self.kind = kind
        self.node = node
        self.owned = "local"
        self.key = key  #: receiver key ("fh", "self._sock") when bound
        self.line = node.lineno


def _receiver_key(expr: ast.expr) -> str | None:
    """``fh`` → ``"fh"``; ``self._sock`` → ``"self._sock"``; else None."""
    if isinstance(expr, ast.Name):
        return expr.id
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return f"self.{expr.attr}"
    return None


def _is_contextmanager(fn: ast.AST) -> bool:
    for dec in getattr(fn, "decorator_list", ()):
        dotted = dotted_name(dec) or ""
        if dotted.rsplit(".", 1)[-1] in ("contextmanager", "asynccontextmanager"):
            return True
    return False


class _LifecycleFlow(ForwardAnalysis):
    def __init__(self, owner: "_LifecyclePass", fn: FunctionInfo):
        super().__init__()
        self.owner = owner
        self.fn = fn
        self.mod = fn.module
        self.start_like = fn.cls is not None and fn.name in _START_LIKE
        self._next_token = 0
        #: Call node ids whose result ownership never rests here: ``with``
        #: context expressions, values of ``return``/``yield``, arguments
        #: of other calls.
        self._safe_ids = self._collect_safe_ids(fn.node)

    # ------------------------------------------------------------------
    @staticmethod
    def _collect_safe_ids(fn: ast.AST) -> set[int]:
        safe: set[int] = set()

        def mark(root: ast.AST | None) -> None:
            if root is None:
                return
            for n in ast.walk(root):
                if isinstance(n, ast.Call):
                    safe.add(id(n))

        for node in ast.walk(fn):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    mark(item.context_expr)
            elif isinstance(node, ast.Return):
                mark(node.value)
            elif isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
                mark(node.value)
            elif isinstance(node, ast.Call):
                for a in node.args:
                    mark(a)
                for kw in node.keywords:
                    mark(kw.value)
        return safe

    # -- env bookkeeping -------------------------------------------------
    @staticmethod
    def _open(env: Env) -> list[_Resource]:
        return [v for k, v in env.items() if k.startswith("%res")]

    def _drop(self, env: Env, res: _Resource) -> None:
        env.pop(f"%res{res.token}", None)

    def _lookup(self, env: Env, key: str | None) -> _Resource | None:
        if key is None:
            return None
        ref = env.get(key)
        if isinstance(ref, str) and ref.startswith("%res"):
            return env.get(ref)
        return None

    def join_envs(self, a: Env, b: Env) -> Env:
        # must-release: a resource open on EITHER branch stays open
        out: Env = {}
        for key in set(a) | set(b):
            if key.startswith("%res"):
                out[key] = a.get(key) or b.get(key)
            elif key in a and key in b and a[key] == b[key]:
                out[key] = a[key]
        return out

    # -- acquisition / release transfer ----------------------------------
    def eval_expr(self, expr: ast.expr, env: Env):
        if not isinstance(expr, ast.Call):
            if isinstance(expr, ast.Name):
                return env.get(expr.id)
            return None
        call = expr
        f = call.func

        # releases: fh.close(), self._san_cm.__exit__(...), lock.release()
        if isinstance(f, ast.Attribute) and f.attr in RELEASE_ATTRS:
            res = self._lookup(env, _receiver_key(f.value))
            if res is not None:
                self._drop(env, res)
        # releaser-summary calls: self.close() / self._unwind() where the
        # callee's body transitively releases → self-owned tokens are freed
        if (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id == "self"
            and self.owner.releases(self.fn, f.attr)
        ):
            for res in self._open(env):
                if res.owned == "self" or (res.key or "").startswith("self."):
                    self._drop(env, res)

        # ownership transfer: the resource passed whole to another call
        for a in call.args:
            res = self._lookup(env, _receiver_key(a))
            if res is not None:
                self._drop(env, res)
        for kw in call.keywords:
            res = self._lookup(env, _receiver_key(kw.value))
            if res is not None:
                self._drop(env, res)

        # nested calls still execute
        for a in call.args:
            if isinstance(a, ast.Call):
                self.eval_expr(a, env)
        for kw in call.keywords:
            if isinstance(kw.value, ast.Call):
                self.eval_expr(kw.value, env)

        return self._maybe_acquire(call, env)

    def _maybe_acquire(self, call: ast.Call, env: Env):
        if id(call) in self._safe_ids:
            return None
        # only statement-level acquisitions are tracked: conditional
        # acquires (`if lock.acquire(timeout=t):`) are beyond the model
        parent = self.mod.view.parent(call)
        if not isinstance(parent, (ast.Expr, ast.Assign, ast.AnnAssign)):
            return None
        kind = None
        key = None
        f = call.func
        if isinstance(f, ast.Attribute) and f.attr in _ACQUIRE_ATTRS:
            key = _receiver_key(f.value)
            if key is None:
                return None  # pool[i].acquire() — unmodelable receiver
            kind = _ACQUIRE_ATTRS[f.attr]
        else:
            dotted = dotted_name(f)
            if dotted is None:
                return None
            resolved = self.owner.program.resolve(self.mod, dotted)
            kind = RESOURCE_CLASSES.get(resolved) or _OPEN_CALLS.get(resolved)
        if kind is None:
            return None
        token = self._next_token
        self._next_token += 1
        res = _Resource(token, kind, call, key)
        env[f"%res{token}"] = res
        if key is not None:
            env[key] = f"%res{token}"
            if key.startswith("self."):
                res.owned = "self" if self.start_like else "local"
                if not self.start_like:
                    # entering a cm held on self outside start-like methods:
                    # the object owns it; out of scope here
                    self._drop(env, res)
                    return None
        ref = f"%res{token}"
        return ref

    def transfer_assign(self, target, value, node, env: Env) -> None:
        if isinstance(value, str) and value.startswith("%res"):
            res = env.get(value)
            if isinstance(target, ast.Name):
                env[target.id] = value
                if res is not None:
                    res.key = target.id
                return
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if self.start_like and res is not None:
                    env[f"self.{target.attr}"] = value
                    res.owned = "self"
                    res.key = f"self.{target.attr}"
                elif res is not None:
                    self._drop(env, res)  # ownership moves to the object
                return
            if res is not None:
                self._drop(env, res)  # tuple/subscript stores: untracked
            return
        super().transfer_assign(target, value, node, env)

    # -- the checks ------------------------------------------------------
    def transfer_stmt(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, ast.Raise):
            if not self._protected(stmt):
                for res in self._open(env):
                    self.owner.leak_exceptional(self.mod, res, stmt)
            return
        # compound statements are walked piecewise — their inner statements
        # get their own checks, with the correct try-protection context
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                                 ast.Expr, ast.Assert, ast.Delete)):
            return
        if not may_raise(stmt) or self._protected(stmt):
            return
        handled = self._keys_touched(stmt)
        self_release = self._has_self_releaser(stmt)
        for res in self._open(env):
            if res.line >= stmt.lineno:
                continue  # the acquisition itself (or later on this line)
            if res.key is not None and res.key in handled:
                continue  # this statement releases/transfers it
            if self_release and (res.owned == "self"
                                 or (res.key or "").startswith("self.")):
                continue  # self.close()/self._unwind() frees self state
            self.owner.leak_exceptional(self.mod, res, stmt)

    def _has_self_releaser(self, stmt: ast.stmt) -> bool:
        """Does this statement call a self-method that releases state?"""
        for n in ast.walk(stmt):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id == "self"
                and self.owner.releases(self.fn, n.func.attr)
            ):
                return True
        return False

    @staticmethod
    def _keys_touched(stmt: ast.stmt) -> set[str]:
        """Receiver keys released or transferred by this statement."""
        keys: set[str] = set()
        for n in ast.walk(stmt):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            if isinstance(f, ast.Attribute) and f.attr in RELEASE_ATTRS:
                k = _receiver_key(f.value)
                if k is not None:
                    keys.add(k)
            for a in list(n.args) + [kw.value for kw in n.keywords]:
                k = _receiver_key(a)
                if k is not None:
                    keys.add(k)
        return keys

    def _protected(self, stmt: ast.stmt) -> bool:
        """Is an exception at ``stmt`` observable by a handler/finally
        within this function?"""
        prev: ast.AST = stmt
        for anc in self.mod.view.ancestors(stmt):
            if anc is self.fn.node:
                return False
            if isinstance(anc, ast.Try):
                if prev in anc.body or prev in anc.orelse:
                    if anc.handlers or anc.finalbody:
                        return True
                elif any(prev is h or prev in h.body for h in anc.handlers):
                    if anc.finalbody:
                        return True
                # finalbody: an exception there escapes this try — keep
                # climbing to an outer one
            prev = anc
        return False

    def on_exit(self, env: Env, node: ast.stmt | None) -> None:
        if isinstance(node, ast.Return) and node.value is not None:
            # ``return fh`` hands the resource to the caller — the same
            # transfer as returning the acquiring call directly
            for sub in ast.walk(node.value):
                res = self._lookup(env, _receiver_key(sub))
                if res is not None:
                    self._drop(env, res)
        for res in self._open(env):
            if res.owned == "local":
                self.owner.leak_exit(self.mod, res, node)


class _LifecyclePass:
    def __init__(self, program: Program):
        self.program = program
        self.findings: list[RawFinding] = []
        self._reported: set[tuple] = set()
        self._release_summary = self._compute_release_summaries()

    # -- interprocedural release summaries --------------------------------
    def _compute_release_summaries(self) -> set[str]:
        """FQNs whose bodies (transitively) perform a release call."""
        direct: set[str] = set()
        for fqn, fn in self.program.functions.items():
            for n in ast.walk(fn.node):
                if (
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in RELEASE_ATTRS
                ):
                    direct.add(fqn)
                    break
        releases = set(direct)
        for _ in range(8):
            grown = set(releases)
            for fqn in self.program.functions:
                if fqn in grown:
                    continue
                if self.program.callees(fqn) & releases:
                    grown.add(fqn)
            if grown == releases:
                break
            releases = grown
        return releases

    def releases(self, caller: FunctionInfo, method: str) -> bool:
        """Does ``self.<method>()`` from ``caller`` release resources?"""
        if method in RELEASE_ATTRS:
            return True
        if caller.cls is None:
            return False
        m = self.program.method(caller.cls, method)
        return m is not None and m.qualname in self._release_summary

    # -- reporting --------------------------------------------------------
    def leak_exceptional(self, mod, res: _Resource, stmt: ast.stmt) -> None:
        dkey = (mod.relpath, id(res.node), "exc")
        if dkey in self._reported:
            return
        self._reported.add(dkey)
        self.findings.append((mod.view, res.node, (
            f"{res.kind} acquired here is not released when line "
            f"{stmt.lineno} raises: no enclosing try releases it on the "
            f"exceptional path — wrap in try/finally (or unwind in an "
            f"except before re-raising)"
        )))

    def leak_exit(self, mod, res: _Resource, node) -> None:
        dkey = (mod.relpath, id(res.node), "exit")
        if dkey in self._reported:
            return
        self._reported.add(dkey)
        where = f"the return at line {node.lineno}" if node is not None \
            else "the end of the function"
        self.findings.append((mod.view, res.node, (
            f"{res.kind} acquired here can reach {where} without being "
            f"released — release it, transfer ownership explicitly, or use "
            f"a with-block"
        )))

    # -- driver -----------------------------------------------------------
    def run(self) -> Iterator[RawFinding]:
        for fqn in sorted(self.program.functions):
            fn = self.program.functions[fqn]
            if fn.name in _PROTOCOL_FUNCS:
                continue
            if _is_contextmanager(fn.node):
                continue  # acquire-yield-finally: ownership is the with's
            _LifecycleFlow(self, fn).run(fn.node)
        yield from self.findings


def _check_must_release(views: list[ModuleView]) -> Iterator[RawFinding]:
    return _LifecyclePass(Program(views)).run()


register(Rule(
    id="must-release",
    category="runtime",
    summary="a lock/arena/socket/pool/context acquisition can miss its "
            "release on some path — including the exceptional edge "
            "(acquire, raise-before-release, leak)",
    paper="Fig 4 (lock-pool discipline); §V-D worker shm lifecycles",
    program_check=_check_must_release,
))
