"""Whole-program view for the rules that need more than one module.

Where a per-module rule sees one :class:`~repro.lint.engine.ModuleView`,
a whole-program rule (``must-release``) gets every linted module at once:
each module's import table (local alias → dotted target), its top-level
functions and classes (methods included), a resolver that turns the
dotted names appearing in source (``ShmArena.attach``, ``self.close``)
into project-wide fully-qualified names, and the resolved callees of
every function.

Nothing is ever imported: like the rest of the linter this works purely
on :mod:`ast`, so the result is a pure function of the sources.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.lint.engine import ModuleView

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "dotted_name",
    "local_types",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class FunctionInfo:
    """One function or method, addressable project-wide."""

    qualname: str  #: fully qualified: ``repro.serve.server.ReproServer.start``
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: "ClassInfo | None" = None  #: owning class, when a method

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    """One class: its methods and (unresolved) base names."""

    qualname: str
    module: "ModuleInfo"
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


def dotted_name(expr: ast.AST) -> str | None:
    """``a.b.c`` attribute/name chains as a dotted string, else ``None``."""
    parts: list[str] = []
    cur = expr
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def module_name(relpath: str) -> str:
    """``repro/runtime/locks.py`` → ``repro.runtime.locks``."""
    dotted = relpath[:-3] if relpath.endswith(".py") else relpath
    dotted = dotted.replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


class ModuleInfo:
    """One linted module plus its local name bindings."""

    def __init__(self, view: ModuleView):
        self.view = view
        self.relpath = view.relpath
        self.name = module_name(view.relpath)
        #: local alias → dotted target (``np`` → ``numpy``, ``ShmArena``
        #: → ``repro.distributed.shm.ShmArena``).
        self.imports: dict[str, str] = {}
        self.functions: dict[str, FunctionInfo] = {}  #: local name → info
        self.classes: dict[str, ClassInfo] = {}
        for node in view.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.split(".")[0]
                    self.imports[alias.asname or head] = (
                        alias.name if alias.asname else head
                    )
            elif isinstance(node, ast.ImportFrom):
                base = self._from_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name != "*":
                        self.imports[alias.asname or alias.name] = f"{base}.{alias.name}"
            elif isinstance(node, _FUNC_NODES):
                self.functions[node.name] = FunctionInfo(
                    f"{self.name}.{node.name}", self, node)
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)

    def _from_base(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        # relative import: resolve against this module's dotted name
        parts = self.name.split(".")
        if node.level > len(parts):
            return None
        base = parts[: len(parts) - node.level]
        if node.module:
            base.append(node.module)
        return ".".join(base) if base else None

    def _collect_class(self, node: ast.ClassDef) -> None:
        qn = f"{self.name}.{node.name}"
        info = ClassInfo(qn, self)
        for b in node.bases:
            dotted = dotted_name(b)
            if dotted is not None:
                info.bases.append(dotted)
        for item in node.body:
            if isinstance(item, _FUNC_NODES):
                info.methods[item.name] = FunctionInfo(
                    f"{qn}.{item.name}", self, item, cls=info)
        self.classes[node.name] = info


class Program:
    """All linted modules, with cross-module name and call resolution."""

    def __init__(self, views: Iterable[ModuleView]):
        self.modules: dict[str, ModuleInfo] = {}  #: dotted name → module
        #: Every function/method in the program, by fully qualified name.
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        for view in views:
            mod = ModuleInfo(view)
            self.modules[mod.name] = mod
            for fn in mod.functions.values():
                self.functions[fn.qualname] = fn
            for cls in mod.classes.values():
                self.classes[cls.qualname] = cls
                for m in cls.methods.values():
                    self.functions[m.qualname] = m
        self._callees: dict[str, set[str]] | None = None

    # ------------------------------------------------------------------
    def resolve(self, mod: ModuleInfo, dotted: str) -> str:
        """Resolve a dotted name as used inside ``mod`` to a program FQN.

        ``ShmArena.attach`` → ``repro.distributed.shm.ShmArena.attach``;
        names that do not resolve into the program come back in their
        import-expanded form (``socket.socket``) so callers can still
        pattern-match external APIs.
        """
        head, _, rest = dotted.partition(".")
        if head in mod.functions:
            target = mod.functions[head].qualname
        elif head in mod.classes:
            target = mod.classes[head].qualname
        else:
            target = mod.imports.get(head, head)
        return f"{target}.{rest}" if rest else target

    def function(self, fqn: str) -> FunctionInfo | None:
        """Look up a function by FQN, following one re-export hop."""
        fn = self.functions.get(fqn)
        if fn is not None:
            return fn
        head, _, tail = fqn.rpartition(".")
        mod = self.modules.get(head)
        if mod is not None and tail:
            if tail in mod.functions:
                return mod.functions[tail]
            if tail in mod.imports:  # re-export hop
                return self.functions.get(mod.imports[tail])
        return None

    def klass(self, fqn: str) -> ClassInfo | None:
        cls = self.classes.get(fqn)
        if cls is not None:
            return cls
        head, _, tail = fqn.rpartition(".")
        mod = self.modules.get(head)
        if mod is not None and tail and tail in mod.imports:
            return self.classes.get(mod.imports[tail])
        return None

    def method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Method lookup through the (program-visible) base-class chain."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            cur = stack.pop(0)
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            if name in cur.methods:
                return cur.methods[name]
            for base in cur.bases:
                base_cls = self.klass(self.resolve(cur.module, base))
                if base_cls is not None:
                    stack.append(base_cls)
        return None

    # ------------------------------------------------------------------
    def callees(self, fqn: str) -> set[str]:
        """FQNs of the functions, methods and classes ``fqn`` calls."""
        if self._callees is None:
            self._callees = {}
            for qn, fn in self.functions.items():
                types = local_types(self, fn.module, fn.node)
                found = set()
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Call):
                        callee = self._resolve_call(fn, node, types)
                        if callee is not None:
                            found.add(callee)
                self._callees[qn] = found
        return self._callees.get(fqn, set())

    def _resolve_call(self, caller: FunctionInfo, call: ast.Call,
                      types: dict[str, str]) -> str | None:
        f = call.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            # self.method() through the enclosing class hierarchy, or a
            # receiver whose class is known: x = ShmArena(); x.close()
            owner = None
            if f.value.id in ("self", "cls"):
                owner = caller.cls
            elif f.value.id in types:
                owner = self.klass(types[f.value.id])
            if owner is not None:
                m = self.method(owner, f.attr)
                if m is not None:
                    return m.qualname
        dotted = dotted_name(f)
        if dotted is None:
            return None
        resolved = self.resolve(caller.module, dotted)
        if self.klass(resolved) is not None:  # constructor call
            return resolved
        fn = self.function(resolved)
        if fn is not None:
            return fn.qualname
        # ClassName.method(...) used unbound / classmethod style
        head, _, tail = resolved.rpartition(".")
        owner = self.klass(head) if tail else None
        if owner is not None:
            m = self.method(owner, tail)
            if m is not None:
                return m.qualname
        return None


def local_types(program: Program, mod: ModuleInfo, fn: ast.AST) -> dict[str, str]:
    """Map local variable names to class FQNs where statically evident.

    Covers ``x = SomeClass(...)``, the classmethod constructor
    ``x = SomeClass.attach(...)`` and ``with SomeClass(...) as x:``.
    Reassignment to anything else forgets the binding.
    """
    types: dict[str, str] = {}

    def class_of(call: ast.AST) -> str | None:
        if not isinstance(call, ast.Call):
            return None
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        resolved = program.resolve(mod, dotted)
        if program.klass(resolved) is not None:
            return resolved
        head, _, tail = resolved.rpartition(".")
        if tail and program.klass(head) is not None:
            return head
        return None

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            cls = class_of(node.value)
            if cls is not None:
                types[node.targets[0].id] = cls
            else:
                types.pop(node.targets[0].id, None)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    cls = class_of(item.context_expr)
                    if cls is not None:
                        types[item.optional_vars.id] = cls
    return types
