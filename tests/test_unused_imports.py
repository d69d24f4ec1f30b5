"""Every module-level import in ``src/repro`` is used.

``repro.lint`` has no unused-import rule, and deleting a definition is the
usual way one gets stranded.  This walks each module's AST and fails on a
module-level import whose bound name is never referenced.  Package
``__init__.py`` files (re-exports) and names listed in ``__all__`` are
exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _module_imports(tree: ast.Module):
    """``(name, lineno)`` for each name a module-level import binds.

    Imports nested in module-level ``if``/``try`` blocks count too; those
    inside functions and classes do not.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names used anywhere in the module, quoted annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a quoted annotation such as "_obs.TraceRecorder"
                expr = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _dunder_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree) | _dunder_all(tree)
    rel = path.relative_to(SRC.parent)
    return [f"{rel}:{line}: {name}"
            for name, line in _module_imports(tree) if name not in used]


def test_no_unused_module_imports():
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert modules, f"no modules found under {SRC}"
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert not unused, "module-level imports never referenced:\n" + "\n".join(unused)


def test_scanner_flags_a_stranded_import(tmp_path):
    """Positive control: the scan sees an unused import and ignores used,
    quoted-annotation and ``__all__`` ones."""
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os\n"
        "import json\n"
        "from typing import Any\n"
        "from pathlib import Path\n"
        "__all__ = ['Path']\n"
        "def f(x: 'Any') -> None:\n"
        "    return json.dumps(x)\n"
    )
    tree = ast.parse(mod.read_text())
    used = _referenced_names(tree) | _dunder_all(tree)
    assert [n for n, _ in _module_imports(tree) if n not in used] == ["os"]
