"""Import hygiene: the CP-ALS path loads only what it runs.

``repro/__init__.py`` resolves its public names on first access, so a
process that imports the solver pays for numpy and the solve path, not for
scipy or the analysis, tucker, serve and distributed subsystems.  Each
check runs in a fresh interpreter, since this test process has long since
imported everything.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import repro

#: Subpackages a CP-ALS process must not load.
OFF_PATH = ("analysis", "tucker", "serve", "lint", "distributed", "completion",
            "constrained", "perfmodel", "sanitize")


def _fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _off_path(modules: list[str]) -> list[str]:
    return [m for m in modules
            if m.split(".")[0] == "scipy"
            or (m.startswith("repro.") and m.split(".")[1] in OFF_PATH)]


def test_solve_path_imports_no_scipy_and_no_subsystems():
    modules = _fresh(
        "import json, sys\n"
        "import repro.core.cpals, repro.tensor.io, repro.backend\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.core.cpals" in modules
    assert _off_path(modules) == []


def test_compiled_solve_imports_no_scipy():
    """A whole cext ``cp_als`` run, 1 and 2 tasks, stays scipy-free."""
    out = _fresh(
        "import json, sys\n"
        "from repro.backend import resolve_backend\n"
        "from repro.core.cpals import cp_als\n"
        "from repro.core.options import CpalsOptions\n"
        "from repro.runtime.env import ChapelEnv\n"
        "from repro.tensor.generate import random_tensor\n"
        "backend = resolve_backend('auto')\n"
        "x = random_tensor((30, 20, 10), 600, seed=0)\n"
        "for tasks in (1, 2):\n"
        "    cp_als(x, 4, CpalsOptions(max_iterations=3, backend=backend.name,\n"
        "                              env=ChapelEnv(num_tasks=tasks)))\n"
        "print(json.dumps([backend.compiled, sorted(sys.modules)]))\n"
    )
    compiled, modules = out
    if not compiled:
        pytest.skip("no compiled backend on this host")
    assert _off_path(modules) == []


def test_every_public_name_resolves_lazily():
    out = _fresh(
        "import json, sys\n"
        "import repro\n"
        "bare = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "attrs = {n: type(getattr(repro, n)).__name__ for n in repro.__all__}\n"
        "ns = {}\n"
        "exec('from repro import *', ns)\n"
        "print(json.dumps([bare, attrs, sorted(ns)]))\n"
    )
    bare, attrs, star = out
    assert bare == []
    assert set(attrs) == set(repro.__all__)
    assert set(repro.__all__) <= set(star)


#: The subpackages ``repro.<name>`` reads without an import statement,
#: as the eager package init made them (``repro.mttkrp`` is the function).
SUBPACKAGES = ("_util", "analysis", "backend", "completion", "constrained", "core",
               "csf", "distributed", "linalg", "observe", "probe",
               "resilience", "runtime", "tensor", "tucker")


def test_subpackages_resolve_as_attributes():
    out = _fresh(
        "import json, types\n"
        "import repro\n"
        f"names = {SUBPACKAGES!r}\n"
        "print(json.dumps({n: isinstance(getattr(repro, n), types.ModuleType)\n"
        "                  for n in names}))\n"
    )
    assert out == dict.fromkeys(SUBPACKAGES, True)


def test_dir_is_the_public_names_and_subpackages():
    listed = _fresh("import json, repro\nprint(json.dumps(dir(repro)))\n")
    dunders = {n for n in listed if n.startswith("__") and n.endswith("__")}
    assert listed == sorted(dunders | set(repro.__all__) | set(SUBPACKAGES))
    assert "_Package" not in listed
    assert "__getattr__" not in listed
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        repro.not_a_name  # noqa: B018


def test_mttkrp_stays_the_function_once_its_subpackage_loads():
    """``repro.mttkrp`` is the public function, though the import system
    binds the ``repro.mttkrp`` subpackage on the package when the solve
    path first imports it."""
    out = _fresh(
        "import json, sys\n"
        "import repro\n"
        "repro.cp_als\n"
        "import repro.mttkrp.variants\n"
        "from repro import mttkrp\n"
        "function = sys.modules['repro.mttkrp.variants'].mttkrp\n"
        "print(json.dumps([repro.mttkrp is function, mttkrp is function]))\n"
    )
    assert out == [True, True]
