"""The whole-program rule of repro.lint: the program model (symbol and
call resolution), the dataflow driver, must-release against its seeded
fixture and its exonerations, report determinism, the self-check over
the real tree, and the CLI."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import LintConfig, LintEngine, RULES, load_config
from repro.lint.dataflow import ForwardAnalysis, may_raise
from repro.lint.engine import ModuleView
from repro.lint.program import Program
from repro.lint.report import render_json, render_sarif, render_text

REPO = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO / "src" / "repro"
SEEDED = Path(__file__).parent / "lint_fixtures" / "must_release" / "seeded.py"

#: The rules that look at the whole program rather than one module.
PROGRAM_RULES = ("must-release",)


def make_program(modules: dict[str, str]) -> Program:
    """An in-memory program from {package-relative path: source}."""
    return Program(
        ModuleView(Path(f"<test:{relpath}>"), relpath, source,
                   ast.parse(source), LintConfig())
        for relpath, source in modules.items()
    )


def analyze(modules: dict[str, str], *, analyses=None):
    """Lint in-memory modules together (``analyses`` selects rule ids)."""
    engine = LintEngine(LintConfig(), rules=analyses)
    findings = []
    for relpath, source in modules.items():
        findings.extend(engine.lint_source(source, relpath=relpath))
    return findings


def lint_seeded(rules=("must-release",)):
    return LintEngine(LintConfig(), rules=rules).lint_source(
        SEEDED.read_text(encoding="utf-8"),
        path=SEEDED, relpath="repro/fixture_lifecycle.py",
    )


def active(findings):
    return [f for f in findings if not f.suppressed]


# ======================================================================
# symbols + call graph
# ======================================================================
class TestSymbols:
    def test_from_import_resolves_to_defining_module(self):
        program = make_program({
            "repro/helpers.py": "def work(x):\n    return x\n",
            "repro/driver.py": "from repro.helpers import work\n\n"
                               "def go(x):\n    return work(x)\n",
        })
        driver = program.modules["repro.driver"]
        assert program.resolve(driver, "work") == "repro.helpers.work"
        assert program.function("repro.helpers.work") is not None

    def test_relative_import_resolves(self):
        program = make_program({
            "repro/helpers.py": "def work(x):\n    return x\n",
            "repro/driver.py": "from .helpers import work\n\n"
                               "def go(x):\n    return work(x)\n",
        })
        driver = program.modules["repro.driver"]
        assert program.resolve(driver, "work") == "repro.helpers.work"

    def test_method_found_through_base_chain(self):
        program = make_program({
            "repro/base.py": "class A:\n    def m(self):\n        return 1\n",
            "repro/derived.py": "from repro.base import A\n\n"
                                "class B(A):\n    pass\n",
        })
        b = program.klass("repro.derived.B")
        assert b is not None
        m = program.method(b, "m")
        assert m is not None and m.name == "m"


class TestCallGraph:
    def test_direct_call_edge(self):
        program = make_program({
            "repro/helpers.py": "def work(x):\n    return x\n",
            "repro/driver.py": "from repro.helpers import work\n\n"
                               "def go(x):\n    return work(x)\n",
        })
        assert "repro.helpers.work" in program.callees("repro.driver.go")

    def test_constructor_types_receiver_methods(self):
        program = make_program({
            "repro/pool.py": "class Pool:\n"
                             "    def dispatch(self, fn):\n"
                             "        return fn()\n",
            "repro/driver.py": "from repro.pool import Pool\n\n"
                               "def go(fn):\n"
                               "    p = Pool()\n"
                               "    return p.dispatch(fn)\n",
        })
        assert "repro.pool.Pool.dispatch" in program.callees("repro.driver.go")

    def test_reachability_closures(self):
        # release effects close over the call graph: the unwind handler
        # releases two calls deep, and must-release follows it there
        findings = analyze({
            "repro/m.py": (
                "class C:\n"
                "    def _close_all(self):\n"
                "        self._fh.close()\n\n"
                "    def _unwind(self):\n"
                "        self._close_all()\n\n"
                "    def start(self, path):\n"
                "        self._fh = open(path)\n"
                "        try:\n"
                "            self._parse()\n"
                "        except BaseException:\n"
                "            self._unwind()\n"
                "            raise\n"
            ),
        }, analyses=["must-release"])
        assert not active(findings)


# ======================================================================
# the forward-dataflow driver
# ======================================================================
class _ConstFlow(ForwardAnalysis):
    """Tiny integer-constant propagation for driver tests."""

    def eval_expr(self, expr, env):
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return expr.value
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        return None


def _exit_envs(src: str):
    fn = ast.parse(src).body[0]
    return _ConstFlow().run(fn)


class TestDataflow:
    def test_straight_line_binding(self):
        (env,) = _exit_envs("def f():\n    x = 1\n    return x\n")
        assert env["x"] == 1

    def test_branch_join_keeps_agreement_only(self):
        (env,) = _exit_envs(
            "def f(c):\n"
            "    if c:\n        x = 1\n        y = 5\n"
            "    else:\n        x = 2\n        y = 5\n"
            "    return x\n")
        assert "x" not in env  # disagrees across arms
        assert env["y"] == 5   # agrees across arms

    def test_loop_reaches_fixpoint(self):
        (env,) = _exit_envs(
            "def f(xs):\n"
            "    x = 1\n"
            "    for _ in xs:\n        x = 2\n"
            "    return x\n")
        assert "x" not in env  # 1 on the zero-trip path, 2 otherwise

    def test_each_return_gets_its_own_env(self):
        envs = _exit_envs(
            "def f(c):\n"
            "    if c:\n        x = 1\n        return x\n"
            "    x = 2\n    return x\n")
        assert sorted(e["x"] for e in envs) == [1, 2]

    def test_may_raise_vocabulary(self):
        def stmt(src):
            return ast.parse(src).body[0]
        assert not may_raise(stmt("x = y"))
        assert not may_raise(stmt("self.x = y"))  # plain attribute store
        assert may_raise(stmt("x = f()"))
        assert may_raise(stmt("a[i] = 1"))
        assert may_raise(stmt("raise ValueError"))
        assert may_raise(stmt("assert x"))
        # a nested def's body does not run at the def statement
        assert not may_raise(stmt("def g():\n    return f()"))


# ======================================================================
# the seeded-fault fixture (a rotting rule must fail the suite)
# ======================================================================
class TestSelfcheck:
    def test_selfcheck_passes(self):
        # every seeded leak is caught on its marked line, and the clean
        # twins stay clean: exact-set agreement
        source = SEEDED.read_text(encoding="utf-8")
        expected = {i for i, line in enumerate(source.splitlines(), 1)
                    if "expect: must-release" in line}
        findings = active(lint_seeded())
        assert {f.line for f in findings} == expected
        assert {f.rule for f in findings} == {"must-release"}
        messages = " ".join(f.message for f in findings)
        assert "raises" in messages  # the exceptional-path leak
        assert "can reach the return" in messages  # the exit-path leak

    def test_every_analysis_has_a_seeded_fixture(self):
        program_rules = {rid for rid, r in RULES.items()
                         if r.program_check is not None}
        assert program_rules == set(PROGRAM_RULES)
        for rid in program_rules:
            seeded = SEEDED.parent.parent / rid.replace("-", "_") / "seeded.py"
            assert f"expect: {rid}" in seeded.read_text(encoding="utf-8")

    def test_analysis_rules_registered_without_lexical_check(self):
        for rid in PROGRAM_RULES:
            assert rid in RULES and RULES[rid].check is None
            assert RULES[rid].program_check is not None

    def test_analysis_subset_selection(self):
        # the full linter also sees the unguarded acquire lexically;
        # selecting the whole-program rule runs it alone
        everything = {f.rule for f in active(lint_seeded(rules=None))}
        assert {"must-release", "lock-no-finally"} <= everything
        assert {f.rule for f in active(lint_seeded())} == {"must-release"}

    def test_unknown_analysis_id_rejected(self):
        with pytest.raises(ValueError):
            LintEngine(LintConfig(), rules=["dispatch-contract"])


# ======================================================================
# must-release specifics
# ======================================================================
class TestLifecycle:
    def test_with_statement_is_safe(self):
        findings = analyze({
            "repro/m.py": (
                "def f(path, work):\n"
                "    with open(path) as fh:\n"
                "        return work(fh.read())\n"
            ),
        }, analyses=["must-release"])
        assert not active(findings)

    def test_returning_the_handle_transfers_ownership(self):
        findings = analyze({
            "repro/m.py": "def f(path):\n    fh = open(path)\n    return fh\n",
        }, analyses=["must-release"])
        assert not active(findings)

    def test_passing_the_handle_transfers_ownership(self):
        findings = analyze({
            "repro/m.py": (
                "def f(path, sink):\n"
                "    fh = open(path)\n"
                "    sink.adopt(fh)\n"
            ),
        }, analyses=["must-release"])
        assert not active(findings)

    def test_self_stored_in_start_flags_unprotected_raise_site(self):
        findings = analyze({
            "repro/m.py": (
                "class C:\n"
                "    def start(self, path):\n"
                "        self._fh = open(path)\n"
                "        self._parse()\n"
            ),
        }, analyses=["must-release"])
        flagged = active(findings)
        assert [f.rule for f in flagged] == ["must-release"]
        assert flagged[0].line == 3  # reported at the acquire site
        assert "raise" in flagged[0].message

    def test_unwind_through_self_close_is_safe(self):
        # the exact shape of the ReproServer.start fix: the unwind handler
        # releases through a self-method whose summary frees the token
        findings = analyze({
            "repro/m.py": (
                "class C:\n"
                "    def close(self):\n"
                "        if self._fh is not None:\n"
                "            self._fh.close()\n"
                "            self._fh = None\n\n"
                "    def start(self, path):\n"
                "        self._fh = open(path)\n"
                "        try:\n"
                "            self._parse()\n"
                "        except BaseException:\n"
                "            self.close()\n"
                "            raise\n"
            ),
        }, analyses=["must-release"])
        assert not active(findings)

    def test_suppression_comment_silences_with_reason(self):
        findings = analyze({
            "repro/m.py": (
                "def f(lock, work):\n"
                "    lock.acquire()  # reprolint: allow(must-release) — "
                "released by the caller\n"
                "    work()\n"
            ),
        }, analyses=["must-release"])
        assert not active(findings)
        assert any(f.suppressed and f.rule == "must-release" for f in findings)


# ======================================================================
# determinism + the shipped tree
# ======================================================================
class TestDeterminism:
    def test_fixture_reports_byte_identical(self):
        runs = []
        for _ in range(2):
            findings = lint_seeded()
            runs.append((render_json(findings), render_sarif(findings)))
        assert runs[0] == runs[1]

    def test_src_repro_report_byte_identical(self):
        cfg = load_config(REPO / "pyproject.toml")
        a = render_json(LintEngine(cfg, rules=PROGRAM_RULES).lint_paths([SRC_REPRO]))
        b = render_json(LintEngine(cfg, rules=PROGRAM_RULES).lint_paths([SRC_REPRO]))
        assert a == b
        assert str(REPO) not in a  # package-relative paths only


class TestSelfClean:
    """The shipped tree must be must-release-clean under the shipped config."""

    def test_src_repro_is_clean(self):
        cfg = load_config(REPO / "pyproject.toml")
        findings = LintEngine(cfg, rules=PROGRAM_RULES).lint_paths([SRC_REPRO])
        dirty = active(findings)
        assert not dirty, render_text(findings)

    def test_suppressions_in_tree_all_carry_reasons(self):
        cfg = load_config(REPO / "pyproject.toml")
        for f in LintEngine(cfg).lint_paths([SRC_REPRO]):
            if f.rule in PROGRAM_RULES:
                assert f.suppressed and f.reason


# ======================================================================
# the CLI (module form and the ``repro`` subcommands)
# ======================================================================
def run_cli(*args, module="repro.lint", cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


def _leaky_tree(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "def f(path, work):\n    fh = open(path)\n    work(path)\n"
        "    fh.close()\n"
    )
    return tmp_path / "repro"


class TestCli:
    def test_clean_tree_exits_zero(self):
        proc = run_cli("src/repro", "--rules", "must-release")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro.lint: clean" in proc.stdout

    def test_dirty_tree_exits_one(self, tmp_path):
        proc = run_cli(str(_leaky_tree(tmp_path)))
        assert proc.returncode == 1
        assert "must-release" in proc.stdout

    def test_list_analyses(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rid in PROGRAM_RULES:
            assert rid in proc.stdout

    def test_json_stdout(self, tmp_path):
        proc = run_cli(str(_leaky_tree(tmp_path)), "--json", "-")
        assert proc.returncode == 1, proc.stderr
        report = json.loads(proc.stdout)
        assert report["tool"] == "repro.lint"
        assert report["summary"]["by_rule"] == {"must-release": 1}

    def test_sarif_file_written(self, tmp_path):
        out = tmp_path / "report.sarif"
        proc = run_cli(str(_leaky_tree(tmp_path)), "--sarif", str(out))
        assert proc.returncode == 1
        sarif = json.loads(out.read_text())
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        assert [r["ruleId"] for r in run["results"]] == ["must-release"]

    def test_repro_analyze_subcommand(self):
        # the separate analyzer is gone: must-release runs under repro lint
        proc = run_cli("analyze", "src/repro", module="repro.cli")
        assert proc.returncode == 2
        assert "invalid choice: 'analyze'" in proc.stderr

    def test_repro_lint_subcommand(self):
        proc = run_cli("lint", "src/repro", module="repro.cli")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro.lint: clean" in proc.stdout

    def test_repro_lint_subcommand_exit_one_on_findings(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("def f(x):\n    assert x\n    return x\n")
        proc = run_cli("lint", str(tmp_path / "repro"), module="repro.cli")
        assert proc.returncode == 1
        assert "assert-invariant" in proc.stdout
