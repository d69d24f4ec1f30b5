"""repro.lint: fixtures per rule, suppression semantics, determinism,
the self-check over the real tree, the CLI, and the two kernel rewrites
the linter motivated (SGD scatter, order-1 root broadcast)."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.lint import LintConfig, LintEngine, RULES, load_config
from repro.lint.report import render_json, render_rule_catalog, render_text, summarize

REPO = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO / "src" / "repro"
FIXTURES = Path(__file__).parent / "lint_fixtures"

#: Fixture rules → the package-relative path the fixture is linted *as*,
#: chosen so the rule's module scoping (LintConfig defaults) applies.
FIXTURE_RELPATH = {
    "hot-loop-alloc": "repro/mttkrp/fixture.py",
    "row-slice-copy": "repro/mttkrp/fixture.py",
    "raw-scatter": "repro/completion/fixture.py",
    "raw-threading": "repro/core/fixture.py",
    "lock-no-finally": "repro/core/fixture.py",
    "span-no-ctx": "repro/core/fixture.py",
    "assert-invariant": "repro/core/fixture.py",
    "bare-except": "repro/core/fixture.py",
    "mutable-default-arg": "repro/core/fixture.py",
}
CHECKED_RULES = sorted(FIXTURE_RELPATH)


def lint_fixture(rule: str, variant: str):
    # every per-module rule runs, so a fixture that trips a neighbouring
    # rule is caught; the whole-program must-release rule has its own
    # seeded fixture (tests/test_analyze.py) and would also flag the
    # lock-no-finally positive, which is a lock leak as well
    path = FIXTURES / rule.replace("-", "_") / f"{variant}.py"
    source = path.read_text(encoding="utf-8")
    engine = LintEngine(rules=CHECKED_RULES)
    return engine.lint_source(source, path=path, relpath=FIXTURE_RELPATH[rule])


def active(findings):
    return [f for f in findings if not f.suppressed]


class TestRuleRegistry:
    def test_all_fixture_rules_registered(self):
        for rule in CHECKED_RULES:
            assert rule in RULES and RULES[rule].check is not None

    def test_every_checked_rule_has_fixtures(self):
        checked = {rid for rid, r in RULES.items() if r.check is not None}
        assert checked == set(CHECKED_RULES)

    def test_meta_rules_registered_without_check(self):
        for rid in ("parse-error", "bad-suppression", "unused-suppression"):
            assert rid in RULES and RULES[rid].check is None

    def test_catalog_lists_every_rule(self):
        catalog = render_rule_catalog()
        for rid in RULES:
            assert rid in catalog


class TestFixtures:
    @pytest.mark.parametrize("rule", CHECKED_RULES)
    def test_positive_flags(self, rule):
        findings = active(lint_fixture(rule, "positive"))
        assert findings, f"{rule}: positive fixture produced no findings"
        assert all(f.rule == rule for f in findings), (
            f"{rule}: positive fixture leaked other rules: "
            f"{sorted({f.rule for f in findings})}"
        )

    @pytest.mark.parametrize("rule", CHECKED_RULES)
    def test_suppressed_is_silent_but_audited(self, rule):
        findings = lint_fixture(rule, "suppressed")
        assert not active(findings), f"{rule}: suppression did not silence"
        silenced = [f for f in findings if f.suppressed and f.rule == rule]
        assert silenced, f"{rule}: suppressed finding missing from report"
        assert all(f.reason for f in silenced)

    @pytest.mark.parametrize("rule", CHECKED_RULES)
    def test_clean_rewrite_passes(self, rule):
        findings = lint_fixture(rule, "clean")
        assert not findings, (
            f"{rule}: clean fixture still flagged: "
            f"{[(f.rule, f.line) for f in findings]}"
        )

    def test_positive_and_clean_differ(self):
        # guard against a fixture pair accidentally being the same file
        for rule in CHECKED_RULES:
            d = FIXTURES / rule.replace("-", "_")
            assert (d / "positive.py").read_text() != (d / "clean.py").read_text()


class TestSuppressionAudit:
    def _lint_meta(self, name):
        path = FIXTURES / "meta" / name
        engine = LintEngine()
        return engine.lint_source(
            path.read_text(encoding="utf-8"), path=path,
            relpath="repro/core/fixture.py",
        )

    def test_reasonless_suppression_stays_in_force(self):
        findings = self._lint_meta("no_reason.py")
        rules = {f.rule for f in active(findings)}
        # the original finding is NOT silenced, and the suppression itself
        # is reported
        assert "assert-invariant" in rules
        assert "bad-suppression" in rules

    def test_unknown_rule_id_reported(self):
        findings = self._lint_meta("unknown_rule.py")
        bad = [f for f in active(findings) if f.rule == "bad-suppression"]
        assert bad and "unknown rule" in bad[0].message

    def test_unused_suppression_reported(self):
        findings = self._lint_meta("unused.py")
        assert [f.rule for f in active(findings)] == ["unused-suppression"]

    def test_parse_error_reported(self):
        findings = self._lint_meta("parse_error.py")
        assert [f.rule for f in findings] == ["parse-error"]

    def test_def_line_suppression_scopes_to_body(self):
        findings = lint_fixture("row-slice-copy", "suppressed")
        # both the .copy() and the fancy gather inside the body are silenced
        # by the single def-line comment
        assert len([f for f in findings if f.suppressed]) >= 2


class TestConfig:
    def test_defaults_scope_perf_rules_to_kernels(self):
        src = "import numpy as np\n\ndef f(xs, out):\n    for x in xs:\n        out[x] = np.zeros(3)\n"
        engine = LintEngine()
        # same source: hot in a kernel module, ignored in a driver module
        hot = engine.lint_source(src, relpath="repro/mttkrp/foo.py")
        cold = engine.lint_source(src, relpath="repro/core/foo.py")
        assert [f.rule for f in hot] == ["hot-loop-alloc"]
        assert cold == []

    def test_hot_exclude_carves_out_reference(self):
        src = "import numpy as np\n\ndef f(xs, out):\n    for x in xs:\n        out[x] = np.zeros(3)\n"
        engine = LintEngine()
        assert engine.lint_source(src, relpath="repro/mttkrp/reference.py") == []

    def test_plan_less_guard_excuses_fallback(self):
        src = (
            "import numpy as np\n\n"
            "def kernel(n, ws=None):\n"
            "    if ws is None:\n"
            "        buf = np.zeros(n)\n"
            "    else:\n"
            "        buf = ws.buf(('b',), (n,))\n"
            "    return buf\n"
        )
        engine = LintEngine()
        assert engine.lint_source(src, relpath="repro/mttkrp/foo.py") == []

    def test_workspace_function_is_hot_outside_guard(self):
        src = (
            "import numpy as np\n\n"
            "def kernel(n, ws=None):\n"
            "    return np.zeros(n)\n"
        )
        engine = LintEngine()
        findings = engine.lint_source(src, relpath="repro/mttkrp/foo.py")
        assert [f.rule for f in findings] == ["hot-loop-alloc"]

    def test_allow_rules_glob(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text("def f(x):\n    assert x\n    return x\n")
        cfg = LintConfig(allow_rules=("assert-invariant:repro/core/*",))
        findings = LintEngine(cfg).lint_paths([pkg])
        assert findings and all(f.suppressed for f in findings)
        assert findings[0].reason == "config allowlist (rule:path)"

    def test_allow_fingerprints(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text("def f(x):\n    assert x\n    return x\n")
        first = LintEngine().lint_paths([pkg])
        fp = [f.fingerprint for f in first if not f.suppressed]
        assert fp
        cfg = LintConfig(allow_fingerprints=tuple(fp))
        again = LintEngine(cfg).lint_paths([pkg])
        assert all(f.suppressed for f in again)

    def test_load_config_reads_tool_section(self, tmp_path):
        py = tmp_path / "pyproject.toml"
        py.write_text(
            "[tool.reprolint]\nhot-modules = [\"repro/x/*.py\"]\n"
            "allow-rules = [\"bare-except:repro/io/*\"]\n"
        )
        cfg = load_config(py)
        assert cfg.hot_modules == ("repro/x/*.py",)
        assert cfg.allow_rules == ("bare-except:repro/io/*",)
        # untouched fields keep their defaults
        assert cfg.threading_allow == LintConfig().threading_allow

    def test_rule_selection_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            LintEngine(rules=["no-such-rule"])


class TestDeterminism:
    def test_json_report_byte_identical_across_runs(self):
        cfg = load_config(REPO / "pyproject.toml")
        a = render_json(LintEngine(cfg).lint_paths([SRC_REPRO]))
        b = render_json(LintEngine(cfg).lint_paths([SRC_REPRO]))
        assert a == b

    def test_fingerprints_survive_line_drift(self):
        src = "def f(x):\n    assert x\n    return x\n"
        drifted = "\n\n# an unrelated comment\n\n" + src
        engine = LintEngine()
        fp1 = {f.fingerprint for f in engine.lint_source(src, relpath="repro/a.py")}
        fp2 = {f.fingerprint for f in engine.lint_source(drifted, relpath="repro/a.py")}
        assert fp1 == fp2

    def test_duplicate_lines_get_distinct_fingerprints(self):
        src = "def f(x, y):\n    assert x\n    assert x\n    return y\n"
        engine = LintEngine()
        fps = [f.fingerprint for f in engine.lint_source(src, relpath="repro/a.py")]
        assert len(fps) == 2 and fps[0] != fps[1]

    def test_report_has_no_absolute_paths(self):
        cfg = load_config(REPO / "pyproject.toml")
        payload = render_json(LintEngine(cfg).lint_paths([SRC_REPRO]))
        assert str(REPO) not in payload


class TestSelfCheck:
    """The shipped tree must be lint-clean under the shipped config."""

    def test_src_repro_is_clean(self):
        cfg = load_config(REPO / "pyproject.toml")
        findings = LintEngine(cfg).lint_paths([SRC_REPRO])
        dirty = active(findings)
        assert not dirty, render_text(findings)

    def test_suppressions_in_tree_all_carry_reasons(self):
        cfg = load_config(REPO / "pyproject.toml")
        findings = LintEngine(cfg).lint_paths([SRC_REPRO])
        for f in findings:
            assert f.suppressed and f.reason

    def test_summary_counts_are_consistent(self):
        cfg = load_config(REPO / "pyproject.toml")
        findings = LintEngine(cfg).lint_paths([SRC_REPRO])
        s = summarize(findings)
        assert s["active"] == 0
        assert s["suppressed"] == len(findings)


def run_cli(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestCli:
    def test_clean_tree_exits_zero(self):
        proc = run_cli("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro.lint: clean" in proc.stdout

    def test_dirty_tree_exits_one(self, tmp_path):
        pkg = tmp_path / "repro" / "mttkrp"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "import numpy as np\n\ndef f(xs, out):\n"
            "    for x in xs:\n        out[x] = np.zeros(3)\n"
        )
        proc = run_cli(str(tmp_path / "repro"))
        assert proc.returncode == 1
        assert "hot-loop-alloc" in proc.stdout

    def test_json_stdout_parses_and_matches_text_verdict(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("def f(x):\n    assert x\n    return x\n")
        proc = run_cli(str(tmp_path / "repro"), "--json", "-")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["tool"] == "repro.lint"
        assert report["summary"]["active"] == 1
        assert report["findings"][0]["rule"] == "assert-invariant"

    def test_json_file_written(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("src/repro", "--json", str(out))
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["summary"]["active"] == 0

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rid in ("hot-loop-alloc", "raw-scatter", "assert-invariant"):
            assert rid in proc.stdout

    def test_rule_selection(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("def f(x):\n    assert x\n    return x\n")
        proc = run_cli(str(tmp_path / "repro"), "--rules", "bare-except")
        assert proc.returncode == 0  # the assert rule was not selected

    def test_show_suppressed_lists_reasons(self):
        proc = run_cli("src/repro", "--show-suppressed")
        assert proc.returncode == 0
        assert "allowed [" in proc.stdout
        assert "reason:" in proc.stdout


# ======================================================================
# the two kernel rewrites the linter motivated (satellite verification)
# ======================================================================
class TestSgdScatterEquivalence:
    """The segment-sum SGD scatter matches the np.add.at formulation."""

    def _make_problem(self, seed=0):
        from repro.tensor.generate import random_tensor

        rng = np.random.default_rng(seed)
        tensor = random_tensor((12, 9, 7), 150, seed=seed)
        factors = [
            np.asarray(rng.random((d, 4)), dtype=np.float64)
            for d in tensor.dims
        ]
        return tensor, factors

    @staticmethod
    def _sgd_epoch_add_at(tensor, factors, *, learn_rate, regularization,
                          chunk_size, rng):
        """The pre-rewrite epoch: identical math, np.add.at scatter."""
        from repro._util import VALUE_DTYPE, as_rng
        from repro.completion.losses import predict_entries

        generator = as_rng(rng)
        order = generator.permutation(tensor.nnz)
        coords, values = tensor.coords, tensor.values
        nmodes = tensor.nmodes
        rank = factors[0].shape[1]
        for start in range(0, tensor.nnz, chunk_size):
            batch = order[start:start + chunk_size]
            c = coords[batch]
            err = values[batch] - predict_entries(c, factors)
            rows = [factors[m][c[:, m]] for m in range(nmodes)]
            prefix = np.ones((len(batch), rank), dtype=VALUE_DTYPE)
            prefixes = []
            for m in range(nmodes):
                prefixes.append(prefix.copy())
                prefix = prefix * rows[m]
            suffix = np.ones((len(batch), rank), dtype=VALUE_DTYPE)
            for m in range(nmodes - 1, -1, -1):
                h = prefixes[m] * suffix
                grad = err[:, None] * h - regularization * rows[m]
                np.add.at(factors[m], c[:, m], learn_rate * grad)
                suffix = suffix * rows[m]

    @pytest.mark.parametrize("chunk_size", [1, 64, 10_000])
    def test_same_seed_same_factors(self, chunk_size):
        from repro.completion.sgd import sgd_epoch
        from repro.mttkrp.scatter import Workspace

        tensor, factors = self._make_problem()
        ref = [f.copy() for f in factors]
        ws = Workspace()
        for epoch in range(3):
            sgd_epoch(tensor, factors, learn_rate=0.05,
                      regularization=1e-3, chunk_size=chunk_size,
                      rng=epoch, workspace=ws)
            self._sgd_epoch_add_at(tensor, ref, learn_rate=0.05,
                                   regularization=1e-3,
                                   chunk_size=chunk_size, rng=epoch)
        for got, want in zip(factors, ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_workspace_buffers_are_reused(self):
        from repro.completion.sgd import sgd_epoch
        from repro.mttkrp.scatter import Workspace

        tensor, factors = self._make_problem()
        ws = Workspace()
        # chunk_size=1: every batch reduces to one row per mode, so the
        # per-batch unique-row reductions keep one shape all epoch long
        sgd_epoch(tensor, factors, learn_rate=0.05, chunk_size=1,
                  rng=0, workspace=ws)
        keys_after_one = set(ws._bufs)
        assert keys_after_one, "epoch did not touch the workspace"
        fixed_shape = {
            k: id(v) for k, v in ws._bufs.items()
            if v.shape == (1, factors[0].shape[1])
        }
        assert fixed_shape, "no batch-shaped buffer in the arena"
        sgd_epoch(tensor, factors, learn_rate=0.05, chunk_size=1,
                  rng=1, workspace=ws)
        # steady state: no new arena slots, and every fixed-shape buffer is
        # the same array, not a reallocation
        assert set(ws._bufs) == keys_after_one
        for k, ident in fixed_shape.items():
            assert id(ws._bufs[k]) == ident


class TestOrderOneRootKernel:
    """The order-1 root path: broadcast + indexed add matches np.add.at."""

    def _tree(self):
        from repro.csf.build import build_csf
        from repro.tensor.coo import SparseTensor

        coords = np.array([[7], [1], [4], [9], [2]], dtype=np.int64)
        values = np.array([1.5, -2.0, 0.25, 3.0, -1.0])
        return build_csf(SparseTensor(coords, values, (11,)))

    @pytest.mark.parametrize("use_ws", [False, True])
    def test_matches_add_at(self, use_ws):
        from repro.mttkrp.csf_kernels import root_range_vectorized
        from repro.mttkrp.scatter import TaskTraversal, Workspace

        tree = self._tree()
        rank = 3
        out = np.zeros((11, rank))
        planned = {}
        if use_ws:
            planned = {"trav": TaskTraversal(tree, 0, tree.nslices),
                       "ws": Workspace()}
        root_range_vectorized(tree, [np.ones((11, rank))], out, 0,
                              tree.nslices, **planned)
        expected = np.zeros_like(out)
        np.add.at(expected, tree.fids[0], tree.values[:, None]
                  * np.ones((1, rank)))
        np.testing.assert_allclose(out, expected)

    def test_accumulates_into_existing_out(self):
        from repro.mttkrp.csf_kernels import root_range_vectorized

        tree = self._tree()
        out = np.full((11, 2), 10.0)
        root_range_vectorized(tree, [np.ones((11, 2))], out, 0, tree.nslices)
        assert np.isclose(out[7, 0], 10.0 + 1.5)
        assert np.isclose(out[0, 0], 10.0)

    def test_split_ranges_compose(self):
        from repro.mttkrp.csf_kernels import root_range_vectorized

        tree = self._tree()
        full = np.zeros((11, 2))
        root_range_vectorized(tree, [np.ones((11, 2))], full, 0, tree.nslices)
        split = np.zeros_like(full)
        root_range_vectorized(tree, [np.ones((11, 2))], split, 0, 2)
        root_range_vectorized(tree, [np.ones((11, 2))], split, 2, tree.nslices)
        np.testing.assert_allclose(split, full)


# ======================================================================
# suppression edge cases: decorated defs, multi-line statements, nested
# class bodies (the spots where line-based matching is easy to get wrong)
# ======================================================================
class TestSuppressionEdgeCases:
    def _lint(self, src, relpath="repro/core/fixture.py"):
        return LintEngine().lint_source(src, relpath=relpath)

    def test_def_line_suppression_survives_decorators(self):
        src = (
            "import functools\n"
            "\n"
            "@functools.lru_cache\n"
            "def f(x):  # reprolint: allow(assert-invariant) — validated "
            "at the API boundary\n"
            "    assert x\n"
            "    return x\n"
        )
        findings = self._lint(src)
        assert not active(findings)
        assert any(f.suppressed and f.rule == "assert-invariant"
                   for f in findings)

    def test_multi_line_statement_trailing_comment(self):
        # the finding anchors on the call's first line; the allow comment
        # sits on the closing-paren line two lines below
        src = (
            "import numpy as np\n"
            "\n"
            "def f(out, idx, vals):\n"
            "    for chunk in idx:\n"
            "        np.add.at(\n"
            "            out, chunk, vals,\n"
            "        )  # reprolint: allow(raw-scatter) — one-shot path, "
            "no plan cache\n"
        )
        findings = self._lint(src, relpath="repro/completion/fixture.py")
        assert not active(findings)
        assert any(f.suppressed and f.rule == "raw-scatter" for f in findings)

    def test_interior_comment_cannot_silence_the_def_itself(self):
        # a comment INSIDE a multi-line def body must not suppress a
        # finding anchored on the def line (scope bodies are excluded
        # from span matching)
        src = (
            "def f(x, acc=[]):\n"
            "    y = 1  # reprolint: allow(mutable-default-arg) — nope\n"
            "    acc.append(x)\n"
            "    return acc\n"
        )
        findings = self._lint(src)
        assert any(not f.suppressed and f.rule == "mutable-default-arg"
                   for f in findings)

    def test_nested_class_line_scopes_to_its_body(self):
        src = (
            "class Outer:\n"
            "    class Inner:  # reprolint: allow(assert-invariant) — "
            "documented invariants, fixture only\n"
            "        def check(self, x):\n"
            "            assert x\n"
            "            return x\n"
        )
        findings = self._lint(src)
        assert not active(findings)
        silenced = [f for f in findings if f.suppressed]
        assert silenced and silenced[0].scope == "Outer.Inner.check"

    def test_used_must_release_suppression_is_silent(self):
        # the whole-program rule shares the suppression audit: an
        # allow(must-release) that silences a leak is used, not stale
        src = (
            "def f(path, log):\n"
            "    fh = open(path)  # reprolint: allow(must-release) — "
            "the process exits if logging fails\n"
            "    log.info(path)\n"
            "    fh.close()\n"
        )
        findings = self._lint(src)
        assert not active(findings)
        assert any(f.suppressed and f.rule == "must-release"
                   for f in findings)

    def test_unused_must_release_suppression_is_flagged(self):
        src = (
            "def f(path):\n"
            "    with open(path) as fh:  # reprolint: allow(must-release) — "
            "stale: the with-block releases it\n"
            "        return fh.read()\n"
        )
        findings = self._lint(src)
        assert [(f.rule, f.line) for f in active(findings)] == [
            ("unused-suppression", 2)]


# ======================================================================
# SARIF output (shared report layer; golden file pins the format)
# ======================================================================
class TestSarif:
    SARIF_GOLDEN = FIXTURES / "meta" / "golden.sarif"

    def _findings(self):
        src = (
            "def f(x):\n"
            "    assert x\n"
            "    try:\n"
            "        return 1 / x\n"
            "    except:  # reprolint: allow(bare-except) — fixture, "
            "demonstrates suppression passthrough\n"
            "        return 0\n"
        )
        return LintEngine().lint_source(src, relpath="repro/core/fixture.py")

    def test_matches_golden_file(self):
        from repro.lint.report import render_sarif

        payload = render_sarif(self._findings())
        golden = self.SARIF_GOLDEN.read_text(encoding="utf-8")
        assert payload == golden, (
            "SARIF output drifted from tests/lint_fixtures/meta/golden.sarif"
            " — if the change is intentional, regenerate the golden file"
        )

    def test_structure(self):
        from repro.lint.report import render_sarif

        sarif = json.loads(render_sarif(self._findings()))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        results = run["results"]
        assert {r["ruleId"] for r in results} <= rules
        active_results = [r for r in results if "suppressions" not in r]
        suppressed = [r for r in results if "suppressions" in r]
        assert len(active_results) == 1  # the assert-invariant
        assert len(suppressed) == 1      # the allowed bare-except
        assert suppressed[0]["suppressions"][0]["kind"] == "inSource"
        for r in results:
            assert "reproFingerprint/v1" in r["partialFingerprints"]
            loc = r["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"] == "repro/core/fixture.py"

    def test_sarif_deterministic(self):
        from repro.lint.report import render_sarif

        assert render_sarif(self._findings()) == \
            render_sarif(self._findings())
