"""Unit tests for the benchmark harness (report, registry, timer,
experiments, CLI), the committed benchmark records and perfbench's
per-layer tracer."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import runner
from repro.bench.cli import main
from repro.bench.report import format_cell, render_ratio, render_table
from repro.bench.runner import ExperimentResult, all_experiments, best_of, get_experiment

REPO = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO / "benchmarks"
RECORD_KEYS = {"bench", "host", "workload", "seconds", "guards", "detail"}

EXPECTED_IDS = {
    "table1", "table2", "table3",
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "sec5e", "headline",
    # extensions beyond the paper's figures
    "memory", "fwdist", "calibration", "sensitivity",
}


class TestReport:
    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell(0.0) == "0"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(123456.0) == "1.23e+05"
        assert format_cell("abc") == "abc"
        assert format_cell(7) == "7"

    def test_render_table_aligned(self):
        out = render_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_render_table_row_width_checked(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a", "b"], [[1]])

    def test_render_ratio(self):
        assert render_ratio(1.0, 2.0) == "50.0%"
        assert render_ratio(1.0, 0.0) == "n/a"


class TestRegistry:
    def test_every_table_and_figure_registered(self):
        assert set(all_experiments()) == EXPECTED_IDS

    def test_get_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")

    def test_result_column_helper(self):
        r = ExperimentResult("x", "t", ["a", "b"], [[1, 2], [3, 4]])
        assert r.column("b") == [2, 4]
        with pytest.raises(KeyError):
            r.column("c")

    def test_render_includes_notes(self):
        r = ExperimentResult("x", "t", ["a"], [[1]], notes=["hello"])
        assert "note: hello" in r.render()


class TestBestOf:
    def test_interleaved_exact_rounds_and_minimum(self, monkeypatch):
        # the fake clock reads 0, 5, 7, 10, 11, 14, 20: each call lasts the
        # gap between its two reads (a: 5, 3, 3; b: 2, 1, 6)
        ticks = iter([0, 5, 5, 7, 7, 10, 10, 11, 11, 14, 14, 20])
        monkeypatch.setattr(runner, "perf_counter", lambda: next(ticks))
        calls = []
        best = best_of({"a": lambda: calls.append("a"),
                        "b": lambda: calls.append("b")}, rounds=3)
        assert calls == ["a", "b", "a", "b", "a", "b"]
        assert best == {"a": 3, "b": 1}

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError, match="rounds"):
            best_of({"a": lambda: None}, rounds=0)


class TestBenchRecords:
    """The committed ``benchmarks/BENCH_*.json`` guard records share one
    host-stamped schema, and none records a failed enforced guard."""

    def test_every_guard_has_a_record(self):
        names = {p.stem for p in BENCH_DIR.glob("BENCH_*.json")}
        assert names == {"BENCH_backend", "BENCH_ceiling", "BENCH_coldstart",
                         "BENCH_mttkrp", "BENCH_serve", "BENCH_shm"}

    @pytest.mark.parametrize("path", sorted(BENCH_DIR.glob("BENCH_*.json")),
                             ids=lambda p: p.name)
    def test_record_schema(self, path):
        record = json.loads(path.read_text())
        assert set(record) == RECORD_KEYS
        assert record["bench"] == path.stem.removeprefix("BENCH_")
        assert {"git_sha", "cpus_usable", "openblas"} <= set(record["host"])
        assert record["guards"]
        for guard in record["guards"]:
            assert set(guard) == {"name", "value", "min", "enforced"}
            if guard["enforced"]:
                assert guard["value"] >= guard["min"], guard


class TestPerfbenchTracer:
    """``perfbench/layers.py`` times each layer by replacing program names
    by attribute; a rename under ``src/repro`` must fail here, not as a
    ``KeyError`` in the middle of a benchmark run."""

    def test_every_patch_installs_and_restores(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", REPO / "perfbench" / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        tracer = layers.Tracer()
        with tracer:
            patched = list(tracer._saved)
            assert len(patched) == 24
            for owner, attr, original in patched:
                assert owner.__dict__[attr] is not original, attr
        assert tracer._saved == []
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is original, attr


class TestSimulatedExperiments:
    """Every experiment must run and regenerate the paper's shape."""

    @pytest.mark.parametrize("exp_id", sorted(EXPECTED_IDS))
    def test_runs_and_renders(self, exp_id):
        result = get_experiment(exp_id)()
        assert result.exp_id == exp_id
        assert result.rows
        text = result.render()
        assert exp_id in text

    def test_fig1_ladder_shape(self):
        r = get_experiment("fig1")()
        serial = r.rows[0]
        # Initial > Array-opt > Slices-opt > All-opts at every task count
        for row in r.rows:
            assert row[1] > row[2] > row[3] > row[4]
        # ~8x combined improvement serially
        assert 6 <= serial[1] / serial[4] <= 9

    def test_fig2_fig3_ladder_shape(self):
        for exp in ("fig2", "fig3"):
            r = get_experiment(exp)()
            for row in r.rows:
                assert row[1] > row[2] > row[3]  # slicing > 2D > pointer

    def test_fig4_shape(self):
        r = get_experiment("fig4")()
        by_tasks = {row[0]: row for row in r.rows}
        # no locks at 1-2 tasks: all pools identical
        for p in (1, 2):
            assert by_tasks[p][1] == by_tasks[p][2] == by_tasks[p][3]
            assert by_tasks[p][4] is False
        # collapse at 32: sync >> atomic; fifo close to atomic
        assert by_tasks[32][1] > 10 * by_tasks[32][2]
        assert by_tasks[32][3] < 1.5 * by_tasks[32][2]

    def test_fig7_inverse_gap(self):
        """At 32 tasks the Chapel inverse (serial OMP) is far slower than C's."""
        r = get_experiment("fig7")()
        inv = r.column("inverse")
        assert inv[1] > 5 * inv[0]

    def test_fig9_fig10_ratio_band(self):
        for exp, lo in (("fig9", 0.80), ("fig10", 0.90)):
            r = get_experiment(exp)()
            for c, opt in zip(r.column("C"), r.column("Chapel-optimize")):
                assert lo <= c / opt <= 1.0

    def test_headline_bands(self):
        r = get_experiment("headline")()
        for row in r.rows:
            low = float(row[1].rstrip("%"))
            high = float(row[2].rstrip("%"))
            assert 80 <= low <= high <= 100

    def test_memory_shape(self):
        r = get_experiment("memory")()
        assert len(r.rows) == 2
        for row in r.rows:
            one = float(row[2].rstrip("x"))
            two = float(row[3].rstrip("x"))
            alln = float(row[4].rstrip("x"))
            assert one < two < alln  # the allocation trade-off
            assert one < 1.0         # one-tree CSF beats COO

    def test_fwdist_shape(self):
        r = get_experiment("fwdist")()
        totals = r.column("total s")
        speedups = r.column("speedup")
        assert all(a >= b for a, b in zip(totals, totals[1:]))
        assert speedups[0] == 1
        assert speedups[-1] > 5  # near-linear into the locale range shown

    def test_sensitivity_conclusions_robust(self):
        """Every ±25% single-constant perturbation keeps the headline
        conclusions: Chapel near the 83-96% band, sync gap order-10x."""
        r = get_experiment("sensitivity")()
        for row in r.rows:
            low = float(row[2].rstrip("%"))
            gap = row[3]
            assert low >= 75.0, row
            assert gap >= 8.0, row

    def test_calibration_worst_error_bounded(self):
        """The dominant-routine (MTTKRP/Sort) model error stays within the
        band EXPERIMENTS.md claims (25%) across all 8 Table III configs."""
        r = get_experiment("calibration")()
        for row in r.rows:
            if row[-1] == "yes":
                assert float(row[-2].rstrip("%")) <= 25.0, row

    def test_sec5e_anchors(self):
        r = get_experiment("sec5e")()
        last = r.rows[-1]  # 32 omp threads
        serial = r.rows[0][1]
        assert last[1] == pytest.approx(serial * 15, rel=0.05)   # default: 15x
        assert last[2] == pytest.approx(serial / 2, rel=0.05)    # affinity=no
        assert last[3] == pytest.approx(serial / 4.6, rel=0.05)  # +spincount


class TestMeasuredExperiments:
    """Measured mode runs real kernels; keep these on small scales."""

    def test_table3_measured(self):
        r = get_experiment("table3")(measured=True, scale=0.2, rank=4, iterations=1)
        assert len(r.rows) == 4
        # Chapel-initial MTTKRP (col 3) dominates the vectorized baseline
        yelp_c, yelp_ini = r.rows[0], r.rows[1]
        assert yelp_ini[3] > 2 * yelp_c[3]

    def test_fig2_measured_ladder(self):
        r = get_experiment("fig2")(measured=True, scale=0.3)
        row = r.rows[0]
        slicing, index2d, pointer, vectorized = row[1], row[2], row[3], row[4]
        assert vectorized < pointer
        assert slicing > index2d  # naive port slowest interpreted

    def test_fig4_measured_counters(self):
        r = get_experiment("fig4")(measured=True, scale=0.5)
        sleeps_by_config = {(row[0], row[1]): row[5] for row in r.rows}
        # only sync/qthreads may sleep
        for (p, cfg), sleeps in sleeps_by_config.items():
            if cfg != "sync/qthreads":
                assert sleeps == 0

    def test_fig1_measured_runs(self):
        r = get_experiment("fig1")(measured=True, scale=0.2)
        row = r.rows[0]
        # interpreted ladder far slower than the vectorized baseline
        assert row[1] > 3 * row[5]


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPECTED_IDS:
            assert exp_id in out

    def test_run_one(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "83-96%" in out or "headline" in out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["fig99"]) == 2

    def test_run_several(self, capsys):
        assert main(["table2", "headline"]) == 0
        out = capsys.readouterr().out
        assert "[table2]" in out and "[headline]" in out
