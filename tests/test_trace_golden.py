"""Golden-trace tests: a fixed-seed CP-ALS run must produce a trace whose
*structure* matches the checked-in schema below.

The schema pins span names, parent/child nesting and required attributes —
never timings — so it is deterministic across machines.  A second test
round-trips the Chrome-trace JSON through disk and the checked-in
validator.
"""

from __future__ import annotations

import json

import pytest

from repro.core.cpals import cp_als
from repro.core.options import CpalsOptions
from repro.observe import tracing, validate_chrome_trace
from repro.runtime.env import ChapelEnv
from repro.tensor.generate import random_tensor

ITERATIONS = 2
NTASKS = 2

#: The golden structural schema for a 2-iteration, 2-task CP-ALS trace:
#: (span name, required attribute names, expected count or None for ">=1").
GOLDEN_SPANS = [
    ("cp_als", {"rank", "dims", "nnz", "variant", "allocation", "ntasks",
                "tasking_layer", "iterations", "converged", "fit"}, 1),
    ("sort", set(), 1),
    ("csf.build_set", {"allocation", "ntrees", "nnz"}, 1),
    ("csf.build", {"root", "nnz", "sort_variant"}, 2),       # "two" allocation
    ("cp_als.iteration", {"iteration"}, ITERATIONS),
    ("mttkrp", set(), 3 * ITERATIONS),                        # one per mode
    ("mttkrp.mode0", {"mode", "algorithm", "variant", "ntasks", "used_locks",
                      "plan_hit", "lock_acquires", "lock_contended",
                      "sync_sleeps"}, ITERATIONS),
    ("mttkrp.mode1", {"mode", "plan_hit"}, ITERATIONS),
    ("mttkrp.mode2", {"mode", "plan_hit"}, ITERATIONS),
    ("inverse", set(), 3 * ITERATIONS),
    ("mat_norm", set(), 3 * ITERATIONS),
    ("cpd_fit", set(), ITERATIONS),
    ("mat_ata", set(), None),                                 # 1 + 6/iteration
    ("coforall", {"ntasks", "layer"}, None),
    ("task", {"tid"}, None),
]

#: Child name -> required ancestor name (structural nesting contract).
GOLDEN_NESTING = {
    "sort": "cp_als",
    "csf.build_set": "sort",
    "csf.build": "csf.build_set",
    "cp_als.iteration": "cp_als",
    "mttkrp": "cp_als.iteration",
    "mttkrp.mode0": "mttkrp",
    "mttkrp.mode1": "mttkrp",
    "mttkrp.mode2": "mttkrp",
    "inverse": "cp_als.iteration",
    "cpd_fit": "cp_als.iteration",
    "task": "coforall",
}


@pytest.fixture(scope="module")
def golden_run():
    tensor = random_tensor((14, 11, 9), 260, seed=42)
    opts = CpalsOptions(
        max_iterations=ITERATIONS,
        tolerance=0.0,  # run all iterations deterministically
        env=ChapelEnv(num_tasks=NTASKS),
        seed=42,
    )
    with tracing() as rec:
        result = cp_als(tensor, 5, opts)
    return rec, result


def _ancestors(record, by_id):
    seen = []
    cur = record
    while cur.parent is not None and cur.parent in by_id:
        cur = by_id[cur.parent]
        seen.append(cur.name)
    return seen


def test_golden_span_names_and_counts(golden_run):
    rec, _ = golden_run
    records = rec.finished_spans()
    by_name: dict[str, list] = {}
    for r in records:
        by_name.setdefault(r.name, []).append(r)
    for name, required_attrs, count in GOLDEN_SPANS:
        assert name in by_name, f"missing golden span {name!r}"
        if count is not None:
            assert len(by_name[name]) == count, (
                f"span {name!r}: expected {count}, got {len(by_name[name])}"
            )
        for r in by_name[name]:
            missing = required_attrs - set(r.attrs)
            assert not missing, f"span {name!r} missing attrs {missing}"
    # no unexpected top-level roots on the main thread: cp_als is the root
    roots = [r for r in records if r.parent is None]
    assert [r.name for r in roots] == ["cp_als"]


def test_golden_nesting(golden_run):
    rec, _ = golden_run
    records = rec.finished_spans()
    by_id = {r.id: r for r in records}
    for r in records:
        want = GOLDEN_NESTING.get(r.name)
        if want is not None:
            assert want in _ancestors(r, by_id), (
                f"span {r.name!r} (id {r.id}) not nested under {want!r}"
            )


def test_golden_attribute_values(golden_run):
    rec, result = golden_run
    records = rec.finished_spans()
    root = next(r for r in records if r.name == "cp_als")
    assert root.attrs["rank"] == 5
    assert root.attrs["iterations"] == result.iterations == ITERATIONS
    assert root.attrs["ntasks"] == NTASKS
    assert root.attrs["fit"] == pytest.approx(result.fit)
    iters = sorted(
        r.attrs["iteration"] for r in records if r.name == "cp_als.iteration"
    )
    assert iters == list(range(1, ITERATIONS + 1))
    # per-mode MTTKRP spans carry the plan-cache + lock-contention contract:
    # iteration 1 misses (plans are built), iteration 2 hits
    for mode in range(3):
        spans = sorted(
            (r for r in records if r.name == f"mttkrp.mode{mode}"),
            key=lambda r: r.start,
        )
        assert spans[0].attrs["plan_hit"] is False
        assert spans[1].attrs["plan_hit"] is True
        for s in spans:
            assert s.attrs["lock_acquires"] >= 0
            assert s.attrs["lock_contended"] >= 0
    # plan-cache counters agree with the engine stats
    counters = rec.counters()
    assert counters.get("mttkrp.plan_misses") == result.engine_stats["plan_misses"]
    assert counters.get("mttkrp.plan_hits") == result.engine_stats["plan_hits"]


def test_golden_tasks_ran_on_worker_threads(golden_run):
    rec, _ = golden_run
    records = rec.finished_spans()
    task_tids = {r.tid for r in records if r.name == "task"}
    dispatch_tids = {r.tid for r in records if r.name == "coforall"}
    # pooled tasks execute on threads other than the dispatching one
    assert task_tids and not (task_tids & dispatch_tids)
    names = rec.thread_names()
    assert all(names[t] != "MainThread" for t in task_tids)


def test_chrome_trace_roundtrip_and_schema(golden_run, tmp_path):
    rec, _ = golden_run
    path = tmp_path / "golden.json"
    rec.write(path)
    obj = json.loads(path.read_text())
    assert validate_chrome_trace(obj) == []
    xs = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in xs}
    for want, _attrs, _count in GOLDEN_SPANS:
        assert want in names
    # span records and X events correspond 1:1
    assert len(xs) == len(rec.finished_spans())
    # metrics block carries the flat dict shape
    metrics = obj["otherData"]["metrics"]
    assert metrics["span.cp_als.count"] == 1
    assert metrics["counter.mttkrp.plan_hits"] == rec.counters()["mttkrp.plan_hits"]
    # a second round-trip is byte-stable (deterministic serialization)
    assert json.dumps(obj, sort_keys=True) == json.dumps(
        json.loads(json.dumps(obj)), sort_keys=True
    )
