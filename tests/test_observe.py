"""Unit tests for the tracing subsystem (:mod:`repro.observe`).

Covers the recorder core (nesting, per-thread timelines, counters/gauges,
metrics flattening), the disabled no-op path, nested ``tracing`` installs
and the Chrome-trace exporter/validator.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.observe import (
    NULL_SPAN,
    TraceRecorder,
    active_recorder,
    chrome_trace,
    enabled,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.observe import spans as spans_mod


# ----------------------------------------------------------------------
# disabled (no recorder) path
# ----------------------------------------------------------------------
def test_disabled_by_default():
    assert not enabled()
    assert active_recorder() is None


def test_span_is_shared_null_span_when_disabled():
    s = spans_mod.span("anything", foo=1)
    assert s is NULL_SPAN
    # the null span is a working no-op context manager
    with s as inner:
        assert inner is NULL_SPAN
        assert inner.set_attr("k", 1) is NULL_SPAN
        assert inner.set_attrs(a=2, b=3) is NULL_SPAN


def test_count_and_gauge_are_noops_when_disabled():
    spans_mod.count("nope")
    spans_mod.gauge("nope", 3)  # must not raise


# ----------------------------------------------------------------------
# recorder basics
# ----------------------------------------------------------------------
def test_span_nesting_same_thread():
    rec = TraceRecorder()
    with rec.span("outer", {"x": 1}):
        with rec.span("inner"):
            pass
    records = rec.finished_spans()
    assert [r.name for r in records] == ["outer", "inner"]
    outer = next(r for r in records if r.name == "outer")
    inner = next(r for r in records if r.name == "inner")
    assert inner.parent == outer.id
    assert outer.parent is None
    assert outer.attrs == {"x": 1}
    assert outer.start <= inner.start and inner.end <= outer.end
    assert inner.duration >= 0


def test_sibling_spans_share_parent():
    rec = TraceRecorder()
    with rec.span("root"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
    by_name = {r.name: r for r in rec.finished_spans()}
    assert by_name["a"].parent == by_name["root"].id
    assert by_name["b"].parent == by_name["root"].id


def test_set_attrs_after_open():
    rec = TraceRecorder()
    with rec.span("s") as live:
        live.set_attr("k", 1)
        live.set_attrs(m=2, n=3)
    (r,) = rec.finished_spans()
    assert r.attrs == {"k": 1, "m": 2, "n": 3}


def test_exception_marks_span_and_propagates():
    rec = TraceRecorder()
    with pytest.raises(ValueError):
        with rec.span("boom"):
            raise ValueError("no")
    (r,) = rec.finished_spans()
    assert r.attrs["error"] == "ValueError"


def test_explicit_parent_id_overrides_stack():
    rec = TraceRecorder()
    with rec.span("root") as root:
        root_id = root.id
    with rec.span("child", parent_id=root_id):
        pass
    by_name = {r.name: r for r in rec.finished_spans()}
    assert by_name["child"].parent == root_id


def test_thread_ids_are_compact_and_named():
    rec = TraceRecorder()
    with rec.span("main-side"):
        pass

    def worker():
        with rec.span("worker-side"):
            pass

    t = threading.Thread(target=worker, name="obs-test-worker")
    t.start()
    t.join()
    by_name = {r.name: r for r in rec.finished_spans()}
    assert by_name["main-side"].tid == 0
    assert by_name["worker-side"].tid == 1
    names = rec.thread_names()
    assert names[1] == "obs-test-worker"


def test_worker_span_is_root_without_explicit_parent():
    rec = TraceRecorder()
    with rec.span("dispatch") as d:
        results = []

        def worker(parent):
            with rec.span("task", parent_id=parent):
                pass
            with rec.span("orphan"):
                pass
            results.append(True)

        t = threading.Thread(target=worker, args=(d.id,))
        t.start()
        t.join()
    by_name = {r.name: r for r in rec.finished_spans()}
    assert by_name["task"].parent == by_name["dispatch"].id
    assert by_name["orphan"].parent is None


def test_counters_and_gauges():
    rec = TraceRecorder()
    rec.count("hits")
    rec.count("hits", 4)
    rec.gauge("level", "high")
    rec.gauge("level", "low")  # last value wins
    assert rec.counters() == {"hits": 5}
    assert rec.gauges() == {"level": "low"}


def test_events_recorded_counts_spans_counters_gauges():
    rec = TraceRecorder()
    with rec.span("a"):
        pass
    rec.count("c")
    rec.gauge("g", 1)
    assert rec.events_recorded == 3


def test_metrics_flattening():
    rec = TraceRecorder()
    with rec.span("work"):
        pass
    with rec.span("work"):
        pass
    rec.count("n", 7)
    rec.gauge("g", "x")
    m = rec.metrics()
    assert m["span.work.count"] == 2
    assert m["span.work.total_s"] >= 0
    assert m["counter.n"] == 7
    assert m["gauge.g"] == "x"


def test_span_tree_shape():
    rec = TraceRecorder()
    with rec.span("root", {"r": 1}):
        with rec.span("kid"):
            with rec.span("grandkid"):
                pass
        with rec.span("kid2"):
            pass
    tree = rec.span_tree()
    assert len(tree) == 1
    root = tree[0]
    assert root["name"] == "root" and root["attrs"] == {"r": 1}
    assert [c["name"] for c in root["children"]] == ["kid", "kid2"]
    assert root["children"][0]["children"][0]["name"] == "grandkid"
    assert root["start"] >= 0 and root["duration"] >= 0


# ----------------------------------------------------------------------
# the tracing() installer
# ----------------------------------------------------------------------
def test_tracing_installs_and_restores():
    assert active_recorder() is None
    with tracing() as rec:
        assert active_recorder() is rec
        assert enabled()
        with spans_mod.span("inside", tag=1):
            pass
        spans_mod.count("c", 2)
        spans_mod.gauge("g", 3)
    assert active_recorder() is None
    assert [r.name for r in rec.finished_spans()] == ["inside"]
    assert rec.counters() == {"c": 2}
    assert rec.gauges() == {"g": 3}


def test_tracing_nesting_restores_previous_recorder():
    with tracing() as outer:
        with spans_mod.span("before"):
            pass
        with tracing() as inner:
            assert active_recorder() is inner
            with spans_mod.span("nested"):
                pass
        assert active_recorder() is outer
        with spans_mod.span("after"):
            pass
    assert {r.name for r in outer.finished_spans()} == {"before", "after"}
    assert {r.name for r in inner.finished_spans()} == {"nested"}


def test_tracing_restores_on_exception():
    with pytest.raises(RuntimeError):
        with tracing():
            raise RuntimeError("x")
    assert active_recorder() is None


def test_tracing_accepts_external_recorder():
    rec = TraceRecorder()
    with tracing(recorder=rec) as got:
        assert got is rec


def test_tracing_writes_file_on_exit(tmp_path):
    path = tmp_path / "trace.json"
    with tracing(path):
        with spans_mod.span("filed"):
            pass
    obj = json.loads(path.read_text())
    assert validate_chrome_trace(obj) == []
    names = {e["name"] for e in obj["traceEvents"] if e.get("ph") == "X"}
    assert "filed" in names


# ----------------------------------------------------------------------
# chrome export
# ----------------------------------------------------------------------
def test_chrome_trace_structure():
    rec = TraceRecorder()
    with rec.span("outer", {"k": 1}):
        with rec.span("inner"):
            pass
    rec.count("events", 3)
    obj = chrome_trace(rec)
    assert validate_chrome_trace(obj) == []
    xs = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in xs} == {"outer", "inner"}
    for e in xs:
        assert e["ts"] >= 0 and e["dur"] >= 0
    ms = [e for e in obj["traceEvents"] if e["ph"] == "M"]
    assert any(e["name"] == "thread_name" for e in ms)
    cs = [e for e in obj["traceEvents"] if e["ph"] == "C"]
    assert any(e["name"] == "events" for e in cs)
    assert "metrics" in obj["otherData"]
    assert obj["otherData"]["metrics"]["counter.events"] == 3


def test_chrome_trace_jsonable_attrs():
    import numpy as np

    rec = TraceRecorder()
    with rec.span("np-attrs", {"i": np.int64(3), "f": np.float64(0.5),
                               "arr": np.arange(3), "d": {"x": np.int32(1)}}):
        pass
    obj = chrome_trace(rec)
    json.dumps(obj)  # must not raise
    (x,) = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    assert x["args"]["i"] == 3
    assert x["args"]["arr"] == [0, 1, 2]


def test_write_chrome_trace_roundtrip(tmp_path):
    rec = TraceRecorder()
    with rec.span("w"):
        pass
    path = tmp_path / "t.json"
    write_chrome_trace(rec, path)
    assert validate_chrome_trace(json.loads(path.read_text())) == []


def test_validate_chrome_trace_flags_bad_objects():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": "nope"}) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
    bad_x = {"traceEvents": [
        {"ph": "X", "name": "n", "pid": 1, "tid": 0, "ts": -5, "dur": 1}
    ]}
    assert validate_chrome_trace(bad_x) != []
    good = {"traceEvents": [
        {"ph": "X", "name": "n", "pid": 1, "tid": 0, "ts": 0.0, "dur": 1.0}
    ]}
    assert validate_chrome_trace(good) == []
