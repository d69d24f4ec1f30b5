"""Tests for ``repro.serve`` — the long-lived decomposition service.

Covers the wire protocol, quota admission, the job state machine, the
warm engine's cache reuse, window batching, fault-injected retry,
suspend/resume round trips, concurrent mixed-tenant traffic under the
concurrency sanitizer, and the ``repro serve`` / ``repro submit`` CLI
as real subprocesses.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.resilience.checkpoint import load_checkpoint
from repro.serve import (
    QuotaExceeded,
    QuotaPolicy,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    TenantQuotas,
)
from repro.serve import engine as serve_engine
from repro.serve import jobstore as js
from repro.serve import protocol as proto
from repro.serve.engine import JOB_FAULT_SITE
from repro.serve.jobstore import JobStore
from repro.serve.scheduler import batch_key

REPO = Path(__file__).resolve().parents[1]


def inline_tensor(seed: int = 0, dims=(10, 9, 11), nnz: int = 250) -> dict:
    rng = np.random.default_rng(seed)
    coords = np.column_stack([rng.integers(0, d, size=nnz) for d in dims])
    values = rng.standard_normal(nnz)
    return {
        "dims": list(dims),
        "coords": coords.tolist(),
        "values": values.tolist(),
        "name": f"inline-{seed}",
    }


def cpd_spec(seed: int = 1, *, rank: int = 4, iterations: int = 5,
             tensor_seed: int = 0, **extra) -> dict:
    return {"kind": "cpd", "inline": inline_tensor(tensor_seed),
            "rank": rank, "iterations": iterations, "seed": seed, **extra}


@pytest.fixture()
def server(tmp_path):
    """A running daemon on a free port with a tiny-quota tenant."""
    config = ServeConfig(
        port=0,
        batch_window=0.02,
        spool=tmp_path / "spool",
        quotas=QuotaPolicy(overrides={
            "tiny": TenantQuotas(max_nnz=10),
            "narrow": TenantQuotas(max_queued_jobs=1),
        }),
    )
    with ReproServer(config) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


# ======================================================================
# protocol
# ======================================================================
class TestProtocol:
    def test_round_trip(self):
        msg = {"op": "submit", "job": {"rank": 4}, "tenant": "t"}
        assert proto.decode_line(proto.encode(msg)) == msg

    def test_bad_json(self):
        with pytest.raises(proto.ProtocolError) as exc:
            proto.decode_line(b"{nope\n")
        assert exc.value.code == "protocol.bad_json"

    def test_missing_op(self):
        with pytest.raises(proto.ProtocolError) as exc:
            proto.decode_line(b'{"no_op": 1}\n')
        assert exc.value.code == "protocol.bad_envelope"

    def test_non_object(self):
        with pytest.raises(proto.ProtocolError) as exc:
            proto.decode_line(b"[1, 2]\n", require_op=False)
        assert exc.value.code == "protocol.bad_envelope"

    def test_response_needs_no_op(self):
        env = proto.decode_line(proto.encode(proto.ok(x=1)), require_op=False)
        assert env["ok"] is True and env["v"] == proto.PROTOCOL_VERSION

    def test_err_envelope_nests_details(self):
        env = proto.err("quota.max_nnz", "too big", limit=10, actual=99)
        assert env["ok"] is False
        assert env["error"]["code"] == "quota.max_nnz"
        assert env["error"]["limit"] == 10


# ======================================================================
# quotas (pure policy, no server)
# ======================================================================
class TestQuotaPolicy:
    def test_unlimited_by_default(self):
        QuotaPolicy().admit("anyone", nnz=10**9, tensor_bytes=10**12,
                            active_jobs=10**6, resident_bytes=10**12)

    def test_max_nnz(self):
        policy = QuotaPolicy(TenantQuotas(max_nnz=100))
        with pytest.raises(QuotaExceeded) as exc:
            policy.admit("t", nnz=101, tensor_bytes=0, active_jobs=0,
                         resident_bytes=0)
        assert exc.value.code == "quota.max_nnz"
        assert exc.value.details() == {"tenant": "t", "limit": 100, "actual": 101}

    def test_max_queued_jobs(self):
        policy = QuotaPolicy(TenantQuotas(max_queued_jobs=2))
        policy.admit("t", nnz=1, tensor_bytes=1, active_jobs=1, resident_bytes=0)
        with pytest.raises(QuotaExceeded) as exc:
            policy.admit("t", nnz=1, tensor_bytes=1, active_jobs=2,
                         resident_bytes=0)
        assert exc.value.code == "quota.max_queued_jobs"

    def test_max_resident_bytes_counts_candidate(self):
        policy = QuotaPolicy(TenantQuotas(max_resident_bytes=1000))
        with pytest.raises(QuotaExceeded) as exc:
            policy.admit("t", nnz=1, tensor_bytes=600, active_jobs=0,
                         resident_bytes=500)
        assert exc.value.code == "quota.max_resident_bytes"
        assert exc.value.actual == 1100

    def test_overrides_shadow_default(self):
        policy = QuotaPolicy(TenantQuotas(max_nnz=10),
                             overrides={"vip": TenantQuotas()})
        policy.admit("vip", nnz=10**6, tensor_bytes=0, active_jobs=0,
                     resident_bytes=0)
        with pytest.raises(QuotaExceeded):
            policy.admit("pleb", nnz=11, tensor_bytes=0, active_jobs=0,
                         resident_bytes=0)


# ======================================================================
# job store
# ======================================================================
class TestJobStore:
    def test_ids_are_sequential(self):
        store = JobStore()
        a = store.create("t", "cpd", {})
        b = store.create("t", "cpd", {})
        assert (a.id, b.id) == ("job-000001", "job-000002")

    def test_transition_stamps_and_events(self):
        store = JobStore()
        job = store.create("t", "cpd", {})
        store.transition(job, js.RUNNING)
        assert job.started_s is not None and job.attempts == 1
        assert not job.done.is_set()
        store.transition(job, js.DONE)
        assert job.finished_s is not None and job.done.is_set()

    def test_suspended_fires_done_event(self):
        store = JobStore()
        job = store.create("t", "cpd", {})
        store.transition(job, js.SUSPENDED)
        assert job.done.is_set()
        store.transition(job, js.QUEUED)  # resume path
        assert not job.done.is_set() and not job.suspend_requested.is_set()

    def test_tenant_accounting(self):
        store = JobStore()
        a = store.create("acme", "cpd", {})
        b = store.create("acme", "cpd", {})
        c = store.create("other", "cpd", {})
        for j, nbytes in ((a, 100), (b, 200), (c, 400)):
            j.resident_bytes = nbytes
        store.transition(b, js.DONE)
        assert store.tenant_active_jobs("acme") == 1
        assert store.tenant_resident_bytes("acme") == 100
        assert store.tenant_resident_bytes("other") == 400


# ======================================================================
# batch keys
# ======================================================================
class TestBatchKey:
    def _job(self, spec, kind="cpd", tensor_key="k"):
        job = js.Job(id="j", tenant="t", kind=kind, spec=spec)
        job.tensor_key = tensor_key
        return job

    def test_same_shape_same_key_modulo_seed(self):
        a = self._job({"rank": 4, "iterations": 5, "seed": 1})
        b = self._job({"rank": 4, "iterations": 5, "seed": 99})
        assert batch_key(a) == batch_key(b)

    def test_rank_splits_key(self):
        a = self._job({"rank": 4})
        b = self._job({"rank": 8})
        assert batch_key(a) != batch_key(b)

    def test_tensor_splits_key(self):
        a = self._job({"rank": 4}, tensor_key="k1")
        b = self._job({"rank": 4}, tensor_key="k2")
        assert batch_key(a) != batch_key(b)


# ======================================================================
# server round trips
# ======================================================================
class TestServerBasics:
    def test_ping(self, client):
        pong = client.ping()
        assert pong["pong"] is True and pong["backend"]

    def test_unknown_op(self, client):
        with pytest.raises(ServeError) as exc:
            client.call("frobnicate")
        assert exc.value.code == "protocol.unknown_op"

    def test_bad_json_line_survives_connection(self, client):
        client._sock.sendall(b"{not json\n")
        response = proto.decode_line(
            client._rfile.readline(), require_op=False)
        assert response["error"]["code"] == "protocol.bad_json"
        assert client.ping()["pong"] is True  # connection still usable

    def test_unknown_job(self, client):
        with pytest.raises(ServeError) as exc:
            client.status("job-999999")
        assert exc.value.code == "job.unknown"

    def test_submit_wait_result(self, client):
        submitted = client.submit(cpd_spec(seed=1))
        assert submitted["id"].startswith("job-")
        finished = client.wait(submitted["id"], timeout=60)
        assert finished["job"]["state"] == "done"
        result = client.result(submitted["id"])["result"]
        assert 0.0 < result["fit"] <= 1.0
        assert len(result["lambda"]) == 4
        assert result["iterations"] <= 5

    def test_result_before_done_is_structured(self, client, server):
        # a job that was never submitted to the scheduler stays queued
        job = server.store.create("t", "cpd", {})
        with pytest.raises(ServeError) as exc:
            client.result(job.id)
        assert exc.value.code == "job.not_done"

    def test_bad_kind_rejected(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit({"kind": "eigensolve", "inline": inline_tensor()})
        assert exc.value.code == "job.bad_kind"

    def test_spec_without_tensor_rejected(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit({"kind": "cpd", "rank": 4})
        assert exc.value.code == "job.bad_tensor"

    def test_tucker_and_complete_kinds(self, client):
        jt = client.submit({"kind": "tucker", "inline": inline_tensor(),
                            "ranks": [3], "iterations": 3})
        jc = client.submit({"kind": "complete", "inline": inline_tensor(),
                            "rank": 3, "epochs": 3})
        rt = client.wait(jt["id"], timeout=60)
        rc = client.wait(jc["id"], timeout=60)
        assert rt["job"]["state"] == "done"
        assert rt["result"]["ranks"] == [3, 3, 3]
        assert rc["job"]["state"] == "done"
        assert rc["result"]["train_rmse"] > 0

    def test_trace_roundtrip(self, client):
        job = client.submit(cpd_spec(seed=2, trace=True))
        client.wait(job["id"], timeout=60)
        trace = client.trace(job["id"])["trace"]
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "cp_als" in names and "cp_als.iteration" in names

    def test_no_trace_unless_requested(self, client):
        job = client.submit(cpd_spec(seed=3))
        client.wait(job["id"], timeout=60)
        with pytest.raises(ServeError) as exc:
            client.trace(job["id"])
        assert exc.value.code == "job.no_trace"


class TestWarmReuse:
    def test_same_shape_jobs_batch_and_reuse_plans(self, client):
        ids = [client.submit(cpd_spec(seed=s))["id"] for s in (1, 2, 3)]
        jobs = [client.wait(i, timeout=60)["job"] for i in ids]
        assert all(j["state"] == "done" for j in jobs)
        metrics = client.metrics()["metrics"]
        engine = metrics["engine"]
        # one CSF build, then pure reuse
        assert engine["csf_cache_misses"] == 1
        assert engine["csf_cache_hits"] >= 2
        assert engine["tensor_cache_hits"] >= 2
        # plans built once (3 modes), then hit for every later mode visit
        assert engine["plan_misses"] == 3
        assert engine["plan_hits"] > engine["plan_misses"]

    def test_batching_groups_same_key_jobs(self, server):
        # hold the window open long enough for all three to land in it
        server.scheduler.batch_window = 0.3
        with ServeClient(port=server.port) as c:
            ids = [c.submit(cpd_spec(seed=s))["id"] for s in (1, 2, 3)]
            jobs = [c.wait(i, timeout=60)["job"] for i in ids]
        batches = {j["batch"] for j in jobs}
        assert len(batches) == 1, f"expected one batch, got {batches}"
        stats = server.scheduler.stats()
        assert stats["largest_batch"] >= 3

    def test_tensor_eviction_drops_its_csf_set(self, server, client,
                                               monkeypatch):
        monkeypatch.setattr(serve_engine, "MAX_CACHED_TENSORS", 1)
        first = client.submit(cpd_spec(seed=1, tensor_seed=0))["id"]
        client.wait(first, timeout=60)
        first_key = server.store.get(first).tensor_key
        assert first_key in server.engine._csf
        second = client.submit(cpd_spec(seed=1, tensor_seed=1))["id"]
        assert client.wait(second, timeout=60)["job"]["state"] == "done"
        assert list(server.engine._csf) == [server.store.get(second).tensor_key]
        engine = client.metrics()["metrics"]["engine"]
        assert engine["cached_tensors"] == 1
        assert engine["cached_csf_sets"] == 1

    def test_seeds_still_differ_within_batch(self, client):
        a = client.submit(cpd_spec(seed=1))["id"]
        b = client.submit(cpd_spec(seed=2))["id"]
        ra = client.wait(a, timeout=60)["result"]
        rb = client.wait(b, timeout=60)["result"]
        assert ra["lambda"] != rb["lambda"]


class TestQuotaEnforcement:
    def test_oversize_tensor_rejected_with_details(self, server):
        with ServeClient(port=server.port, tenant="tiny") as c:
            with pytest.raises(ServeError) as exc:
                c.submit(cpd_spec())
            assert exc.value.code == "quota.max_nnz"
            assert exc.value.error["limit"] == 10
            assert exc.value.error["actual"] > 10
            assert exc.value.error["tenant"] == "tiny"

    def test_rejection_does_not_create_a_job(self, server):
        before = len(server.store.jobs())
        with ServeClient(port=server.port, tenant="tiny") as c:
            with pytest.raises(ServeError):
                c.submit(cpd_spec())
        assert len(server.store.jobs()) == before
        assert server.engine.counters()["jobs_rejected"] >= 1

    def test_queue_depth_quota(self, server):
        # stall the queue so submissions pile up for tenant "narrow"
        server.scheduler.batch_window = 0.5
        with ServeClient(port=server.port, tenant="narrow") as c:
            c.submit(cpd_spec(seed=1))
            with pytest.raises(ServeError) as exc:
                c.submit(cpd_spec(seed=2))
            assert exc.value.code == "quota.max_queued_jobs"

    def test_other_tenants_unaffected(self, server):
        server.scheduler.batch_window = 0.5
        with ServeClient(port=server.port) as c:
            first = c.submit(cpd_spec(seed=1), tenant="narrow")
            ok = c.submit(cpd_spec(seed=2), tenant="someone-else")
            assert ok["id"]
            assert c.wait(first["id"], timeout=60)["job"]["state"] == "done"
            assert c.wait(ok["id"], timeout=60)["job"]["state"] == "done"


class TestSuspendResume:
    def test_self_suspend_then_resume_reproduces_clean_run(self, client):
        # suspends itself after 3 of 8 iterations (one snapshot at the stop)
        job = client.submit(cpd_spec(seed=5, iterations=8,
                                     suspend_after_iterations=3))
        suspended = client.wait(job["id"], timeout=60)["job"]
        assert suspended["state"] == "suspended"
        assert suspended["iterations"] == 3
        resumed = client.resume(job["id"])
        assert resumed["state"] == "queued"
        finished = client.wait(job["id"], timeout=60)
        assert finished["job"]["state"] == "done"
        assert finished["job"]["resumed"] == 1

        clean = client.submit(cpd_spec(seed=5, iterations=8))
        reference = client.wait(clean["id"], timeout=60)
        assert finished["result"]["fit"] == pytest.approx(
            reference["result"]["fit"], abs=1e-12)
        assert np.allclose(finished["result"]["lambda"],
                           reference["result"]["lambda"])

    def test_completed_jobs_leave_spool_empty(self, server, client):
        ids = [client.submit(cpd_spec(seed=s))["id"] for s in (1, 2, 3)]
        assert all(client.wait(i, timeout=60)["job"]["state"] == "done"
                   for i in ids)
        assert list(server.engine.spool.iterdir()) == []

    def test_suspend_writes_one_snapshot_deleted_when_done(self, server, client):
        job = client.submit(cpd_spec(seed=5, iterations=8,
                                     suspend_after_iterations=3))
        assert client.wait(job["id"], timeout=60)["job"]["state"] == "suspended"
        snapshots = list(server.engine.spool.iterdir())
        assert len(snapshots) == 1
        ck = load_checkpoint(snapshots[0], expect_kind="cp_als")
        assert ck.iteration == 3
        assert len(ck.arrays["fits"]) == 3
        client.resume(job["id"])
        assert client.wait(job["id"], timeout=60)["job"]["state"] == "done"
        assert list(server.engine.spool.iterdir()) == []
        assert server.store.get(job["id"]).checkpoint_path is None

    def test_cancelled_resume_drops_snapshot(self, server, client):
        job = client.submit(cpd_spec(seed=5, iterations=8,
                                     suspend_after_iterations=3))
        client.wait(job["id"], timeout=60)
        assert len(list(server.engine.spool.iterdir())) == 1
        server.scheduler.batch_window = 0.5
        client.resume(job["id"])
        assert client.cancel(job["id"])["state"] == "cancelled"
        assert list(server.engine.spool.iterdir()) == []

    def test_suspend_while_queued_needs_no_checkpoint(self, server):
        server.scheduler.batch_window = 0.5
        with ServeClient(port=server.port) as c:
            job = c.submit(cpd_spec(seed=6))
            response = c.suspend(job["id"])
            assert response["state"] == "suspended"
            c.resume(job["id"])
            assert c.wait(job["id"], timeout=60)["job"]["state"] == "done"

    def test_resume_requires_suspended(self, client):
        job = client.submit(cpd_spec(seed=7))
        client.wait(job["id"], timeout=60)
        with pytest.raises(ServeError) as exc:
            client.resume(job["id"])
        assert exc.value.code == "job.bad_state"

    def test_cancel_queued_job(self, server):
        server.scheduler.batch_window = 0.5
        with ServeClient(port=server.port) as c:
            job = c.submit(cpd_spec(seed=8))
            cancelled = c.cancel(job["id"])
            assert cancelled["state"] == "cancelled"
            status = c.status(job["id"])["job"]
            assert status["error"]["code"] == "job.cancelled"

    def test_cancel_done_job_fails_cleanly(self, client):
        job = client.submit(cpd_spec(seed=9))
        client.wait(job["id"], timeout=60)
        with pytest.raises(ServeError) as exc:
            client.cancel(job["id"])
        assert exc.value.code == "job.bad_state"


# ======================================================================
# fault injection at the job layer
# ======================================================================
class TestFaultRetry:
    def test_faulted_job_retries_and_matches_clean_run(self, tmp_path):
        spec = cpd_spec(seed=11, iterations=6)
        clean_config = ServeConfig(port=0, spool=tmp_path / "clean")
        with ReproServer(clean_config) as srv:
            with ServeClient(port=srv.port) as c:
                job = c.submit(spec)
                clean = c.wait(job["id"], timeout=60)

        faulty_config = ServeConfig(
            port=0, spool=tmp_path / "faulty",
            fault_targets=[(JOB_FAULT_SITE, 1)],
        )
        with ReproServer(faulty_config) as srv:
            with ServeClient(port=srv.port) as c:
                job = c.submit(spec)
                retried = c.wait(job["id"], timeout=60)
                assert retried["job"]["state"] == "done"
                assert retried["job"]["attempts"] == 2
                counters = c.metrics()["metrics"]["engine"]
                assert counters["job_retries"] == 1
        assert np.allclose(retried["result"]["lambda"],
                           clean["result"]["lambda"])
        assert retried["result"]["fit"] == pytest.approx(
            clean["result"]["fit"], abs=1e-12)

    def test_faulted_resume_retries_from_snapshot(self, tmp_path):
        spec = cpd_spec(seed=14, iterations=8)
        with ReproServer(ServeConfig(port=0, spool=tmp_path / "clean")) as srv:
            with ServeClient(port=srv.port) as c:
                clean = c.wait(c.submit(spec)["id"], timeout=60)

        # attempt 1 suspends at iteration 3; attempt 2 (the resume)
        # faults; attempt 3 must pick up the snapshot again
        config = ServeConfig(port=0, spool=tmp_path / "faulty",
                             fault_targets=[(JOB_FAULT_SITE, 2)])
        with ReproServer(config) as srv:
            with ServeClient(port=srv.port) as c:
                job = c.submit({**spec, "suspend_after_iterations": 3,
                                "trace": True})
                assert c.wait(job["id"], timeout=60)["job"]["state"] == "suspended"
                c.resume(job["id"])
                resumed = c.wait(job["id"], timeout=60)
                assert resumed["job"]["state"] == "done"
                assert resumed["job"]["attempts"] == 3
                assert c.metrics()["metrics"]["engine"]["job_retries"] == 1
                # the trace is the last attempt's: it resumed, not restarted
                events = c.trace(job["id"])["trace"]["traceEvents"]
        solves = [e for e in events if e.get("name") == "cp_als"]
        assert [e["args"].get("resumed_from_iteration") for e in solves] == [3]
        assert list((tmp_path / "faulty").iterdir()) == []
        assert resumed["result"]["iterations"] == 8
        assert resumed["result"]["fit"] == pytest.approx(
            clean["result"]["fit"], abs=1e-12)

    def test_persistent_fault_exhausts_retries(self, tmp_path):
        config = ServeConfig(
            port=0, spool=tmp_path / "spool", max_job_retries=2,
            fault_targets=[(JOB_FAULT_SITE, 1), (JOB_FAULT_SITE, 2),
                           (JOB_FAULT_SITE, 3)],
        )
        with ReproServer(config) as srv:
            with ServeClient(port=srv.port) as c:
                job = c.submit(cpd_spec(seed=12))
                failed = c.wait(job["id"], timeout=60)["job"]
        assert failed["state"] == "failed"
        assert failed["attempts"] == 3
        assert failed["error"]["code"] == "job.fault_retries_exhausted"

    def test_real_error_fails_without_retry(self, server):
        with ServeClient(port=server.port) as c:
            # an invalid solver variant raises inside the job, not a fault
            job = c.submit(cpd_spec(seed=13, variant="bogus"))
            failed = c.wait(job["id"], timeout=60)["job"]
        assert failed["state"] == "failed"
        assert failed["error"]["code"] == "job.error"
        assert failed["attempts"] == 1


# ======================================================================
# concurrent mixed-tenant traffic under the sanitizer
# ======================================================================
class TestConcurrentClients:
    def test_parallel_mixed_clients_sanitized(self, tmp_path):
        config = ServeConfig(port=0, spool=tmp_path / "spool",
                             batch_window=0.05, sanitize=True)
        specs = [
            cpd_spec(seed=1, tensor_seed=0),
            cpd_spec(seed=2, tensor_seed=0),            # batches with #1
            cpd_spec(seed=3, tensor_seed=4, rank=3),    # different tensor
            {"kind": "tucker", "inline": inline_tensor(5), "ranks": [3],
             "iterations": 3},
            {"kind": "complete", "inline": inline_tensor(6), "rank": 3,
             "epochs": 3},
            cpd_spec(seed=4, tensor_seed=0, iterations=3),
        ]
        results: list = [None] * len(specs)
        errors: list = []

        def one_client(i: int, spec: dict) -> None:
            try:
                with ServeClient(port=srv.port, tenant=f"tenant-{i % 3}") as c:
                    job = c.submit(spec)
                    results[i] = c.wait(job["id"], timeout=120)
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append((i, exc))

        with ReproServer(config) as srv:
            threads = [
                threading.Thread(target=one_client, args=(i, s))
                for i, s in enumerate(specs)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
        assert not errors, errors
        assert all(r["job"]["state"] == "done" for r in results)
        report = srv.sanitize_report
        assert report is not None
        assert report.ok, report.render()

    def test_many_requests_one_connection(self, client):
        # interleave control-plane ops while jobs run
        ids = [client.submit(cpd_spec(seed=s))["id"] for s in range(4)]
        for i in ids:
            assert client.status(i)["job"]["state"] in (
                "queued", "running", "done")
        assert client.metrics()["metrics"]["engine"]["jobs_submitted"] >= 4
        for i in ids:
            assert client.wait(i, timeout=60)["job"]["state"] == "done"


# ======================================================================
# metrics
# ======================================================================
class TestMetrics:
    def test_json_scrape_shape(self, client):
        job = client.submit(cpd_spec(seed=1))
        client.wait(job["id"], timeout=60)
        metrics = client.metrics()["metrics"]
        assert metrics["jobs_by_state"]["done"] == 1
        assert metrics["tenants"]["default"]["jobs"] == 1
        assert metrics["engine"]["jobs_executed"] == 1
        assert metrics["scheduler"]["batches"] >= 1
        assert metrics["uptime_seconds"] > 0

    def test_prometheus_rendering(self, client):
        job = client.submit(cpd_spec(seed=1))
        client.wait(job["id"], timeout=60)
        text = client.metrics(format="prometheus")["text"]
        assert "# TYPE repro_serve_uptime_seconds counter" in text
        assert 'repro_serve_jobs{state="done"} 1' in text
        assert "repro_serve_plan_hits" in text
        assert 'repro_serve_tenant_jobs{tenant="default"} 1' in text
        assert "repro_serve_backend_info{backend=" in text
        # every non-comment line is "name{labels} value"
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name.startswith("repro_serve_")
            float(value)

    def test_sanitize_findings_gauge_present(self, tmp_path):
        config = ServeConfig(port=0, spool=tmp_path / "spool", sanitize=True)
        with ReproServer(config) as srv:
            with ServeClient(port=srv.port) as c:
                assert c.metrics()["metrics"]["sanitize_findings"] == 0
                text = c.metrics(format="prometheus")["text"]
                assert "repro_serve_sanitize_findings 0" in text


# ======================================================================
# shutdown
# ======================================================================
class TestShutdown:
    def test_close_cancels_queued_jobs(self, tmp_path):
        config = ServeConfig(port=0, spool=tmp_path / "spool",
                             batch_window=5.0)
        srv = ReproServer(config).start()
        try:
            with ServeClient(port=srv.port) as c:
                job = c.submit(cpd_spec(seed=1))
        finally:
            srv.close()
        record = srv.store.get(job["id"])
        assert record.state == "cancelled"
        assert record.error["code"] == "job.server_shutdown"

    def test_close_is_idempotent(self, tmp_path):
        srv = ReproServer(ServeConfig(port=0, spool=tmp_path / "s")).start()
        srv.close()
        srv.close()

    def test_worker_pool_released_on_close(self, tmp_path):
        srv = ReproServer(ServeConfig(port=0, spool=tmp_path / "s",
                                      tasks=2)).start()
        with ServeClient(port=srv.port) as c:
            job = c.submit(cpd_spec(seed=1))
            c.wait(job["id"], timeout=60)
        layer = srv.engine.layer
        srv.close()
        assert layer._pool is None  # shutdown() joins and drops the pool


# ======================================================================
# the CLI, as real subprocesses
# ======================================================================
@pytest.mark.slow
class TestServeCli:
    def _start_daemon(self, tmp_path, *extra_args):
        port_file = tmp_path / "port"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file), "--spool", str(tmp_path / "spool"),
             *extra_args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.time() + 30
        while not port_file.exists() and time.time() < deadline:
            if daemon.poll() is not None:
                raise AssertionError(
                    f"daemon died at startup: {daemon.stdout.read()}")
            time.sleep(0.1)
        assert port_file.exists(), "daemon never wrote its port file"
        return daemon, int(port_file.read_text().strip())

    def _submit(self, port, *args, check=True):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "submit",
             "--port", str(port), *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if check:
            assert proc.returncode == 0, proc.stderr or proc.stdout
        return proc

    def test_daemon_submit_metrics_shutdown(self, tmp_path):
        tns = tmp_path / "x.tns"
        rng = np.random.default_rng(3)
        lines = [
            f"{i} {j} {k} {v:.6f}\n"
            for i, j, k, v in zip(
                rng.integers(1, 9, 300), rng.integers(1, 7, 300),
                rng.integers(1, 8, 300), rng.standard_normal(300))
        ]
        tns.write_text("".join(lines))

        daemon, port = self._start_daemon(tmp_path)
        try:
            out = self._submit(port, str(tns), "--rank", "3", "-i", "4")
            payload = json.loads(out.stdout)
            assert payload["job"]["state"] == "done"
            assert 0.0 < payload["result"]["fit"] <= 1.0

            # second identical submission rides the warm caches
            self._submit(port, str(tns), "--rank", "3", "-i", "4")
            scrape = self._submit(port, "--metrics", "--prometheus").stdout
            metrics = {
                line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
                for line in scrape.strip().splitlines()
                if not line.startswith("#")
            }
            assert metrics["repro_serve_tensor_cache_hits"] >= 1
            assert metrics["repro_serve_plan_hits"] > 0
            assert metrics['repro_serve_jobs{state="done"}'] == 2

            self._submit(port, "--shutdown")
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10)

    def test_cli_suspend_resume_round_trip(self, tmp_path):
        daemon, port = self._start_daemon(tmp_path)
        try:
            spec = json.dumps(cpd_spec(seed=5, iterations=8,
                                       suspend_after_iterations=3))
            out = self._submit(port, "--spec", spec)
            suspended = json.loads(out.stdout)
            assert suspended["job"]["state"] == "suspended"
            job_id = suspended["job"]["id"]
            resumed = json.loads(
                self._submit(port, "--resume", job_id).stdout)
            assert resumed["state"] == "queued"
            deadline = time.time() + 60
            while time.time() < deadline:
                status = json.loads(
                    self._submit(port, "--status", job_id).stdout)
                if status["job"]["state"] == "done":
                    break
                time.sleep(0.3)
            assert status["job"]["state"] == "done"
            self._submit(port, "--shutdown")
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10)

    def test_quota_rejection_exit_code(self, tmp_path):
        daemon, port = self._start_daemon(tmp_path, "--max-nnz", "10")
        try:
            spec = json.dumps(cpd_spec())
            proc = self._submit(port, "--spec", spec, check=False)
            assert proc.returncode == 1
            rejection = json.loads(proc.stderr)
            assert rejection["code"] == "quota.max_nnz"
            assert rejection["limit"] == 10
        finally:
            daemon.send_signal(signal.SIGINT)
            assert daemon.wait(timeout=30) == 0


# ======================================================================
# lifecycle unwinding on failed start/connect (regression: found by
# `repro analyze`'s must-release pass)
# ======================================================================
class TestStartUnwind:
    def test_failed_bind_uninstalls_sanitizer(self, tmp_path):
        """A bind failure mid-start must unwind the process-global
        sanitizer install, not strand it."""
        import socket as socket_mod

        from repro.sanitize import detector

        blocker = socket_mod.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            config = ServeConfig(
                host="127.0.0.1", port=port,
                spool=tmp_path / "spool", sanitize=True,
            )
            srv = ReproServer(config)
            with pytest.raises(OSError):
                srv.start()
            assert detector.active_sanitizer() is None
            assert not detector.enabled()
        finally:
            blocker.close()

    def test_failed_bind_leaves_server_reusable_config(self, tmp_path):
        """After a failed start, a fresh server on a free port still
        works — nothing global is left half-installed."""
        import socket as socket_mod

        blocker = socket_mod.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            bad = ServeConfig(host="127.0.0.1", port=port,
                              spool=tmp_path / "bad", sanitize=True)
            with pytest.raises(OSError):
                ReproServer(bad).start()
        finally:
            blocker.close()
        good = ServeConfig(port=0, spool=tmp_path / "good", sanitize=True)
        with ReproServer(good) as srv:
            with ServeClient(port=srv.port) as c:
                assert c.call("ping")["ok"] is True


class TestConnectUnwind:
    def test_makefile_failure_closes_socket(self, monkeypatch):
        """If makefile() fails mid-connect the raw socket must be closed,
        not leaked (regression: found by `repro analyze`)."""
        from repro.serve import client as client_mod

        class FakeSock:
            def __init__(self):
                self.closed = False

            def makefile(self, mode):
                raise RuntimeError("makefile failed")

            def close(self):
                self.closed = True

        fake = FakeSock()
        monkeypatch.setattr(
            client_mod.socket, "create_connection",
            lambda *a, **k: fake,
        )
        c = ServeClient(port=1)
        with pytest.raises(RuntimeError, match="makefile failed"):
            c.connect()
        assert fake.closed
        assert c._sock is None
