"""Lifecycle tests for the persistent :class:`repro.runtime.pool.WorkerPool`.

Covers idempotent shutdown, the ephemeral fallback after shutdown (and for
nested/concurrent dispatches), lazy ``_ensure`` growth, error propagation,
and consistency/monotonicity of the stats counters under concurrent use.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime.pool import WorkerPool, run_ephemeral


@pytest.fixture()
def pool():
    p = WorkerPool(name="test-pool")
    yield p
    p.shutdown()


# ----------------------------------------------------------------------
# basic dispatch + growth
# ----------------------------------------------------------------------
def test_run_executes_every_tid(pool):
    seen = []
    lock = threading.Lock()

    def body(tid):
        with lock:
            seen.append(tid)

    pool.run(4, body)
    assert sorted(seen) == [0, 1, 2, 3]
    assert pool.num_workers == 4
    assert pool.dispatches == 1
    assert pool.tasks_executed == 4


def test_ensure_grows_lazily_and_never_shrinks(pool):
    pool.run(2, lambda tid: None)
    assert pool.num_workers == 2
    assert pool.threads_created == 2
    pool.run(1, lambda tid: None)   # smaller dispatch keeps existing workers
    assert pool.num_workers == 2
    assert pool.threads_created == 2
    pool.run(5, lambda tid: None)   # grows by exactly the missing 3
    assert pool.num_workers == 5
    assert pool.threads_created == 5
    assert pool.dispatches == 3


def test_workers_are_reused_across_dispatches(pool):
    idents: set[int] = set()
    lock = threading.Lock()

    def body(tid):
        with lock:
            idents.add(threading.get_ident())

    for _ in range(5):
        pool.run(3, body)
    assert len(idents) == 3
    assert pool.threads_created == 3
    assert pool.tasks_executed == 15


def test_run_rejects_nonpositive_ntasks(pool):
    with pytest.raises(ValueError):
        pool.run(0, lambda tid: None)


def test_error_propagates_after_all_tasks_finish(pool):
    done = [False] * 3

    def body(tid):
        done[tid] = True
        if tid == 1:
            raise RuntimeError("task 1 failed")

    with pytest.raises(RuntimeError, match="task 1 failed"):
        pool.run(3, body)
    assert all(done)
    # the pool stays usable after a task error
    pool.run(2, lambda tid: None)
    assert pool.dispatches == 2


# ----------------------------------------------------------------------
# shutdown semantics
# ----------------------------------------------------------------------
def test_shutdown_is_idempotent(pool):
    pool.run(3, lambda tid: None)
    threads = [w.thread for w in pool._workers]
    pool.shutdown()
    assert pool.num_workers == 0
    for t in threads:
        assert not t.is_alive()
    pool.shutdown()  # second call is a no-op
    pool.shutdown(join=False)
    assert pool.num_workers == 0


def test_run_after_shutdown_falls_back_to_ephemeral(pool):
    pool.run(2, lambda tid: None)
    pool.shutdown()
    seen = []
    lock = threading.Lock()

    def body(tid):
        with lock:
            seen.append(tid)

    pool.run(3, body)  # never resurrects workers
    assert sorted(seen) == [0, 1, 2]
    assert pool.num_workers == 0
    assert pool.fallback_dispatches == 1
    assert pool.threads_created == 2  # unchanged


def test_ensure_after_shutdown_raises(pool):
    pool.shutdown()
    with pytest.raises(RuntimeError):
        pool._ensure(1)


# ----------------------------------------------------------------------
# nested / concurrent dispatch
# ----------------------------------------------------------------------
def test_nested_dispatch_falls_back(pool):
    inner_tids = []
    lock = threading.Lock()

    def outer(tid):
        if tid == 0:
            def inner(itid):
                with lock:
                    inner_tids.append(itid)
            pool.run(2, inner)

    pool.run(2, outer)
    assert sorted(inner_tids) == [0, 1]
    assert pool.fallback_dispatches == 1
    assert pool.dispatches == 1


def test_concurrent_dispatch_falls_back_not_deadlocks(pool):
    started = threading.Event()
    results = []
    lock = threading.Lock()

    def slow_body(tid):
        started.set()
        time.sleep(0.05)

    def competing():
        assert started.wait(timeout=5)  # ensure the pool is mid-dispatch
        pool.run(2, lambda tid: None)
        with lock:
            results.append("done")

    t = threading.Thread(target=competing)
    t.start()
    pool.run(2, slow_body)
    t.join(timeout=5)
    assert results == ["done"]
    assert pool.dispatches + pool.fallback_dispatches == 2
    assert pool.fallback_dispatches >= 1


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def test_stats_keys_and_consistency(pool):
    pool.run(2, lambda tid: None)
    pool.run(4, lambda tid: None)
    st = pool.stats()
    assert set(st) == {
        "workers", "threads_created", "dispatches",
        "fallback_dispatches", "tasks_executed",
    }
    assert st["workers"] == st["threads_created"] == 4
    assert st["dispatches"] == 2
    assert st["tasks_executed"] == 6


def test_stats_monotone_under_serial_stress(pool):
    prev = pool.stats()
    for n in (1, 3, 2, 4, 1, 4):
        pool.run(n, lambda tid: None)
        cur = pool.stats()
        for key in ("threads_created", "dispatches", "fallback_dispatches",
                    "tasks_executed"):
            assert cur[key] >= prev[key], key
        prev = cur
    assert prev["tasks_executed"] == 15


def test_stats_account_for_every_task_under_concurrency(pool):
    executed = [0]
    lock = threading.Lock()
    ntasks, rounds, nthreads = 2, 10, 4

    def body(tid):
        with lock:
            executed[0] += 1

    def hammer():
        for _ in range(rounds):
            pool.run(ntasks, body)

    threads = [threading.Thread(target=hammer) for _ in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    total_dispatches = nthreads * rounds
    assert executed[0] == total_dispatches * ntasks
    st = pool.stats()
    assert st["dispatches"] + st["fallback_dispatches"] == total_dispatches
    # pooled tasks are all accounted; fallback tasks ran ephemerally
    assert st["tasks_executed"] == st["dispatches"] * ntasks


def test_worker_idents_match_live_workers(pool):
    pool.run(3, lambda tid: None)
    idents = pool.worker_idents()
    assert len(idents) == 3
    assert len(set(idents)) == 3
    pool.shutdown()
    assert pool.worker_idents() == []


# ----------------------------------------------------------------------
# run_ephemeral
# ----------------------------------------------------------------------
def test_run_ephemeral_executes_and_propagates_first_error():
    seen = []
    lock = threading.Lock()

    def body(tid):
        with lock:
            seen.append(tid)
        if tid == 0:
            raise ValueError("boom")

    with pytest.raises(ValueError):
        run_ephemeral(3, body)
    assert sorted(seen) == [0, 1, 2]
