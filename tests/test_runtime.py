"""Unit tests for the Chapel-runtime substrate (env, locks, tasking, reductions)."""

import ast
import dataclasses
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.accounting import CostCounters
from repro.runtime.env import ChapelEnv, DEFAULT_SPINCOUNT
from repro.runtime.locks import (
    AtomicLockPool,
    SyncLockPool,
    make_mutex_pool,
)
from repro.runtime.reductions import array_reduce_buffers
from repro.runtime.tasking import TaskingLayer, make_tasking_layer, static_block


class TestChapelEnv:
    def test_defaults_match_paper_setup(self):
        env = ChapelEnv()
        assert env.num_tasks == 1
        assert env.tasking_layer == "qthreads"
        assert env.qt_affinity is True
        assert DEFAULT_SPINCOUNT == 300_000  # SimConfig's spincount default
        assert env.omp_num_threads == 1

    def test_sync_vars_sleep_under_qthreads_only(self):
        assert ChapelEnv(tasking_layer="qthreads").sync_vars_sleep
        assert not ChapelEnv(tasking_layer="fifo").sync_vars_sleep

    def test_with_tasks(self):
        env = ChapelEnv(num_tasks=2).with_tasks(8)
        assert env.num_tasks == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ChapelEnv(num_tasks=0)
        with pytest.raises(ValueError):
            ChapelEnv(tasking_layer="openmp")
        with pytest.raises(ValueError):
            ChapelEnv(omp_num_threads=0)

    def test_every_field_has_a_reader(self):
        """A knob no run reads configures nothing: each field must be read
        as ``env.<name>`` (``self.env``, ``layer.env``, ...) somewhere in
        ``src/repro`` outside ``runtime/env.py``.  ``omp_num_threads`` is
        the one expected miss until a run applies it."""
        import repro

        src = Path(repro.__file__).parent
        read: set[str] = set()
        for path in src.rglob("*.py"):
            if path == src / "runtime" / "env.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id == "env") or (
                    isinstance(owner, ast.Attribute) and owner.attr == "env"
                ):
                    read.add(node.attr)
        unread = [f.name for f in dataclasses.fields(ChapelEnv) if f.name not in read]
        assert unread == ["omp_num_threads"], f"ChapelEnv fields no run reads: {unread}"


class TestStaticBlock:
    def test_covers_range_exactly(self):
        for n in (0, 1, 7, 100):
            for ntasks in (1, 3, 8):
                blocks = [static_block(n, ntasks, t) for t in range(ntasks)]
                assert blocks[0][0] == 0
                assert blocks[-1][1] == n
                for (a, b), (c, d) in zip(blocks, blocks[1:]):
                    assert b == c

    def test_balanced(self):
        blocks = [static_block(10, 3, t) for t in range(3)]
        sizes = [hi - lo for lo, hi in blocks]
        assert sizes == [4, 3, 3]

    def test_invalid(self):
        with pytest.raises(ValueError):
            static_block(5, 0, 0)
        with pytest.raises(ValueError):
            static_block(5, 2, 2)


class TestMutexPools:
    @pytest.mark.parametrize("kind", ["atomic", "sync"])
    def test_mutual_exclusion(self, kind):
        """The classic increment race: with the pool, no updates are lost."""
        pool = make_mutex_pool(kind, size=4)
        counter = {"x": 0}
        iterations = 2_000

        def worker():
            for i in range(iterations):
                with pool.guard_row(i):
                    counter["x"] += 1

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["x"] == 4 * iterations

    @pytest.mark.parametrize("kind", ["atomic", "sync"])
    def test_lock_id_hashing(self, kind):
        pool = make_mutex_pool(kind, size=8)
        assert pool.lock_id(3) == 3
        assert pool.lock_id(11) == 3
        assert pool.lock_id(8) == 0

    def test_atomic_counts_acquires(self):
        pool = AtomicLockPool(size=2)
        with pool.guard_row(0):
            pass
        with pool.guard_row(5):
            pass
        assert pool.counters.lock_acquires == 2
        assert pool.counters.lock_contended == 0

    def test_sync_sleeps_under_qthreads(self):
        """A blocked sync acquire is descheduled (counted as a sleep)."""
        env = ChapelEnv(tasking_layer="qthreads")
        pool = SyncLockPool(size=1, env=env)
        pool.acquire(0)
        sleeps_seen = []

        def blocked():
            pool.acquire(0)
            pool.release(0)
            sleeps_seen.append(pool.counters.sync_sleeps)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)  # let it block
        pool.release(0)
        t.join(timeout=5)
        assert not t.is_alive()
        assert sleeps_seen[0] >= 1

    def test_sync_spins_under_fifo(self):
        env = ChapelEnv(tasking_layer="fifo")
        pool = SyncLockPool(size=1, env=env)
        pool.acquire(0)

        def blocked():
            pool.acquire(0)
            pool.release(0)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)
        pool.release(0)
        t.join(timeout=5)
        assert not t.is_alive()
        assert pool.counters.sync_sleeps == 0  # spun, never slept
        assert pool.counters.task_yields >= 1

    def test_sync_double_release_rejected(self):
        pool = SyncLockPool(size=1)
        pool.acquire(0)
        pool.release(0)
        with pytest.raises(RuntimeError, match="not held"):
            pool.release(0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown mutex"):
            make_mutex_pool("futex")

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            AtomicLockPool(size=0)

    def test_sync_pool_respects_env_layer(self):
        env = ChapelEnv(tasking_layer="fifo")
        pool = make_mutex_pool("sync", env=env)
        assert isinstance(pool, SyncLockPool)
        assert not pool.env.sync_vars_sleep


class TestTaskingLayers:
    def test_factory(self):
        for name in ("qthreads", "fifo"):
            layer = make_tasking_layer(ChapelEnv(tasking_layer=name))
            assert isinstance(layer, TaskingLayer)
            assert layer.name == name

    def test_coforall_runs_every_tid(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=5))
        seen = []
        lock = threading.Lock()

        def body(tid):
            with lock:
                seen.append(tid)

        layer.coforall(5, body)
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_coforall_serial_inline(self):
        layer = make_tasking_layer(ChapelEnv())
        main_thread = threading.current_thread()
        executed_in = []
        layer.coforall(1, lambda tid: executed_in.append(threading.current_thread()))
        assert executed_in == [main_thread]
        assert layer.worker_pool.dispatches == 0

    def test_coforall_counts_spawns(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=3))
        layer.coforall(3, lambda tid: None)
        stats = layer.worker_pool.stats()
        assert stats["dispatches"] == 1
        assert stats["tasks_executed"] == 3

    def test_coforall_propagates_exception(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=2))

        def body(tid):
            if tid == 1:
                raise RuntimeError("task boom")

        with pytest.raises(RuntimeError, match="task boom"):
            layer.coforall(2, body)

    def test_coforall_invalid(self):
        layer = make_tasking_layer(ChapelEnv())
        with pytest.raises(ValueError):
            layer.coforall(0, lambda tid: None)

    def test_forall_blocks_cover_space(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=4))
        hits = [0] * 23
        lock = threading.Lock()

        def body(lo, hi, tid):
            with lock:
                for i in range(lo, hi):
                    hits[i] += 1

        layer.forall(23, body)
        assert hits == [1] * 23

    def test_forall_more_tasks_than_items(self):
        layer = make_tasking_layer(ChapelEnv(num_tasks=16))
        hits = [0] * 3
        lock = threading.Lock()

        def body(lo, hi, tid):
            with lock:
                for i in range(lo, hi):
                    hits[i] += 1

        layer.forall(3, body)
        assert hits == [1, 1, 1]


class TestArrayReduceBuffers:
    def test_sums_buffers(self, rng):
        layer = make_tasking_layer(ChapelEnv(num_tasks=3))
        out = np.zeros((10, 4))
        buffers = [rng.random((10, 4)) for _ in range(5)]
        array_reduce_buffers(layer, out, buffers)
        np.testing.assert_allclose(out, sum(buffers))

    def test_accumulates_into_existing(self, rng):
        layer = make_tasking_layer(ChapelEnv(num_tasks=2))
        out = np.ones((4, 2))
        buf = rng.random((4, 2))
        array_reduce_buffers(layer, out, [buf])
        np.testing.assert_allclose(out, 1.0 + buf)

    def test_no_buffers_is_noop(self):
        layer = make_tasking_layer(ChapelEnv())
        out = np.ones((3, 3))
        array_reduce_buffers(layer, out, [])
        np.testing.assert_allclose(out, 1.0)

    def test_shape_mismatch_rejected(self):
        layer = make_tasking_layer(ChapelEnv())
        with pytest.raises(ValueError, match="shape"):
            array_reduce_buffers(layer, np.zeros((2, 2)), [np.zeros((3, 2))])


class TestCostCounters:
    def test_add_and_snapshot(self):
        c = CostCounters()
        c.add(lock_acquires=3, lock_contended=1, sync_sleeps=2)
        snap = c.snapshot()
        assert snap["lock_acquires"] == 3
        assert snap["lock_contended"] == 1
        assert snap["sync_sleeps"] == 2

    def test_contention_ratio(self):
        c = CostCounters()
        assert c.contention_ratio == 0.0
        c.add(lock_acquires=4, lock_contended=1)
        assert c.contention_ratio == 0.25

    def test_reset(self):
        c = CostCounters()
        c.add(task_yields=5)
        c.reset()
        assert c.snapshot() == {
            "lock_acquires": 0, "lock_contended": 0, "sync_sleeps": 0,
            "task_yields": 0,
        }

    def test_thread_safety(self):
        c = CostCounters()

        def worker():
            for _ in range(5_000):
                c.add(lock_acquires=1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.lock_acquires == 20_000
