"""Multi-process (shared-memory) transport tests for distributed CP-ALS.

Every test that spawns workers also asserts :func:`leaked_segments` comes
back empty — the suite doubles as the leak check the CI ``distributed``
job runs explicitly afterwards.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.distributed import (
    ProcTransport,
    ShmArena,
    SimTransport,
    distributed_cp_als,
    leaked_segments,
    make_transport,
)
from repro.observe import spans as _obs
from repro.resilience import FaultPlan, RetryPolicy, inject_faults, retrying
from repro.tensor.generate import DATASET_SIGNATURES, random_tensor, synthetic_dataset


@pytest.fixture()
def tensor():
    return random_tensor((24, 18, 30), 1500, seed=6)


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test in this module must leave /dev/shm clean."""
    assert leaked_segments() == [], "pre-existing leaked segments"
    yield
    assert leaked_segments() == [], "test leaked shared-memory segments"


class TestShmArena:
    def test_create_put_read(self):
        with ShmArena() as arena:
            a = arena.create("a", (4, 3), np.float64)
            assert a.shape == (4, 3) and (a == 0).all()
            src = np.arange(6, dtype=np.int64).reshape(2, 3)
            b = arena.put("b", src)
            np.testing.assert_array_equal(b, src)
            assert "a" in arena and "c" not in arena
            assert arena.nbytes >= a.nbytes + b.nbytes

    def test_duplicate_key_rejected(self):
        with ShmArena() as arena:
            arena.create("x", (2,), np.float64)
            with pytest.raises(ValueError, match="already has"):
                arena.create("x", (2,), np.float64)

    def test_attach_sees_owner_writes(self):
        owner = ShmArena()
        try:
            arr = owner.put("data", np.zeros(8))
            attached = ShmArena.attach(owner.manifest())
            arr[3] = 7.5
            assert attached["data"][3] == 7.5  # same physical pages
            attached["data"][4] = -1.0
            assert arr[4] == -1.0
            attached.close()
        finally:
            owner.close()

    def test_close_idempotent_and_unlinks(self):
        arena = ShmArena()
        arena.create("seg", (16,), np.float64)
        assert leaked_segments() != []
        arena.close()
        assert leaked_segments() == []
        arena.close()  # second close is a no-op

    def test_manifest_is_plain_data(self):
        with ShmArena() as arena:
            arena.create("k", (3, 2), np.int64)
            ((key, (name, shape, dtype)),) = arena.manifest().items()
            assert key == "k" and shape == (3, 2)
            assert isinstance(name, str) and np.dtype(dtype) == np.int64


class TestProcMatchesSim:
    @pytest.mark.parametrize("nlocales", [2, 4])
    def test_allclose_to_sim(self, tensor, nlocales):
        kwargs = dict(nlocales=nlocales, max_iterations=5, tolerance=0, seed=5)
        sim = distributed_cp_als(tensor, 3, transport="sim", **kwargs)
        proc = distributed_cp_als(tensor, 3, transport="proc", **kwargs)
        assert proc.transport == "proc" and sim.transport == "sim"
        assert proc.fit == pytest.approx(sim.fit, rel=1e-10)
        np.testing.assert_allclose(
            proc.kruskal.weights, sim.kruskal.weights, rtol=1e-10, atol=1e-12
        )
        for a, b in zip(proc.kruskal.factors, sim.kruskal.factors):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("dataset", sorted(DATASET_SIGNATURES))
    def test_paper_signatures(self, dataset):
        """Every Table I generator signature decomposes identically on
        both transports (tiny scale keeps the suite fast)."""
        t = synthetic_dataset(dataset, scale=0.004, seed=2).deduplicate()
        kwargs = dict(nlocales=4, max_iterations=3, tolerance=0, seed=1)
        sim = distributed_cp_als(t, 3, transport="sim", **kwargs)
        proc = distributed_cp_als(t, 3, transport="proc", **kwargs)
        assert proc.fit == pytest.approx(sim.fit, rel=1e-10)
        for a, b in zip(proc.kruskal.factors, sim.kruskal.factors):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_comm_stats_identical(self, tensor):
        """The data plane changes; the metered communication must not."""
        kwargs = dict(nlocales=4, max_iterations=4, tolerance=0, seed=0)
        sim = distributed_cp_als(tensor, 2, transport="sim", **kwargs)
        proc = distributed_cp_als(tensor, 2, transport="proc", **kwargs)
        assert proc.comm == sim.comm

    def test_single_locale_proc(self, tensor):
        res = distributed_cp_als(tensor, 2, nlocales=1, transport="proc",
                                 max_iterations=3, tolerance=0)
        assert res.comm.total_messages == 0
        assert sorted(res.locale_stats) == [0]


class TestLocaleStats:
    def test_per_locale_summaries_collected(self, tensor):
        res = distributed_cp_als(tensor, 2, nlocales=4, transport="proc",
                                 max_iterations=2, tolerance=0)
        assert sorted(res.locale_stats) == [0, 1, 2, 3]
        for stats in res.locale_stats.values():
            assert stats["span.locale.mttkrp.count"] == 2 * 3  # iters * modes
            assert all(isinstance(v, (int, float)) for v in stats.values())

    def test_absorbed_into_active_recorder(self, tensor, tmp_path):
        from repro.observe import tracing

        with tracing(tmp_path / "trace.json") as rec:
            distributed_cp_als(tensor, 2, nlocales=2, transport="proc",
                               max_iterations=2, tolerance=0)
            counters = rec.counters()
        locale_keys = [k for k in counters if k.startswith("locale")]
        assert any(k.startswith("locale0.") for k in locale_keys)
        assert any("locale.mttkrp" in k for k in locale_keys)
        assert counters["dist.shm.bytes_mapped"] > 0


class TestResilienceUnderProc:
    def test_retried_fold_still_correct(self, tensor):
        """Injected comm.fold faults retry at the real fold site and the
        decomposition still matches the fault-free run."""
        clean = distributed_cp_als(tensor, 2, nlocales=4, transport="proc",
                                   max_iterations=3, tolerance=0, seed=4)
        plan = FaultPlan(targets=[("comm.fold", 2), ("comm.expand", 5)])
        with inject_faults(plan), retrying(RetryPolicy(max_retries=2, sleep=False)):
            faulty = distributed_cp_als(tensor, 2, nlocales=4, transport="proc",
                                        max_iterations=3, tolerance=0, seed=4)
        assert faulty.comm.faults_injected == 2
        assert faulty.comm.retries == 2
        assert faulty.fit == pytest.approx(clean.fit, rel=1e-12)

    def test_degraded_exchange_still_delivers(self, tensor):
        plan = FaultPlan(targets=[("comm.fold", 1)])
        with inject_faults(plan), retrying(
            RetryPolicy(max_retries=0, degrade=True, sleep=False)
        ):
            res = distributed_cp_als(tensor, 2, nlocales=4, transport="proc",
                                     max_iterations=2, tolerance=0, seed=4)
        assert res.comm.degraded_exchanges == 1
        assert res.fits  # the run completed


class TestTransportObjects:
    def test_make_transport_dispatch(self, tensor):
        from repro.distributed.grid import choose_grid
        from repro.distributed.partition import partition_medium_grain

        grid = choose_grid(tensor.dims, 4)
        part = partition_medium_grain(tensor, grid)
        assert isinstance(make_transport("sim", part, grid, 3), SimTransport)
        assert isinstance(make_transport("proc", part, grid, 3), ProcTransport)
        with pytest.raises(ValueError, match="unknown transport"):
            make_transport("mpi", part, grid, 3)

    def test_proc_cleans_up_on_failed_start(self, tensor, monkeypatch):
        """A worker that dies during start must not strand segments."""
        from repro.distributed.grid import choose_grid
        from repro.distributed.partition import partition_medium_grain

        # An explicitly named unavailable backend makes every worker fail
        # during startup; the workers inherit the disabling variable.
        monkeypatch.setenv("REPRO_BACKEND_DISABLE", "cext")
        grid = choose_grid(tensor.dims, 2)
        part = partition_medium_grain(tensor, grid)
        tr = make_transport("proc", part, grid, 3, backend="cext")
        with pytest.raises(RuntimeError, match="worker"):
            with tr:
                tr.start([np.zeros((d, 3)) for d in tensor.dims])
        assert leaked_segments() == []


class TestCliProc:
    def test_cpd_transport_proc_subprocess(self, tensor, tmp_path):
        """The full CLI path: convert to .tnsb, decompose with --transport
        proc, in a fresh interpreter (exercises spawn from an entry point)."""
        from repro.tensor.io import save_mmap

        path = tmp_path / "t.tnsb"
        save_mmap(tensor, path)
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cpd", str(path),
             "-r", "3", "-i", "2", "--tolerance", "0",
             "--locales", "2", "--transport", "proc"],
            capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert "transport: proc" in out.stdout
        assert "locale 0:" in out.stdout
