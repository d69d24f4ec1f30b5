"""Unit tests for the CP-ALS core: Kruskal tensors, timers, options, driver."""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.core.cpals import CpalsResult, cp_als, init_factors
from repro.core.kruskal import KruskalTensor
from repro.core.options import CpalsOptions, DEFAULT_ITERATIONS, DEFAULT_RANK
from repro.core.timers import ROUTINES, RoutineTimers
from repro.runtime.env import ChapelEnv
from repro.tensor.coo import SparseTensor
from repro.tensor.generate import planted_low_rank, random_tensor


class TestKruskalTensor:
    def _model(self, rng, dims=(4, 3, 5), rank=2):
        return KruskalTensor(
            rng.random(rank), [rng.random((d, rank)) for d in dims]
        )

    def test_properties(self, rng):
        kt = self._model(rng)
        assert kt.rank == 2
        assert kt.nmodes == 3
        assert kt.dims == (4, 3, 5)

    def test_to_dense_matches_outer_sum(self, rng):
        kt = self._model(rng)
        expected = np.einsum(
            "r,ir,jr,kr->ijk", kt.weights, *kt.factors
        )
        np.testing.assert_allclose(kt.to_dense(), expected)

    def test_norm_matches_dense(self, rng):
        kt = self._model(rng)
        assert kt.norm() == pytest.approx(np.linalg.norm(kt.to_dense()))

    def test_predict_matches_dense(self, rng):
        kt = self._model(rng)
        coords = np.array([[0, 0, 0], [3, 2, 4], [1, 1, 2]])
        dense = kt.to_dense()
        np.testing.assert_allclose(kt.predict(coords), dense[tuple(coords.T)])

    def test_predict_shape_checked(self, rng):
        kt = self._model(rng)
        with pytest.raises(ValueError, match="coords"):
            kt.predict(np.zeros((3, 2), dtype=int))

    def test_fit_to_exact_model(self, rng):
        kt = self._model(rng)
        tensor = SparseTensor.from_dense(kt.to_dense())
        assert kt.fit_to(tensor) == pytest.approx(1.0, abs=1e-6)

    def test_fit_to_dims_checked(self, rng):
        kt = self._model(rng)
        t = random_tensor((2, 2, 2), 3, seed=0)
        with pytest.raises(ValueError, match="dims"):
            kt.fit_to(t)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            KruskalTensor(np.ones((2, 2)), [np.ones((3, 2))])
        with pytest.raises(ValueError, match="incompatible"):
            KruskalTensor(np.ones(2), [np.ones((3, 4))])


class TestRoutineTimers:
    def test_routines_match_paper_breakdown(self):
        assert set(ROUTINES) == {
            "mttkrp", "sort", "mat_ata", "mat_norm", "cpd_fit", "inverse"
        }

    def test_time_context(self):
        t = RoutineTimers()
        with t.time("mttkrp"):
            pass
        assert t.total("mttkrp") >= 0.0
        assert t.counts["mttkrp"] == 1

    def test_add_and_total(self):
        t = RoutineTimers()
        t.add("sort", 1.5)
        t.add("sort", 0.5)
        assert t.total("sort") == 2.0
        assert t.grand_total == 2.0

    def test_unknown_routine(self):
        t = RoutineTimers()
        with pytest.raises(KeyError):
            t.add("gemm", 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RoutineTimers().add("sort", -1.0)

    def test_merge(self):
        a, b = RoutineTimers(), RoutineTimers()
        a.add("mttkrp", 1.0)
        b.add("mttkrp", 2.0)
        a.merge(b)
        assert a.total("mttkrp") == 3.0

    def test_as_row_uses_paper_labels(self):
        row = RoutineTimers().as_row()
        assert set(row) == {"MTTKRP", "Sort", "Mat A^TA", "Mat norm", "CPD fit", "Inverse"}


class TestOptions:
    def test_paper_defaults(self):
        assert DEFAULT_RANK == 35
        assert DEFAULT_ITERATIONS == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            CpalsOptions(max_iterations=0)
        with pytest.raises(ValueError):
            CpalsOptions(tolerance=-1)
        with pytest.raises(ValueError):
            CpalsOptions(variant="cuda")
        with pytest.raises(ValueError):
            CpalsOptions(sort_variant="quick")
        with pytest.raises(ValueError):
            CpalsOptions(allocation="five")
        with pytest.raises(ValueError):
            CpalsOptions(mutex_kind="rwlock")
        with pytest.raises(ValueError):
            CpalsOptions(pool_size=0)

    def test_checkpoint_serial_still_accepted(self):
        opts = CpalsOptions(checkpoint_path="ck.npz", resume_from="ck.npz")
        assert opts.checkpoint_path == opts.resume_from == "ck.npz"

    def test_cp_als_reads_every_field(self):
        """An option ``cp_als`` never reads configures nothing: each field
        must appear as ``opts.<name>`` in the solver's source."""
        source = inspect.getsource(cp_als)
        unread = [f.name for f in dataclasses.fields(CpalsOptions)
                  if f"opts.{f.name}" not in source]
        assert not unread, f"CpalsOptions fields cp_als never reads: {unread}"


class TestInitFactors:
    def test_shapes_and_determinism(self):
        a = init_factors((4, 5), 3, 7)
        b = init_factors((4, 5), 3, 7)
        assert [f.shape for f in a] == [(4, 3), (5, 3)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestCpAls:
    def test_planted_recovery(self, planted):
        tensor, _ = planted
        result = cp_als(tensor, 3, CpalsOptions(max_iterations=150, tolerance=0.0))
        assert result.fit > 0.995

    def test_fit_monotone_increasing(self, planted):
        tensor, _ = planted
        result = cp_als(tensor, 3, CpalsOptions(max_iterations=30, tolerance=0.0))
        fits = np.asarray(result.fits)
        # ALS fit is monotone up to tiny numerical wiggle
        assert (np.diff(fits) > -1e-8).all()

    def test_model_fit_consistent_with_internal_fit(self, planted):
        tensor, _ = planted
        result = cp_als(tensor, 3, CpalsOptions(max_iterations=40, tolerance=0.0))
        assert result.kruskal.fit_to(tensor) == pytest.approx(result.fit, abs=1e-6)

    def test_convergence_stops_early(self, planted):
        tensor, _ = planted
        result = cp_als(tensor, 3, CpalsOptions(max_iterations=500, tolerance=1e-7))
        assert result.converged
        assert result.iterations < 500
        assert len(result.fits) == result.iterations

    def test_tolerance_zero_runs_all_iterations(self, small_tensor):
        result = cp_als(small_tensor, 2, CpalsOptions(max_iterations=4, tolerance=0.0))
        assert result.iterations == 4
        assert not result.converged

    @pytest.mark.parametrize("variant", ["vectorized", "pointer"])
    def test_variants_agree(self, planted, variant):
        tensor, _ = planted
        opts = CpalsOptions(max_iterations=5, tolerance=0.0, variant=variant, seed=3)
        result = cp_als(tensor, 2, opts)
        ref = cp_als(tensor, 2, CpalsOptions(max_iterations=5, tolerance=0.0, seed=3))
        assert result.fit == pytest.approx(ref.fit, abs=1e-8)

    @pytest.mark.parametrize("allocation", ["one", "two", "all"])
    def test_allocations_agree(self, planted, allocation):
        tensor, _ = planted
        opts = CpalsOptions(max_iterations=5, tolerance=0.0, allocation=allocation, seed=3)
        result = cp_als(tensor, 2, opts)
        ref = cp_als(tensor, 2, CpalsOptions(max_iterations=5, tolerance=0.0, seed=3))
        assert result.fit == pytest.approx(ref.fit, abs=1e-8)

    def test_parallel_matches_serial(self, planted):
        tensor, _ = planted
        serial = cp_als(tensor, 2, CpalsOptions(max_iterations=5, tolerance=0.0, seed=3))
        par = cp_als(
            tensor, 2,
            CpalsOptions(max_iterations=5, tolerance=0.0, seed=3,
                         env=ChapelEnv(num_tasks=4)),
        )
        assert par.fit == pytest.approx(serial.fit, abs=1e-8)

    def test_timers_populated(self, small_tensor):
        result = cp_als(small_tensor, 2, CpalsOptions(max_iterations=2, tolerance=0.0))
        for routine in ROUTINES:
            assert result.timers.counts[routine] > 0

    def test_mttkrp_infos_recorded(self, small_tensor):
        result = cp_als(small_tensor, 2, CpalsOptions(max_iterations=2, tolerance=0.0))
        assert len(result.mttkrp_infos) == 2 * small_tensor.nmodes
        assert {i.mode for i in result.mttkrp_infos} == {0, 1, 2}

    def test_factors_normalized(self, small_tensor):
        result = cp_als(small_tensor, 2, CpalsOptions(max_iterations=3, tolerance=0.0))
        # after max-norm iterations every |entry| <= 1 (+eps)
        for f in result.kruskal.factors:
            assert np.abs(f).max() <= 1.0 + 1e-9

    def test_order4_supported_with_vectorized(self, order4_tensor):
        result = cp_als(order4_tensor, 2, CpalsOptions(max_iterations=2, tolerance=0.0))
        assert result.kruskal.nmodes == 4

    def test_order1_rejected(self):
        t = random_tensor((5,), 3, seed=0)
        with pytest.raises(ValueError, match="order-2"):
            cp_als(t, 2)

    def test_empty_rejected(self):
        t = SparseTensor(np.empty((0, 3), dtype=int), np.empty(0), (2, 2, 2))
        with pytest.raises(ValueError, match="empty"):
            cp_als(t, 2)

    def test_invalid_rank(self, small_tensor):
        with pytest.raises(ValueError):
            cp_als(small_tensor, 0)

    def test_result_type(self, small_tensor):
        result = cp_als(small_tensor, 2, CpalsOptions(max_iterations=1, tolerance=0.0))
        assert isinstance(result, CpalsResult)
        assert result.fit == result.fits[-1]

    def test_seed_reproducible(self, small_tensor):
        opts = CpalsOptions(max_iterations=3, tolerance=0.0, seed=42)
        a = cp_als(small_tensor, 2, opts)
        b = cp_als(small_tensor, 2, opts)
        assert a.fit == b.fit
        for fa, fb in zip(a.kruskal.factors, b.kruskal.factors):
            np.testing.assert_array_equal(fa, fb)

    def test_noisy_planted_partial_fit(self):
        tensor, _ = planted_low_rank((8, 7, 6), 2, 8 * 7 * 6, noise=0.1, seed=1)
        result = cp_als(tensor, 2, CpalsOptions(max_iterations=50, tolerance=0.0))
        assert 0.5 < result.fit < 1.0
