"""Unit tests for the tensor-completion solvers (ALS, SGD, CCD++)."""

import numpy as np
import pytest

from repro.completion.als import als_step, als_update_mode
from repro.completion.ccd import ccd_epoch
from repro.completion.driver import (
    ALGORITHMS,
    CompletionOptions,
    CompletionResult,
    complete,
)
from repro.completion.losses import (
    evaluate,
    mae,
    predict_entries,
    residuals,
    rmse,
    squared_loss,
)
from repro.completion.sgd import sgd_epoch
from repro.tensor.coo import SparseTensor
from repro.tensor.generate import planted_low_rank


@pytest.fixture()
def planted_sparse():
    """A rank-3 tensor observed on ~60% of its cells."""
    return planted_low_rank((15, 12, 10), 3, 1100, seed=3)


def _init(tensor, rank, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random((d, rank)) * 0.5 for d in tensor.dims]


class TestLosses:
    def test_predict_matches_planted(self, planted_sparse):
        tensor, factors = planted_sparse
        np.testing.assert_allclose(
            predict_entries(tensor.coords, factors), tensor.values, atol=1e-10
        )

    def test_residuals_zero_at_truth(self, planted_sparse):
        tensor, factors = planted_sparse
        assert np.abs(residuals(tensor.coords, tensor.values, factors)).max() < 1e-10

    def test_rmse_zero_at_truth(self, planted_sparse):
        tensor, factors = planted_sparse
        assert rmse(tensor.coords, tensor.values, factors) < 1e-10

    def test_rmse_empty(self):
        assert rmse(np.empty((0, 3), dtype=int), np.empty(0), [np.ones((2, 1))] * 3) == 0.0

    def test_squared_loss_regularization_term(self, planted_sparse):
        tensor, factors = planted_sparse
        base = squared_loss(tensor.coords, tensor.values, factors, 0.0)
        reg = squared_loss(tensor.coords, tensor.values, factors, 1.0)
        expected = base + 0.5 * sum((f * f).sum() for f in factors)
        assert reg == pytest.approx(expected)

    def test_predict_shape_checked(self):
        with pytest.raises(ValueError, match="incompatible"):
            predict_entries(np.zeros((2, 2), dtype=int), [np.ones((2, 1))] * 3)


class TestAls:
    def test_monotone_loss(self, planted_sparse):
        """Each exact ALS sweep cannot increase the regularized objective."""
        tensor, _ = planted_sparse
        factors = _init(tensor, 3)
        lam = 1e-3
        prev = squared_loss(tensor.coords, tensor.values, factors, lam)
        for _ in range(8):
            als_step(tensor, factors, regularization=lam)
            cur = squared_loss(tensor.coords, tensor.values, factors, lam)
            assert cur <= prev + 1e-8
            prev = cur

    def test_mode_update_is_optimal(self, planted_sparse):
        """After solving a mode, perturbing any row must not lower the loss."""
        tensor, _ = planted_sparse
        factors = _init(tensor, 2)
        lam = 1e-2
        als_update_mode(tensor, factors, 0, lam)
        base = squared_loss(tensor.coords, tensor.values, factors, lam)
        rng = np.random.default_rng(0)
        for _ in range(5):
            perturbed = [f.copy() for f in factors]
            perturbed[0] += rng.standard_normal(perturbed[0].shape) * 1e-3
            assert squared_loss(tensor.coords, tensor.values, perturbed, lam) >= base

    def test_unobserved_rows_shrink_to_zero(self):
        # row 4 of mode 0 has no observations
        coords = np.array([[0, 0], [1, 1], [2, 0], [3, 1]])
        t = SparseTensor(coords, np.ones(4), (5, 2))
        factors = _init(t, 2)
        als_update_mode(t, factors, 0, 1e-2)
        np.testing.assert_allclose(factors[0][4], 0.0)

    def test_requires_regularization(self, planted_sparse):
        tensor, _ = planted_sparse
        with pytest.raises(ValueError, match="regularization"):
            als_step(tensor, _init(tensor, 2), regularization=0.0)

    def test_recovers_planted(self, planted_sparse):
        tensor, _ = planted_sparse
        factors = _init(tensor, 3)
        for _ in range(25):
            als_step(tensor, factors, regularization=1e-4)
        assert rmse(tensor.coords, tensor.values, factors) < 0.02


class TestSgd:
    def test_sequential_chunk1_matches_manual_gradient(self):
        """chunk_size=1 must apply the exact per-entry gradient."""
        coords = np.array([[1, 2]])
        t = SparseTensor(coords, np.array([3.0]), (3, 4))
        rng = np.random.default_rng(1)
        factors = [rng.random((3, 2)), rng.random((4, 2))]
        before = [f.copy() for f in factors]
        lr, lam = 0.1, 0.05
        sgd_epoch(t, factors, learn_rate=lr, regularization=lam, chunk_size=1, rng=0)
        a, b = before
        e = 3.0 - float(a[1] @ b[2])
        exp_a1 = a[1] + lr * (e * b[2] - lam * a[1])
        exp_b2 = b[2] + lr * (e * a[1] - lam * b[2])
        np.testing.assert_allclose(factors[0][1], exp_a1)
        np.testing.assert_allclose(factors[1][2], exp_b2)
        # untouched rows unchanged
        np.testing.assert_allclose(factors[0][0], a[0])

    def test_decreases_rmse(self, planted_sparse):
        tensor, _ = planted_sparse
        factors = _init(tensor, 3)
        before = rmse(tensor.coords, tensor.values, factors)
        rng = np.random.default_rng(2)
        for _ in range(15):
            sgd_epoch(tensor, factors, learn_rate=0.02, regularization=1e-4,
                      chunk_size=64, rng=rng)
        assert rmse(tensor.coords, tensor.values, factors) < before * 0.6

    def test_invalid_args(self, planted_sparse):
        tensor, _ = planted_sparse
        with pytest.raises(ValueError, match="learn_rate"):
            sgd_epoch(tensor, _init(tensor, 2), learn_rate=0.0)
        with pytest.raises(ValueError, match="chunk_size"):
            sgd_epoch(tensor, _init(tensor, 2), learn_rate=0.1, chunk_size=0)


class TestCcd:
    def test_monotone_loss(self, planted_sparse):
        tensor, _ = planted_sparse
        factors = _init(tensor, 3)
        lam = 1e-3
        prev = squared_loss(tensor.coords, tensor.values, factors, lam)
        residual = None
        for _ in range(8):
            residual = ccd_epoch(tensor, factors, regularization=lam, residual=residual)
            cur = squared_loss(tensor.coords, tensor.values, factors, lam)
            assert cur <= prev + 1e-8
            prev = cur

    def test_residual_maintained_exactly(self, planted_sparse):
        tensor, _ = planted_sparse
        factors = _init(tensor, 2)
        residual = ccd_epoch(tensor, factors, regularization=1e-3)
        expected = residuals(tensor.coords, tensor.values, factors)
        np.testing.assert_allclose(residual, expected, atol=1e-10)

    def test_zero_regularization_handles_empty_rows(self):
        coords = np.array([[0, 0], [1, 1]])
        t = SparseTensor(coords, np.ones(2), (4, 2))
        factors = _init(t, 2)
        ccd_epoch(t, factors, regularization=0.0)
        assert np.isfinite(factors[0]).all()

    def test_recovers_planted(self, planted_sparse):
        tensor, _ = planted_sparse
        factors = _init(tensor, 3)
        residual = None
        for _ in range(30):
            residual = ccd_epoch(tensor, factors, regularization=1e-4, residual=residual)
        assert rmse(tensor.coords, tensor.values, factors) < 0.05

    def test_invalid_regularization(self, planted_sparse):
        tensor, _ = planted_sparse
        with pytest.raises(ValueError):
            ccd_epoch(tensor, _init(tensor, 2), regularization=-1.0)


class TestDriver:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_each_algorithm_fits(self, planted_sparse, algo):
        tensor, _ = planted_sparse
        opts = CompletionOptions(
            algorithm=algo, max_epochs=30, regularization=1e-3,
            learn_rate=0.02, seed=1,
        )
        result = complete(tensor, 3, opts)
        assert isinstance(result, CompletionResult)
        assert result.final_train_rmse < 0.35 * float(np.abs(tensor.values).mean() * 2)
        assert result.algorithm == algo
        assert len(result.train_rmse) == result.epochs

    def test_validation_early_stopping(self, planted_sparse):
        tensor, _ = planted_sparse
        opts = CompletionOptions(algorithm="als", max_epochs=200, patience=3,
                                 regularization=1e-3, seed=1)
        result = complete(tensor, 3, opts)
        assert result.epochs < 200 or result.converged is False
        assert len(result.val_rmse) == result.epochs

    def test_early_stopping_returns_best_validation_factors(self, planted_sparse):
        """The returned factors must be the *best-validation* snapshot, not
        the last epoch's (which is ``patience`` epochs past the best)."""
        tensor, _ = planted_sparse
        # SGD with an aggressive learn rate overshoots after it finds a
        # good model, so the final epoch is measurably worse than the best.
        opts = CompletionOptions(algorithm="sgd", max_epochs=60, patience=4,
                                 learn_rate=0.05, learn_rate_decay=1.0,
                                 regularization=1e-3, seed=1)
        result = complete(tensor, 3, opts)
        best = min(result.val_rmse)
        assert result.val_rmse[-1] > best + 1e-12, (
            "validation never regressed — the scenario does not exercise "
            "the best-snapshot path; tune the learn rate")
        assert result.best_epoch == int(np.argmin(result.val_rmse)) + 1

        # reconstruct the driver's validation split (same seed, same draws)
        rng = np.random.default_rng(opts.seed)
        n_val = max(1, int(tensor.nnz * opts.validation_fraction))
        val_idx = rng.choice(tensor.nnz, size=n_val, replace=False)
        mask = np.zeros(tensor.nnz, dtype=bool)
        mask[val_idx] = True
        from repro.completion.losses import rmse as rmse_fn

        returned = rmse_fn(tensor.coords[mask], tensor.values[mask], result.factors)
        assert returned == pytest.approx(best), (
            "returned factors do not score the best validation RMSE — the "
            "driver returned the wrong snapshot")

    def test_generalizes_to_heldout(self, planted_sparse):
        """The best-validation model must beat predicting the mean."""
        tensor, factors = planted_sparse
        opts = CompletionOptions(algorithm="als", max_epochs=25,
                                 regularization=1e-3, seed=2)
        result = complete(tensor, 3, opts)
        # fresh unseen coordinates from the planted model
        rng = np.random.default_rng(9)
        coords = np.column_stack([rng.integers(0, d, 300) for d in tensor.dims])
        truth = np.ones((300, 3))
        for m, f in enumerate(factors):
            truth *= f[coords[:, m]]
        truth = truth.sum(axis=1)
        pred = result.predict(coords)
        rmse_model = np.sqrt(np.mean((pred - truth) ** 2))
        rmse_mean = np.sqrt(np.mean((truth - truth.mean()) ** 2))
        assert rmse_model < rmse_mean

    def test_no_validation_split(self, planted_sparse):
        tensor, _ = planted_sparse
        opts = CompletionOptions(algorithm="ccd", max_epochs=5,
                                 validation_fraction=0.0, seed=1)
        result = complete(tensor, 2, opts)
        assert result.val_rmse == []
        assert result.epochs == 5

    def test_options_validation(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            CompletionOptions(algorithm="adam")
        with pytest.raises(ValueError):
            CompletionOptions(max_epochs=0)
        with pytest.raises(ValueError, match="ALS completion"):
            CompletionOptions(algorithm="als", regularization=0.0)
        with pytest.raises(ValueError):
            CompletionOptions(validation_fraction=1.0)
        with pytest.raises(ValueError):
            CompletionOptions(patience=0)
        with pytest.raises(ValueError):
            CompletionOptions(learn_rate=0)
        with pytest.raises(ValueError):
            CompletionOptions(sgd_chunk_size=0)

    def test_empty_tensor_rejected(self):
        t = SparseTensor(np.empty((0, 2), dtype=int), np.empty(0), (2, 2))
        with pytest.raises(ValueError, match="empty"):
            complete(t, 2)

    def test_deterministic(self, planted_sparse):
        tensor, _ = planted_sparse
        opts = CompletionOptions(algorithm="ccd", max_epochs=5, seed=3)
        a = complete(tensor, 2, opts)
        b = complete(tensor, 2, opts)
        assert a.train_rmse == b.train_rmse
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_array_equal(fa, fb)


class TestCompletionEvaluate:
    def test_bundle_keys_and_truth(self):
        tensor, factors = planted_low_rank((8, 7, 6), 2, 200, seed=1)
        scores = evaluate(factors, tensor.coords, tensor.values)
        assert set(scores) == {"rmse", "mae", "baseline_rmse", "baseline_mae"}
        assert scores["rmse"] < 1e-10  # exact factors
        assert scores["mae"] < 1e-10
        assert scores["baseline_rmse"] > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate([np.ones((2, 1))] * 2, np.empty((0, 2), dtype=int), np.empty(0))

    def test_mae_definition(self):
        t = SparseTensor(np.array([[0, 0], [1, 1]]), np.array([2.0, 4.0]), (2, 2))
        factors = [np.zeros((2, 1)), np.zeros((2, 1))]  # predicts 0
        assert mae(t.coords, t.values, factors) == pytest.approx(3.0)
