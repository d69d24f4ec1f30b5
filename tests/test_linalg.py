"""Unit tests for the dense factor-matrix kernels."""

import numpy as np
import pytest

from repro.linalg.ata import gram, hadamard_gram
from repro.linalg.fit import calc_fit, kruskal_inner, kruskal_norm_squared
from repro.linalg.inverse import pseudo_inverse_gram, solve_normal_equations
from repro.linalg.khatri_rao import khatri_rao
from repro.linalg.norms import normalize_columns


class TestGram:
    def test_matches_numpy(self, rng):
        a = rng.random((20, 6))
        np.testing.assert_allclose(gram(a), a.T @ a)

    def test_symmetric(self, rng):
        g = gram(rng.random((15, 4)))
        np.testing.assert_allclose(g, g.T)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            gram(np.ones(5))

    def test_single_column(self, rng):
        a = rng.random((10, 1))
        np.testing.assert_allclose(gram(a), a.T @ a)


class TestHadamardGram:
    def test_skips_target_mode(self, rng):
        factors = [rng.random((8, 3)), rng.random((6, 3)), rng.random((5, 3))]
        v = hadamard_gram(factors, 1)
        expected = (factors[0].T @ factors[0]) * (factors[2].T @ factors[2])
        np.testing.assert_allclose(v, expected)

    def test_uses_cached_grams(self, rng):
        factors = [rng.random((8, 3)), rng.random((6, 3))]
        fake = [np.eye(3), 2 * np.eye(3)]
        v = hadamard_gram(factors, 0, grams=fake)
        np.testing.assert_allclose(v, 2 * np.eye(3))

    def test_skip_out_of_range(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            hadamard_gram([rng.random((4, 2))], 1)

    def test_rank_mismatch(self, rng):
        with pytest.raises(ValueError, match="same rank"):
            hadamard_gram([rng.random((4, 2)), rng.random((4, 3))], 0)


class TestInverse:
    def test_pseudo_inverse_of_spd(self, rng):
        a = rng.random((30, 5))
        v = a.T @ a + np.eye(5)
        np.testing.assert_allclose(pseudo_inverse_gram(v) @ v, np.eye(5), atol=1e-10)

    def test_singular_falls_back_to_pinv(self):
        v = np.zeros((3, 3))
        v[0, 0] = 2.0
        out = pseudo_inverse_gram(v)
        expected = np.zeros((3, 3))
        expected[0, 0] = 0.5
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_solve_normal_equations(self, rng):
        m = rng.random((12, 4))
        a = rng.random((20, 4))
        v = a.T @ a + 0.1 * np.eye(4)
        out = solve_normal_equations(m, v)
        np.testing.assert_allclose(out @ v, m, atol=1e-9)

    def test_solve_matches_pinv_route(self, rng):
        m = rng.random((7, 3))
        a = rng.random((9, 3))
        v = a.T @ a + 0.5 * np.eye(3)
        np.testing.assert_allclose(
            solve_normal_equations(m, v), m @ pseudo_inverse_gram(v), atol=1e-9
        )

    def test_solve_is_c_contiguous_and_matches_cho_solve(self, rng):
        from scipy import linalg as sla

        m = rng.random((500, 16))
        a = rng.random((300, 16))
        v = a.T @ a + 0.1 * np.eye(16)
        out = solve_normal_equations(m, v)
        assert out.flags.c_contiguous
        want = sla.cho_solve(sla.cho_factor(v), m.T).T
        assert np.linalg.norm(out - want) <= 1e-12 * np.linalg.norm(want)

    def test_solve_singular_v(self, rng):
        m = rng.random((5, 2))
        v = np.ones((2, 2))  # rank 1
        out = solve_normal_equations(m, v)
        assert np.isfinite(out).all()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            pseudo_inverse_gram(np.ones((2, 3)))

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="incompatible"):
            solve_normal_equations(rng.random((5, 3)), np.eye(4))


class TestKhatriRao:
    def test_two_matrices_definition(self, rng):
        a = rng.random((3, 2))
        b = rng.random((4, 2))
        out = khatri_rao([a, b])
        assert out.shape == (12, 2)
        for i in range(3):
            for j in range(4):
                np.testing.assert_allclose(out[i * 4 + j], a[i] * b[j])

    def test_three_matrices_associative(self, rng):
        mats = [rng.random((3, 2)), rng.random((2, 2)), rng.random((4, 2))]
        left = khatri_rao([khatri_rao(mats[:2]), mats[2]])
        np.testing.assert_allclose(khatri_rao(mats), left)

    def test_single_matrix_identity(self, rng):
        a = rng.random((5, 3))
        np.testing.assert_allclose(khatri_rao([a]), a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            khatri_rao([])

    def test_rank_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="column count"):
            khatri_rao([rng.random((3, 2)), rng.random((3, 3))])

    def test_matches_scipy(self, rng):
        from scipy.linalg import khatri_rao as scipy_kr

        a, b = rng.random((4, 3)), rng.random((5, 3))
        np.testing.assert_allclose(khatri_rao([a, b]), scipy_kr(a, b))


class TestNormalize:
    def test_2norm(self, rng):
        a = np.asarray(rng.random((10, 4)))
        orig = a.copy()
        _, lam = normalize_columns(a, which="2")
        np.testing.assert_allclose(np.linalg.norm(a, axis=0), np.ones(4))
        np.testing.assert_allclose(a * lam, orig)

    def test_2norm_zero_column(self):
        a = np.zeros((5, 2))
        a[:, 0] = 3.0
        _, lam = normalize_columns(a, which="2")
        assert lam[1] == 1.0
        np.testing.assert_allclose(a[:, 1], 0.0)

    def test_max_norm_floors_at_one(self):
        a = np.full((4, 2), 0.25)
        a[:, 1] = 8.0
        _, lam = normalize_columns(a, which="max")
        assert lam[0] == 1.0  # below-unit column untouched
        assert lam[1] == 8.0
        np.testing.assert_allclose(a[:, 0], 0.25)
        np.testing.assert_allclose(a[:, 1], 1.0)

    def test_max_norm_uses_abs(self):
        a = np.array([[-5.0], [2.0]])
        _, lam = normalize_columns(a, which="max")
        assert lam[0] == 5.0

    def test_in_place(self, rng):
        a = np.asarray(rng.random((6, 3)))
        out, _ = normalize_columns(a)
        assert out is a

    def test_out_lambda_buffer(self, rng):
        a = np.asarray(rng.random((6, 3)))
        buf = np.empty(3)
        _, lam = normalize_columns(a, out_lambda=buf)
        assert lam is buf

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError, match="float64"):
            normalize_columns(np.ones((3, 2), dtype=np.float32))

    def test_unknown_norm(self, rng):
        with pytest.raises(ValueError, match="unknown norm"):
            normalize_columns(np.asarray(rng.random((3, 2))), which="1")

    def test_bad_lambda_shape(self, rng):
        with pytest.raises(ValueError, match="shape"):
            normalize_columns(np.asarray(rng.random((3, 2))), out_lambda=np.empty(3))


class TestFit:
    def _dense_kruskal(self, weights, factors):
        rank = len(weights)
        out = np.zeros([f.shape[0] for f in factors])
        for r in range(rank):
            comp = weights[r]
            outer = factors[0][:, r]
            for f in factors[1:]:
                outer = np.multiply.outer(outer, f[:, r])
            out += comp * outer
        return out

    def test_norm_squared_matches_dense(self, rng):
        factors = [rng.random((4, 2)), rng.random((3, 2)), rng.random((5, 2))]
        weights = rng.random(2)
        dense = self._dense_kruskal(weights, factors)
        assert kruskal_norm_squared(weights, factors) == pytest.approx(
            np.linalg.norm(dense) ** 2
        )

    def test_norm_squared_needs_inputs(self):
        with pytest.raises(ValueError, match="factors or grams"):
            kruskal_norm_squared(np.ones(2))

    def test_inner_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="factor shape"):
            kruskal_inner(np.ones(2), rng.random((3, 2)), rng.random((4, 2)))

    def test_perfect_fit_is_one(self, rng):
        """If the model exactly equals the data tensor, fit == 1."""
        factors = [rng.random((4, 2)), rng.random((3, 2)), rng.random((5, 2))]
        weights = np.ones(2)
        dense = self._dense_kruskal(weights, factors)
        xnorm2 = np.linalg.norm(dense) ** 2
        # last-mode MTTKRP of the model tensor against its own factors
        from repro.mttkrp.reference import dense_mttkrp_reference
        from repro.tensor.coo import SparseTensor

        tensor = SparseTensor.from_dense(dense)
        m_last = dense_mttkrp_reference(tensor, factors, 2)
        fit = calc_fit(xnorm2, weights, factors, m_last)
        # the residual expansion cancels catastrophically at fit == 1, so
        # only ~half the double-precision digits survive
        assert fit == pytest.approx(1.0, abs=1e-6)

    def test_zero_model_fit(self, rng):
        factors = [np.zeros((4, 2)), np.zeros((3, 2))]
        fit = calc_fit(10.0, np.zeros(2), factors, np.zeros((3, 2)))
        assert fit == pytest.approx(1.0 - 1.0)  # residual == ||X||

    def test_negative_xnorm_rejected(self):
        with pytest.raises(ValueError):
            calc_fit(-1.0, np.ones(1), [np.ones((2, 1))], np.ones((2, 1)))

    def test_zero_tensor_fit_is_one(self):
        fit = calc_fit(0.0, np.zeros(1), [np.zeros((2, 1)), np.zeros((2, 1))],
                       np.zeros((2, 1)))
        assert fit == 1.0
