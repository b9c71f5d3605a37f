import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet.data import Dataset
from signet.diagnostics import (adaptive_network_size, classification_errors,
                                jacobian_rank, max_error, rms_error)
from signet.losses import LossKind
from signet.model import NetworkShape, inner_eval

from conftest import finite_diff_jacobian, pack_params, random_instance


class TestErrors:
    def test_rms_zero_on_equal(self, rng):
        v = rng.normal(size=9)
        assert rms_error(v, v) == 0.0
        assert max_error(v, v) == 0.0

    def test_rms_by_formula(self):
        assert rms_error(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(5 / np.sqrt(2))

    def test_rms_constant_offset(self, rng):
        v = rng.normal(size=20)
        assert rms_error(v + 0.37, v) == pytest.approx(0.37)

    def test_max_error_cases(self):
        assert max_error(np.array([-3.0, 2.0]), np.zeros(2)) == 3.0
        assert max_error(np.array([-1.5]), np.array([0.0])) == 1.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rms_error(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            max_error(np.zeros(2), np.zeros(3))

    def test_max_dominates_rms(self, rng):
        for _ in range(50):
            a = rng.normal(size=rng.integers(1, 30))
            b = rng.normal(size=a.size)
            assert max_error(a, b) >= rms_error(a, b) - 1e-15


class TestClassificationErrors:
    def _dataset(self, X, y):
        return Dataset(X, y)

    def test_zero_output_counts_as_error(self):
        shape = NetworkShape(d=1, q=1)
        theta = np.zeros(shape.n)  # f == 0 everywhere
        ds = self._dataset(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]))
        assert classification_errors(theta, shape, ds) == 2

    def test_perfect_and_one_flip(self):
        shape = NetworkShape(d=1, q=1)
        # f(x) = 4*sigmoid(5x) - 2: positive for x>0, negative for x<0
        theta = pack_params([4.0], [[5.0]], [0.0], -2.0)
        X = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        assert classification_errors(theta, shape, self._dataset(X, y)) == 0
        y_flipped = y.copy()
        y_flipped[0] = -1.0
        assert classification_errors(theta, shape, self._dataset(X, y_flipped)) == 1

    def test_regression_dataset_rejected(self):
        shape = NetworkShape(d=1, q=1)
        ds = Dataset(np.array([[1.0]]), np.array([0.3]))
        with pytest.raises(ValueError):
            classification_errors(np.zeros(shape.n), shape, ds)


class TestJacobianRank:
    def test_identity(self):
        rank, full = jacobian_rank(np.eye(3))
        assert (rank, full) == (3, True)

    def test_repeated_rows(self):
        J = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        rank, full = jacobian_rank(J)
        assert (rank, full) == (1, False)

    def test_zero_params_rank_at_most_two(self, rng):
        shape = NetworkShape(d=2, q=5)
        X = rng.uniform(0, 1, (6, 2))
        y = rng.normal(size=6)
        J = inner_eval(np.zeros(shape.n), shape, X, y, LossKind.QUADRATIC).jacobian()
        rank, _ = jacobian_rank(J)
        assert rank <= 2

    def test_rank_invariant_under_transpose(self, rng):
        for _ in range(50):
            m, n = rng.integers(1, 8, 2)
            r = int(rng.integers(1, min(m, n) + 1))
            J = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
            assert jacobian_rank(J)[0] == jacobian_rank(J.T)[0]

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            jacobian_rank(np.array([[np.nan, 1.0]]))


class TestAdaptiveNetworkSize:
    def test_paper_sizes(self):
        assert adaptive_network_size(289, 2) == 72
        assert adaptive_network_size(252, 64) == 4

    def test_clamped_minimum(self):
        assert adaptive_network_size(1, 3) == 1

    @given(st.integers(1, 10_000), st.integers(1, 200))
    @settings(max_examples=300)
    def test_bound_makes_params_cover_samples(self, m, d):
        q = adaptive_network_size(m, d)
        assert (d + 2) * q + 1 >= m

    def test_monotone_in_m_antitone_in_d(self):
        for d in (1, 2, 10):
            sizes = [adaptive_network_size(m, d) for m in range(1, 400)]
            assert sizes == sorted(sizes)
        for m in (5, 100, 289):
            sizes = [adaptive_network_size(m, d) for d in range(1, 50)]
            assert sizes == sorted(sizes, reverse=True)


class TestFiniteDiffJacobian:
    def test_linear_block_exact(self, rng):
        shape, theta, X, y, _ = random_instance(rng)
        fd = finite_diff_jacobian(theta, shape, X, y, LossKind.QUADRATIC)
        J = inner_eval(theta, shape, X, y, LossKind.QUADRATIC).jacobian()
        # residual is linear in w and w0, so central differences are exact there
        assert np.allclose(fd[:, :shape.q], J[:, :shape.q], atol=1e-9)
        assert np.allclose(fd[:, -1], J[:, -1], atol=1e-10)

    def test_second_order_convergence(self, rng):
        shape, theta, X, y, _ = random_instance(rng)
        J = inner_eval(theta, shape, X, y, LossKind.QUADRATIC).jacobian()
        err_h = np.max(np.abs(finite_diff_jacobian(theta, shape, X, y,
                                                   LossKind.QUADRATIC, h=1e-2) - J))
        err_h2 = np.max(np.abs(finite_diff_jacobian(theta, shape, X, y,
                                                    LossKind.QUADRATIC, h=5e-3) - J))
        if err_h > 1e-12:
            assert err_h2 <= err_h / 2.5  # roughly 4x per halving
