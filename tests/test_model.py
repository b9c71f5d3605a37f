import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signet.losses import LossKind, outer_gradient, outer_value
from signet.model import (NetworkShape, init_params, inner_eval, predict, sigmoid,
                          split_params)

from conftest import finite_diff_jacobian, pack_params, random_instance


def forward(theta, shape, x):
    """Network output for one input."""
    return float(predict(theta, shape, np.asarray(x, dtype=float)[None, :])[0])


def grad_forward(theta, shape, x):
    """Gradient of the network output for one input: the Jacobian row of
    the residual map f(x) - 0."""
    return inner_eval(theta, shape, np.asarray(x, dtype=float)[None, :],
                      np.zeros(1), LossKind.QUADRATIC).jacobian()[0]


def masked_sigmoid(a):
    """The reference formula: 1/(1+exp(-a)) where a >= 0, exp(a)/(1+exp(a))
    elsewhere, each evaluated only on its own mask."""
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert abs(sigmoid(50.0) - (1.0 - np.exp(-50.0))) < 1e-15

    def test_symmetry(self):
        assert abs(sigmoid(-3.0) - (1.0 - sigmoid(3.0))) < 1e-15

    def test_no_overflow_at_large_magnitude(self):
        assert sigmoid(700.0) == 1.0
        assert sigmoid(-700.0) > 0.0
        assert np.isfinite(sigmoid(np.array([-750.0, 750.0]))).all()

    @given(st.floats(-700, 700))
    @settings(max_examples=200)
    def test_range_and_complement(self, a):
        s = sigmoid(a)
        assert 0.0 < s < 1.0 or (s in (0.0, 1.0) and abs(a) > 30)
        assert abs(s + sigmoid(-a) - 1.0) <= 1e-15

    def test_bitwise_equal_to_masked_formula(self, rng):
        a = np.concatenate([np.linspace(-750.0, 750.0, 30001),
                            [-750.0, 750.0, -0.0, 0.0, -745.2, 709.8, 5e-324,
                             -5e-324, np.inf, -np.inf],
                            rng.normal(scale=40.0, size=10000)])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = sigmoid(a)
        assert got.view(np.int64).tolist() == masked_sigmoid(a).view(np.int64).tolist()
        assert sigmoid(-0.0) == sigmoid(0.0) == 0.5
        assert np.isnan(sigmoid(np.nan))
        assert sigmoid(np.full((3, 2), -750.0)).shape == (3, 2)

    def test_many_random_pairs(self, rng):
        a = rng.uniform(-30, 30, size=1000)
        s = sigmoid(a)
        assert np.all((s > 0) & (s < 1))
        assert np.max(np.abs(s + sigmoid(-a) - 1.0)) <= 1e-15


class TestForward:
    def test_zero_params(self, rng):
        shape = NetworkShape(d=3, q=4)
        x = rng.uniform(-1, 1, 3)
        assert forward(np.zeros(shape.n), shape, x) == 0.0

    def test_single_neuron_at_origin(self):
        shape = NetworkShape(d=2, q=1)
        theta = pack_params([2.0], np.zeros((1, 2)), [0.0], 1.0)
        assert forward(theta, shape, np.array([0.3, -0.7])) == pytest.approx(2.0)

    def test_neuron_merging(self, rng):
        # two identical neurons with unit weights == one neuron with weight 2
        d = 3
        v = rng.uniform(-1, 1, d)
        u = 0.4
        x = rng.uniform(-1, 1, d)
        two = pack_params([1.0, 1.0], np.vstack([v, v]), [u, u], 0.2)
        one = pack_params([2.0], v[None, :], [u], 0.2)
        assert forward(two, NetworkShape(d, 2), x) == pytest.approx(
            forward(one, NetworkShape(d, 1), x))

    def test_dimension_mismatch(self):
        shape = NetworkShape(d=2, q=1)
        for theta, X, message in [
                (np.zeros(shape.n), np.zeros((1, 3)),
                 "inputs have shape (1, 3), expected (m, 2)"),
                (np.zeros(shape.n), np.zeros(2),
                 "inputs have shape (2,), expected (m, 2)"),
                (np.zeros(shape.n + 1), np.zeros((1, 2)),
                 "theta has shape (6,), expected (5,) or (P, 5)"),
                (np.zeros((1, 1, shape.n)), np.zeros((1, 2)),
                 "theta has shape (1, 1, 5), expected (5,) or (P, 5)")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                predict(theta, shape, X)

    def test_neuron_permutation_invariance(self, rng):
        shape = NetworkShape(d=2, q=5)
        theta = rng.uniform(-1, 1, shape.n)
        w, V, u, w0 = split_params(theta, shape)
        perm = rng.permutation(5)
        theta_p = pack_params(w[perm], V[perm], u[perm], w0)
        x = rng.uniform(-1, 1, 2)
        assert forward(theta, shape, x) == pytest.approx(forward(theta_p, shape, x))


class TestGradForward:
    def test_zero_params(self):
        shape = NetworkShape(d=2, q=3)
        g = grad_forward(np.zeros(shape.n), shape, np.array([0.5, -0.5]))
        q, d = 3, 2
        assert np.allclose(g[:q], 0.5)
        assert np.allclose(g[q:q + q * d], 0.0)
        assert np.allclose(g[q + q * d:q + q * d + q], 0.0)
        assert g[-1] == 1.0

    def test_bias_derivative_quarter(self):
        # w1=1, v1.x + u1 = 0 so sigmoid'(0) = 1/4
        shape = NetworkShape(d=1, q=1)
        theta = pack_params([1.0], [[2.0]], [-1.0], 0.0)
        g = grad_forward(theta, shape, np.array([0.5]))
        assert g[2] == pytest.approx(0.25)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            shape, theta, X, y, _ = random_instance(rng)
            x = X[0]
            g = grad_forward(theta, shape, x)
            h = 1e-5
            fd = np.empty_like(g)
            for j in range(shape.n):
                e = np.zeros(shape.n)
                e[j] = h
                fd[j] = (forward(theta + e, shape, x) - forward(theta - e, shape, x)) / (2 * h)
            assert np.linalg.norm(g - fd) <= 1e-5 * (1 + np.linalg.norm(fd))


class TestInnerEval:
    def test_quadratic_at_zero_params(self, rng):
        shape = NetworkShape(d=2, q=2)
        X = rng.uniform(0, 1, (4, 2))
        y = rng.uniform(-1, 1, 4)
        ev = inner_eval(np.zeros(shape.n), shape, X, y, LossKind.QUADRATIC)
        assert np.allclose(ev.F, -y)
        J = ev.jacobian()
        for i in range(4):
            assert np.allclose(J[i], grad_forward(np.zeros(shape.n), shape, X[i]))

    def test_hinge_sign_factor(self, rng):
        shape, theta, X, _, labels = random_instance(rng)
        J = inner_eval(theta, shape, X, labels, LossKind.HINGE).jacobian()
        for i, yi in enumerate(labels):
            g = grad_forward(theta, shape, X[i])
            assert np.allclose(J[i], yi * g)

    def test_quadratic_equals_absolute_eval(self, rng):
        shape, theta, X, y, _ = random_instance(rng)
        ev_q = inner_eval(theta, shape, X, y, LossKind.QUADRATIC)
        ev_a = inner_eval(theta, shape, X, y, LossKind.ABSOLUTE)
        assert np.array_equal(ev_q.F, predict(theta, shape, X) - y)
        assert np.array_equal(ev_q.F, ev_a.F)
        assert np.array_equal(ev_q.jacobian(), ev_a.jacobian())

    def test_hinge_rejects_non_binary_targets(self, rng):
        shape, theta, X, y, _ = random_instance(rng)
        with pytest.raises(ValueError):
            inner_eval(theta, shape, X, np.full(X.shape[0], 0.5), LossKind.HINGE)

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_jacobian_matches_finite_differences(self, rng, loss):
        for _ in range(20):
            shape, theta, X, y, labels = random_instance(rng)
            targets = labels if loss is LossKind.HINGE else y
            J = inner_eval(theta, shape, X, targets, loss).jacobian()
            fd = finite_diff_jacobian(theta, shape, X, targets, loss)
            assert np.linalg.norm(J - fd) <= 1e-5 * (1 + np.linalg.norm(fd))

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_jtr_matches_dense_product(self, rng, loss):
        for _ in range(200):
            shape, theta, X, y, labels = random_instance(rng)
            targets = labels if loss is LossKind.HINGE else y
            ev = inner_eval(theta, shape, X, targets, loss)
            J = ev.jacobian()
            for r in (rng.normal(size=ev.m), outer_gradient(ev.F, loss)):
                dense = J.T @ r
                assert np.linalg.norm(ev.jtr(r) - dense) <= \
                    1e-12 * max(np.linalg.norm(dense), 1e-300)

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_objective_is_outer_value_of_f(self, rng, loss):
        for _ in range(50):
            shape, theta, X, y, labels = random_instance(rng)
            targets = labels if loss is LossKind.HINGE else y
            ev = inner_eval(theta, shape, X, targets, loss)
            assert type(ev.objective) is float
            assert ev.objective == outer_value(ev.F, loss)

    def test_overflowing_objective_is_inf(self, rng):
        # finite residuals near 1e160 whose squares overflow: objective inf,
        # with no RuntimeWarning (an error under this suite's filter)
        shape, theta, X, _, _ = random_instance(rng)
        targets = np.full(X.shape[0], 1e160)
        ev = inner_eval(theta, shape, X, targets, LossKind.QUADRATIC)
        assert np.all(np.isfinite(ev.F)) and ev.objective == np.inf
        assert inner_eval(theta, shape, X, targets, LossKind.ABSOLUTE).objective < np.inf
        stacked = inner_eval(np.stack([theta, theta]), shape, X, targets,
                             LossKind.QUADRATIC)
        assert stacked.objective == [np.inf, np.inf]

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_empty_data_set_rejected(self, loss):
        shape = NetworkShape(d=2, q=3)
        with pytest.raises(ValueError, match="empty data set"):
            inner_eval(np.zeros(shape.n), shape, np.empty((0, 2)), np.empty(0), loss)

    def test_non_finite_residuals_rejected(self):
        shape = NetworkShape(d=1, q=1)
        theta = pack_params([np.inf], [[1.0]], [0.0], 0.0)
        with pytest.raises(FloatingPointError):
            inner_eval(theta, shape, np.ones((2, 1)), np.zeros(2), LossKind.QUADRATIC)


@pytest.mark.parametrize("m, d, q", [(289, 2, 72), (252, 64, 4)])
@pytest.mark.parametrize("loss", list(LossKind))
def test_stacked_rows_equal_single_theta(rng, m, d, q, loss):
    # the Franke and digits shapes: row p of a stacked pass is, bit for bit,
    # the pass of row p alone
    shape = NetworkShape(d=d, q=q)
    X = rng.uniform(0.0, 1.0, (m, d))
    targets = (rng.choice([-1.0, 1.0], size=m) if loss is LossKind.HINGE
               else rng.normal(size=m))
    for P in (1, 3):
        thetas = rng.uniform(-2.0, 2.0, (P, shape.n))
        R = rng.normal(size=(P, m))
        ev = inner_eval(thetas, shape, X, targets, loss)
        assert ev.F.shape == (P, m) and ev.m == m
        jtr, preds = ev.jtr(R), predict(thetas, shape, X)
        assert len(ev.objective) == P
        for p in range(P):
            one = inner_eval(thetas[p], shape, X, targets, loss)
            assert np.array_equal(ev.F[p], one.F)
            assert type(ev.objective[p]) is float and ev.objective[p] == one.objective
            assert np.array_equal(jtr[p], one.jtr(R[p]))
            assert np.array_equal(preds[p], predict(thetas[p], shape, X))


def _close(got, dense):
    return np.linalg.norm(got - dense) <= 1e-12 * max(np.linalg.norm(dense), 1e-300)


@given(m=st.integers(1, 30), d=st.integers(1, 6), q=st.integers(1, 8),
       loss=st.sampled_from(list(LossKind)), seed=st.integers(0, 2**32 - 1))
@example(m=3, d=4, q=5, loss=LossKind.HINGE, seed=0)         # m < n
@example(m=30, d=1, q=1, loss=LossKind.QUADRATIC, seed=1)    # m > n, q = d = 1
@example(m=30, d=2, q=1, loss=LossKind.ABSOLUTE, seed=2)     # m > n, q = 1
@example(m=1, d=1, q=8, loss=LossKind.HINGE, seed=3)
@settings(max_examples=200, deadline=None)
def test_structured_products_match_dense_jacobian(m, d, q, loss, seed):
    # the hidden-pass forms of alpha J J^T and J^T r against the dense J
    rng = np.random.default_rng(seed)
    shape = NetworkShape(d=d, q=q)
    theta = rng.uniform(-2.0, 2.0, size=shape.n)
    X = rng.uniform(-1.0, 1.0, size=(m, d))
    targets = (rng.choice([-1.0, 1.0], size=m) if loss is LossKind.HINGE
               else rng.uniform(-1.0, 1.0, size=m))
    ev = inner_eval(theta, shape, X, targets, loss)
    J = ev.jacobian()
    assert J.shape == (m, shape.n)
    alpha = float(rng.uniform(1e-3, 1e5))
    K = ev.gram(alpha)
    assert K.shape == (m, m) and K.flags.f_contiguous
    assert _close(np.tril(K), np.tril(alpha * (J @ J.T)))
    r = rng.normal(size=m)
    assert _close(ev.jtr(r), J.T @ r)


def test_shape_invariant():
    shape = NetworkShape(d=4, q=3)
    assert shape.n == (4 + 2) * 3 + 1
    with pytest.raises(ValueError, match="d and q must be >= 1, got d=0, q=3"):
        NetworkShape(d=0, q=3)


def test_init_params_deterministic():
    shape = NetworkShape(d=2, q=5)
    a = init_params(shape, "uniform", seed=42)
    b = init_params(shape, "uniform", seed=42)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 0.5)
