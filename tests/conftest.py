# signet first, before numpy: its import sets the one-BLAS-thread default,
# which applies only if numpy is not loaded yet, so the suite runs on the
# thread count signet ships with.
import signet  # noqa: F401

import numpy as np
import pytest

from signet.losses import LossKind
from signet.model import NetworkShape, inner_eval


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_instance(rng, d_max=5, q_max=8, m_max=12, theta_scale=2.0):
    """A random small network plus dataset for oracle comparisons."""
    d = int(rng.integers(1, d_max + 1))
    q = int(rng.integers(1, q_max + 1))
    m = int(rng.integers(1, m_max + 1))
    shape = NetworkShape(d=d, q=q)
    theta = rng.uniform(-theta_scale, theta_scale, size=shape.n)
    X = rng.uniform(-1.0, 1.0, size=(m, d))
    y = rng.uniform(-1.0, 1.0, size=m)
    labels = rng.choice([-1.0, 1.0], size=m)
    return shape, theta, X, y, labels


def pack_params(w, V, u, w0) -> np.ndarray:
    """Flat parameter vector [w | V (neuron-major) | u | w0], the inverse of
    signet.model.split_params: builds hand-made networks for tests."""
    return np.concatenate([np.ravel(w), np.ravel(V), np.ravel(u), [w0]])


def finite_diff_jacobian(theta, shape, inputs, targets, loss, h=1e-5):
    """Central-difference Jacobian of the residual map, column by column:
    the oracle for the analytic Jacobian."""
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    theta = np.asarray(theta, dtype=float)
    cols = []
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        Fp = inner_eval(theta + e, shape, inputs, targets, loss).F
        Fm = inner_eval(theta - e, shape, inputs, targets, loss).F
        cols.append((Fp - Fm) / (2.0 * h))
    return np.column_stack(cols)


def reference_halton_points(start, count):
    """Halton points in bases 2 and 3, one scalar radical inverse at a time,
    its digits added from the least significant one up: the oracle for
    signet.data.halton_points."""
    points = []
    for index in range(start, start + count):
        row = []
        for base in (2, 3):
            result, f, i = 0.0, 1.0 / base, index
            while i > 0:
                result += f * (i % base)
                i //= base
                f /= base
            row.append(result)
        points.append(row)
    return np.array(points)


def scalar_loss(mu, loss):
    """The scalar convex function the separable outer loss is built from:
    the oracle for outer_value, prox and the subproblem values."""
    mu = np.asarray(mu, dtype=float)
    if loss is LossKind.QUADRATIC:
        return mu ** 2
    if loss is LossKind.ABSOLUTE:
        return np.abs(mu)
    return np.maximum(1.0 - mu, 0.0)
