import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from signet.diagnostics import adaptive_network_size
from signet.losses import LossKind, outer_gradient, outer_value
from signet.model import NetworkShape, init_params, inner_eval, predict


def load_module(path: Path, name: str):
    """Import a script or benchmark file by path, as module `name`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


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


def planted_instance(m=50, d=8, teacher_seed=0):
    """A regression task with a zero-residual minimum: m points uniform in
    [-1, 1]^d and targets from a planted `wide` network theta* (seeded by
    teacher_seed) of the adaptive size, so the squared and the absolute loss
    have minimum 0 at theta* (weak sharp for the absolute loss). At the
    defaults the convergence theorem's assumptions hold: q = 5, n = 51, and
    J(theta*) has full row rank, 50 of 50 (sigma_min/sigma_max = 6.8e-6).
    Returns (shape, X, y, theta*, theta0) with theta0 = theta* + 0.1 N(0, I)
    from the generator that drew X."""
    rng = np.random.default_rng(100)
    X = rng.uniform(-1.0, 1.0, (m, d))
    shape = NetworkShape(d=d, q=adaptive_network_size(m, d))
    theta_star = init_params(shape, "wide", teacher_seed)
    theta0 = theta_star + 0.1 * rng.normal(size=shape.n)
    return shape, X, predict(theta_star, shape, X), theta_star, theta0


def pack_params(w, V, u, w0) -> np.ndarray:
    """Flat parameter vector [w | V (neuron-major) | u | w0], the inverse of
    signet.model.split_params: builds hand-made networks for tests."""
    return np.concatenate([np.ravel(w), np.ravel(V), np.ravel(u), [w0]])


@dataclass(frozen=True)
class DenseEval:
    """A residual evaluation made from an explicit F and Jacobian J: the
    fake of signet.model.ResidualEval for subproblems with a chosen J. It
    forms m, gram and jtr from J, with gram's J @ J.T scaled in place and
    returned as its transpose (Fortran order), the arithmetic the
    subsolvers' bitwise reference repeats."""

    F: np.ndarray
    J: np.ndarray

    @property
    def m(self) -> int:
        return self.F.shape[0]

    def gram(self, alpha: float) -> np.ndarray:
        K = self.J @ self.J.T       # syrk: exactly symmetric
        K *= alpha
        return K.T

    def jtr(self, r: np.ndarray) -> np.ndarray:
        return self.J.T @ r


def subproblem_model_value(ev, dtheta, t, loss) -> float:
    """The subproblem objective outer(F + J dtheta) + ||dtheta||^2/(2t) at
    a step, with the dense Jacobian of a DenseEval or a ResidualEval: the
    oracle for the model value the subsolvers return."""
    J = ev.J if isinstance(ev, DenseEval) else ev.jacobian()
    dtheta = np.asarray(dtheta, dtype=float)
    if dtheta.shape != (J.shape[1],):
        raise ValueError(f"dtheta has shape {dtheta.shape}, expected ({J.shape[1]},)")
    return outer_value(ev.F + J @ dtheta, loss) + float(dtheta @ dtheta) / (2.0 * t)


def reference_baseline(name, inputs, targets, shape, loss, theta0, lr, momentum,
                       iters):
    """The first-order baseline `name` run alone, one single-theta
    evaluation and one update per iteration: the oracle for its report from
    signet.solvers.baseline_fit, which runs the three in lockstep. Returns
    (theta, rows, final objective), a row (k, objective, step norm)."""
    theta = np.array(theta0, dtype=float)
    vel, sq, mom1 = (np.zeros(shape.n) for _ in range(3))
    rows = []
    for k in range(iters):
        ev = inner_eval(theta, shape, inputs, targets, loss)
        g = ev.jtr(outer_gradient(ev.F, loss))
        if name == "sgdm":
            vel = momentum * vel + g
            step = -lr * vel
        elif name == "rmsprop":
            sq = 0.99 * sq + 0.01 * g * g
            vel = momentum * vel + g / (np.sqrt(sq) + 1e-8)
            step = -lr * vel
        else:
            assert name == "adam", name
            mom1 = 0.9 * mom1 + 0.1 * g
            sq = 0.999 * sq + 0.001 * g * g
            step = (-lr * (mom1 / (1.0 - 0.9 ** (k + 1)))
                    / (np.sqrt(sq / (1.0 - 0.999 ** (k + 1))) + 1e-8))
        theta = theta + step
        rows.append((k, outer_value(ev.F, loss), float(np.linalg.norm(step))))
    final = outer_value(inner_eval(theta, shape, inputs, targets, loss).F, loss)
    return theta, rows, final


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
