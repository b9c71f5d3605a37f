"""Three-layer sigmoid network: predictions, the per-sample residual map F
with its Jacobian J, and products J^T r, all from one hidden-layer pass.

Parameter layout is fixed as [w (q) | v (q*d, neuron-major) | u (q) | w0],
so a parameter vector is a flat float array of length (d+2)*q + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .losses import LossKind


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class NetworkShape:
    """Dimensions of the network: d inputs, q hidden neurons."""

    d: int
    q: int

    def __post_init__(self):
        if self.d < 1 or self.q < 1:
            raise DimensionError(f"d and q must be >= 1, got d={self.d}, q={self.q}")

    @property
    def n(self) -> int:
        return (self.d + 2) * self.q + 1


@dataclass(frozen=True)
class ResidualEval:
    """Residual vector F (length m) and, when it was asked for, its Jacobian
    J (m x n). An evaluation from inner_eval also keeps its hidden-layer
    pass (X, w, S, sign), from which jtr forms J^T r."""

    F: np.ndarray
    J: np.ndarray | None = None
    hidden: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        # without a Jacobian, F alone is checked
        J = self.F.reshape(-1, 1) if self.J is None else self.J
        if self.F.ndim != 1 or J.ndim != 2 or J.shape[0] != self.F.shape[0]:
            raise DimensionError(
                f"inconsistent residual shapes F={self.F.shape}, J={J.shape}")
        if not (np.all(np.isfinite(self.F)) and np.all(np.isfinite(J))):
            raise FloatingPointError("non-finite entries in residual evaluation")

    @property
    def m(self) -> int:
        return self.F.shape[0]

    def jtr(self, r: np.ndarray) -> np.ndarray:
        """J^T r, formed in O(m*q*d) from the hidden-layer activations
        without building J."""
        if self.hidden is None:
            raise ValueError("jtr needs an evaluation made by inner_eval")
        X, w, S, sign = self.hidden
        if sign is not None:
            r = sign * r
        Spr = S * (1.0 - S) * r[:, None]      # sigmoid'(A) scaled by r
        return np.concatenate([r @ S, (w[:, None] * (Spr.T @ X)).ravel(),
                               w * Spr.sum(axis=0), [r.sum()]])


def sigmoid(a):
    """Logistic function 1/(1+exp(-a)), overflow-safe for large |a|: with
    e = exp(-|a|), it is 1/(1+e) for a >= 0 and e/(1+e) otherwise."""
    a = np.asarray(a, dtype=float)
    e = np.exp(-np.abs(a))
    d = 1.0 + e
    out = np.divide(1.0, d, out=np.empty_like(a))
    np.divide(e, d, out=out, where=a < 0)
    return out if out.ndim else float(out)


def split_params(theta: np.ndarray, shape: NetworkShape):
    """Split a flat parameter vector into (w, V, u, w0) with V of shape (q, d)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (shape.n,):
        raise DimensionError(f"theta has length {theta.shape}, expected ({shape.n},)")
    q, d = shape.q, shape.d
    w = theta[:q]
    V = theta[q:q + q * d].reshape(q, d)
    u = theta[q + q * d:q + q * d + q]
    w0 = theta[-1]
    return w, V, u, w0


def init_params(shape: NetworkShape, kind: str = "uniform", seed: int = 0) -> np.ndarray:
    """Starting point: seeded 'uniform' entries in [-0.5, 0.5]; or seeded
    'wide', uniform in [-0.5, 0.5] with the hidden-layer weights and biases
    redrawn in [-5, 5]."""
    if kind == "uniform":
        rng = np.random.default_rng(seed)
        return rng.uniform(-0.5, 0.5, size=shape.n)
    if kind == "wide":
        # small output weights, spread-out hidden-layer weights; raises the
        # numerical rank of the Jacobian at the starting point
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-0.5, 0.5, size=shape.n)
        theta[shape.q:-1] = rng.uniform(-5.0, 5.0, size=shape.n - shape.q - 1)
        return theta
    raise ValueError(f"unknown init kind {kind!r}")


def _hidden(theta, shape: NetworkShape, X, sign=None):
    """The hidden-layer pass (X, w, S = sigmoid(X V^T + u), sign), where
    sign scales the residual rows (the hinge labels) or is None, and the
    network outputs S w + w0."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != shape.d:
        raise DimensionError(f"inputs have shape {X.shape}, expected (m, {shape.d})")
    w, V, u, w0 = split_params(theta, shape)
    S = sigmoid(X @ V.T + u)
    return (X, w, S, sign), S @ w + w0


def _jacobian(h) -> np.ndarray:
    """Jacobian of the residual map, rows grad f(x_i) scaled by the row
    signs; shape (m, n) in parameter layout order."""
    X, w, S, sign = h
    (m, d), q = X.shape, w.shape[0]
    Sp = S * (1.0 - S)            # sigmoid'(A)
    J = np.empty((m, (d + 2) * q + 1))
    J[:, :q] = S
    # d f / d v_ij = w_i * sigmoid'(a_i) * x_j, neuron-major flattening
    J[:, q:q + q * d] = ((w * Sp)[:, :, None] * X[:, None, :]).reshape(m, q * d)
    J[:, q + q * d:q + q * d + q] = w * Sp
    J[:, -1] = 1.0
    return J if sign is None else sign[:, None] * J


def predict(theta: np.ndarray, shape: NetworkShape, X: np.ndarray) -> np.ndarray:
    """Network outputs sum_i w_i * sigmoid(v_i . x + u_i) + w0, one per input row."""
    return _hidden(theta, shape, X)[1]


def inner_eval(theta: np.ndarray, shape: NetworkShape, inputs: np.ndarray,
               targets: np.ndarray, loss: LossKind,
               jacobian: bool = False) -> ResidualEval:
    """Residual map, and its Jacobian if `jacobian`, from one hidden-layer
    pass.

    Quadratic/Absolute: F_i = f(x_i) - y_i. Hinge: F_i = y_i * f(x_i) with
    labels restricted to {-1, +1}; the label also scales the Jacobian row.
    """
    targets = np.asarray(targets, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if targets.shape != (inputs.shape[0],):
        raise DimensionError(
            f"targets have shape {targets.shape}, expected ({inputs.shape[0]},)")
    hinge = loss is LossKind.HINGE
    if hinge and not np.all(np.isin(targets, (-1.0, 1.0))):
        raise ValueError("hinge targets must be in {-1, +1}")
    h, preds = _hidden(theta, shape, inputs, targets if hinge else None)
    F = targets * preds if hinge else preds - targets
    return ResidualEval(F=F, J=_jacobian(h) if jacobian else None, hidden=h)
