"""Three-layer sigmoid network: predictions, the per-sample residual map F
with its Jacobian J, and the products J J^T and J^T r, all from one
hidden-layer pass.

Parameter layout is fixed as [w (q) | v (q*d, neuron-major) | u (q) | w0],
so a parameter vector is a flat float array of length (d+2)*q + 1. A
(P, n) array stacks P parameter vectors: the hidden-layer pass, F,
predictions and J^T r then carry a leading axis of length P, and row p of
each is, bit for bit, the result for row p alone (numpy's stacked matmul
calls the same BLAS kernel on each 2-D slice).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import syrk
from .losses import LossKind


@dataclass(frozen=True)
class NetworkShape:
    """Dimensions of the network: d inputs, q hidden neurons."""

    d: int
    q: int

    def __post_init__(self):
        if self.d < 1 or self.q < 1:
            raise ValueError(f"d and q must be >= 1, got d={self.d}, q={self.q}")

    @property
    def n(self) -> int:
        return (self.d + 2) * self.q + 1


@dataclass(frozen=True)
class ResidualEval:
    """Residual vector F (length m, or (P, m) for stacked parameters) of one
    hidden-layer pass, kept with the pass: inputs X, output weights w,
    activations S = sigmoid(X V^T + u), the row signs (the hinge labels, or
    None) and the input Gram [X | 1][X | 1]^T (or None, and gram forms it).
    From these, gram and jtr form alpha J J^T and J^T r without the
    Jacobian J, and jacobian builds J."""

    F: np.ndarray
    X: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    S: np.ndarray = field(repr=False)
    sign: np.ndarray | None = field(repr=False)
    input_gram: np.ndarray | None = field(repr=False)

    def __post_init__(self):
        if not np.isfinite(self.F).all():
            raise FloatingPointError("non-finite entries in residual evaluation")

    @property
    def m(self) -> int:
        return self.F.shape[-1]

    def gram(self, alpha: float) -> np.ndarray:
        """alpha J J^T (m x m) in Fortran order; only its lower triangle,
        all that LAPACK's dpotrf reads, is valid. Single parameter vector
        only.

        A Jacobian row is s_i [S_i | A_i kron X^_i | A_i | 1] with
        A = w S(1-S) and X^ = [X | 1], so J J^T = S^ S^T + (A A^T) o (X^ X^T),
        S^ = [S | 1], both S^ and A with rows scaled by s: O(m^2 q), not
        O(m^2 n). One m x m allocation; syrk adds S^ S^T in place."""
        S, sign = self.S, self.sign
        G = _input_gram(self.X) if self.input_gram is None else self.input_gram
        m, q = S.shape
        A = 1.0 - S
        A *= S
        A *= self.w
        Sh = np.empty((m, q + 1), order="F")
        Sh[:, :q] = S
        Sh[:, q] = 1.0
        if sign is not None:
            A *= sign[:, None]
            Sh *= sign[:, None]
        K = A @ A.T
        K *= G
        K *= alpha
        return syrk(alpha, Sh, K.T)

    def jtr(self, r: np.ndarray) -> np.ndarray:
        """J^T r, formed in O(m*q*d) from the hidden-layer activations
        without building J. For stacked parameters, r is (P, m) and row p
        of the (P, n) result is J_p^T r_p. The four blocks are written into
        one result array."""
        S, w, X = self.S, self.w, self.X
        *lead, m, q = S.shape
        qd = q * X.shape[1]
        if self.sign is not None:
            r = self.sign * r
        Spr = 1.0 - S                   # sigmoid'(A) scaled by r
        Spr *= S
        Spr *= r[..., None]
        out = np.empty((*lead, qd + 2 * q + 1))
        out[..., :q] = (r[..., None, :] @ S)[..., 0, :]
        VX = Spr.mT @ X
        VX *= w[..., None]
        out[..., q:q + qd] = VX.reshape(*lead, qd)
        np.multiply(w, np.add.reduce(Spr, axis=-2), out=out[..., q + qd:-1])
        out[..., -1] = np.add.reduce(r, axis=-1)
        return out

    def jacobian(self) -> np.ndarray:
        """The Jacobian J of the residual map, rows grad f(x_i) scaled by
        the row signs; shape (m, n) in parameter layout order. Single
        parameter vector only."""
        X, w, S = self.X, self.w, self.S
        (m, d), q = X.shape, w.shape[0]
        Sp = S * (1.0 - S)            # sigmoid'(A)
        J = np.empty((m, (d + 2) * q + 1))
        J[:, :q] = S
        # d f / d v_ij = w_i * sigmoid'(a_i) * x_j, neuron-major flattening
        J[:, q:q + q * d] = ((w * Sp)[:, :, None] * X[:, None, :]).reshape(m, q * d)
        J[:, q + q * d:q + q * d + q] = w * Sp
        J[:, -1] = 1.0
        return J if self.sign is None else self.sign[:, None] * J


def sigmoid(a):
    """Logistic function 1/(1+exp(-a)), overflow-safe for large |a|, formed
    as exp(min(a, 0)) / (1 + exp(-|a|)). That is, bit for bit, the masked
    form e/(1+e) for a < 0 and 1/(1+e) otherwise, e = exp(-|a|): the
    numerator exp(min(a, 0)) is exp(a) = e for a < 0 and exp(0) = 1.0
    otherwise. No argument of exp is positive, so nothing overflows. The
    numerator is formed in the result and the denominator in one scratch
    array; a scalar gives a numpy scalar."""
    a = np.asarray(a, dtype=float)
    out = np.minimum(a, 0.0, out=np.empty(a.shape))
    np.exp(out, out=out)
    den = np.abs(a, out=np.empty(a.shape))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out /= den
    return out[()]


def split_params(theta: np.ndarray, shape: NetworkShape):
    """Split a flat parameter vector into (w, V, u, w0) with V of shape
    (q, d); for (P, n) stacked vectors, each part gains the leading P."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != shape.n:
        raise ValueError(
            f"theta has shape {theta.shape}, expected ({shape.n},) or (P, {shape.n})")
    q, d = shape.q, shape.d
    w = theta[..., :q]
    V = theta[..., q:q + q * d].reshape(*theta.shape[:-1], q, d)
    u = theta[..., q + q * d:q + q * d + q]
    w0 = theta[..., -1]
    return w, V, u, w0


def init_params(shape: NetworkShape, kind: str = "uniform", seed: int = 0) -> np.ndarray:
    """Starting point: seeded 'uniform' entries in [-0.5, 0.5]; or seeded
    'wide', uniform in [-0.5, 0.5] with the hidden-layer weights and biases
    redrawn in [-5, 5]."""
    if kind not in ("uniform", "wide"):
        raise ValueError(f"unknown init kind {kind!r}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-0.5, 0.5, size=shape.n)
    if kind == "wide":
        # small output weights, spread-out hidden-layer weights; raises the
        # numerical rank of the Jacobian at the starting point
        theta[shape.q:-1] = rng.uniform(-5.0, 5.0, size=shape.n - shape.q - 1)
    return theta


def _inputs(X, shape: NetworkShape) -> np.ndarray:
    """The inputs as floats, checked to be (m, d)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != shape.d:
        raise ValueError(f"inputs have shape {X.shape}, expected (m, {shape.d})")
    return X


def _hidden(theta, shape: NetworkShape, X: np.ndarray):
    """The hidden-layer pass on checked float inputs X: w, S = sigmoid(X V^T
    + u) and the network outputs S w + w0, in an array of their own."""
    w, V, u, w0 = split_params(theta, shape)
    A = X @ V.mT
    A += u[..., None, :]
    S = sigmoid(A)
    outputs = (S @ w[..., None])[..., 0]
    outputs += w0[..., None]
    return w, S, outputs


def _input_gram(X) -> np.ndarray:
    """X^ X^T with X^ = [X | 1] (m x m, exactly symmetric): the factor of
    J J^T that depends on the inputs alone, so a fit forms it once."""
    G = X @ X.T     # syrk
    G += 1.0
    return G


def predict(theta: np.ndarray, shape: NetworkShape, X: np.ndarray) -> np.ndarray:
    """Network outputs sum_i w_i * sigmoid(v_i . x + u_i) + w0, one per input
    row; (P, m) for stacked parameters."""
    return _hidden(theta, shape, _inputs(X, shape))[2]


def evaluator(shape: NetworkShape, inputs: np.ndarray, targets: np.ndarray,
              loss: LossKind, input_gram: np.ndarray | None = None):
    """The residual map of one data set, as evaluate(theta) -> ResidualEval
    for one parameter vector or a (P, n) stack of them. The inputs, the
    targets and the hinge labels are checked here, once; each evaluation
    checks only theta's shape and runs one hidden-layer pass. `input_gram`
    is [X | 1][X | 1]^T of these inputs, for a caller that evaluates them
    many times; ResidualEval.gram forms it otherwise.

    Quadratic/Absolute: F_i = f(x_i) - y_i. Hinge: F_i = y_i * f(x_i) with
    labels restricted to {-1, +1}; the label also scales the Jacobian row.
    """
    targets = np.asarray(targets, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if targets.shape != (inputs.shape[0],):
        raise ValueError(
            f"targets have shape {targets.shape}, expected ({inputs.shape[0]},)")
    hinge = loss is LossKind.HINGE
    if hinge and not np.all(np.abs(targets) == 1.0):
        raise ValueError("hinge targets must be in {-1, +1}")
    X = _inputs(inputs, shape)
    sign = targets if hinge else None

    def evaluate(theta) -> ResidualEval:
        w, S, F = _hidden(theta, shape, X)
        if hinge:
            F *= targets
        else:
            F -= targets
        return ResidualEval(F=F, X=X, w=w, S=S, sign=sign, input_gram=input_gram)
    return evaluate


def inner_eval(theta: np.ndarray, shape: NetworkShape, inputs: np.ndarray,
               targets: np.ndarray, loss: LossKind,
               input_gram: np.ndarray | None = None) -> ResidualEval:
    """Residual map from one hidden-layer pass, of one parameter vector or
    of a (P, n) stack of them: the evaluator of these data applied once."""
    return evaluator(shape, inputs, targets, loss, input_gram)(theta)
