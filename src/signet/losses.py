"""Outer convex loss functions, their (sub)gradients, and the scalar
proximity operators used by the ADMM subproblem solver.

Every loss is separable: the vector loss is the mean of a scalar convex
function over the components.
"""

from __future__ import annotations

import enum

import numpy as np


class LossKind(enum.Enum):
    QUADRATIC = "quadratic"
    ABSOLUTE = "absolute"
    HINGE = "hinge"


def outer_value(z: np.ndarray, loss: LossKind) -> float:
    """Mean loss over the components of the vector z.

    quadratic: mean z_i^2; absolute: mean |z_i|; hinge: mean max(1-z_i, 0).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"residual must be a vector, got shape {z.shape}")
    if z.size == 0:
        raise ValueError("empty residual vector")
    m = z.shape[0]
    if loss is LossKind.QUADRATIC:
        return float(z @ z) / m
    if loss is LossKind.ABSOLUTE:
        return float(np.abs(z).sum()) / m
    if loss is LossKind.HINGE:
        return float(np.maximum(1.0 - z, 0.0).sum()) / m
    raise ValueError(f"unknown loss {loss!r}")


def outer_gradient(z: np.ndarray, loss: LossKind) -> np.ndarray:
    """A (sub)gradient of outer_value at z: 2 z_i / m, sign(z_i) / m, or
    -[z_i < 1] / m for the hinge. For (P, m) stacked residuals, row p is
    the (sub)gradient at row p."""
    z = np.asarray(z, dtype=float)
    m = z.shape[-1]
    if loss is LossKind.QUADRATIC:
        return 2.0 * z / m
    if loss is LossKind.ABSOLUTE:
        return np.sign(z) / m
    if loss is LossKind.HINGE:
        return -(z < 1.0).astype(float) / m
    raise ValueError(f"unknown loss {loss!r}")


def prox(a, kappa: float, loss: LossKind):
    """Scalar proximity operator argmin_mu kappa*L(mu) + (mu-a)^2/2.

    Absolute loss: soft thresholding. Hinge loss: a shifted clamp toward
    the margin 1. Accepts scalars or arrays and acts elementwise. Boundary
    ties go to the middle branch.
    """
    if not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    a = np.asarray(a, dtype=float)
    if loss is LossKind.ABSOLUTE:
        return np.sign(a) * np.maximum(np.abs(a) - kappa, 0.0)
    if loss is LossKind.HINGE:
        return np.where(a > 1.0, a, np.where(a >= 1.0 - kappa, 1.0, a + kappa))
    raise ValueError(f"prox not defined for {loss!r} (quadratic subproblems "
                     "use the closed-form regularized least-squares step)")
