"""Metrics, Jacobian rank checks, and the adaptive network-size rule."""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .model import NetworkShape, predict


def _difference(pred, actual) -> np.ndarray:
    """pred - actual, for two non-empty vectors of the same length."""
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.ndim != 1 or pred.size == 0:
        raise ValueError(f"bad shapes {pred.shape} vs {actual.shape}")
    return pred - actual


def rms_error(pred, actual) -> float:
    """sqrt(mean squared difference)."""
    return float(np.sqrt(np.mean(_difference(pred, actual) ** 2)))


def max_error(pred, actual) -> float:
    return float(np.max(np.abs(_difference(pred, actual))))


def classification_errors(theta, shape: NetworkShape, data: Dataset) -> int:
    """Count of sign mismatches; a network output of exactly 0 counts as an
    error for either label."""
    if not np.all(np.abs(data.targets) == 1.0):
        raise ValueError("classification_errors needs targets in {-1, +1}")
    preds = predict(theta, shape, data.inputs)
    return int(np.sum(np.sign(preds) != data.targets))


def jacobian_rank(J: np.ndarray) -> tuple[int, bool]:
    """Numerical rank by singular-value threshold 1e-10*max(m,n)*sigma_max;
    also reports whether the matrix has full row rank."""
    J = np.asarray(J, dtype=float)
    if not np.all(np.isfinite(J)):
        raise FloatingPointError("non-finite entries in Jacobian")
    rank = int(np.linalg.matrix_rank(J, rtol=1e-10 * max(J.shape)))
    return rank, rank == J.shape[0]


def adaptive_network_size(m: int, d: int) -> int:
    """Smallest hidden-layer size making the parameter count reach the sample
    count: max(1, ceil((m-1)/(d+2)))."""
    if m < 1 or d < 1:
        raise ValueError(f"need m, d >= 1, got m={m}, d={d}")
    return max(1, math.ceil((m - 1) / (d + 2)))

