"""Solvers for the per-iteration strongly convex subproblem

    min_dtheta  outer(F + J dtheta) + ||dtheta||^2 / (2t)

Quadratic loss has a closed-form regularized least-squares step; absolute
and hinge losses are handled by ADMM with closed-form proximal updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .losses import LossKind, outer_value, prox
from .model import ResidualEval


@dataclass
class AdmmConfig:
    rho: float = 1e-2
    eps: float = 1e-2       # relative residual tolerance, see admm_solve
    max_iters: int = 20

    def validate(self):
        if self.rho <= 0 or self.eps <= 0 or self.max_iters < 1:
            raise ValueError(f"invalid ADMM config {self}")


@dataclass
class AdmmTrace:
    iterations: int
    final_primal_residual_norm: float
    final_dual_residual_norm: float
    converged: bool


def _spd_factor(M: np.ndarray):
    if not np.all(np.isfinite(M)):
        raise FloatingPointError("non-finite entries in subproblem matrix")
    return scipy.linalg.cho_factor(M, lower=True)


def lm_step(ev: ResidualEval, t: float, m: int) -> np.ndarray:
    """Closed-form quadratic-loss step: solve ((2/m) J^T J + I/t) d = -(2/m) J^T F."""
    if t <= 0:
        raise ValueError(f"stepsize t must be positive, got {t}")
    J, F = ev.J, ev.F
    n = J.shape[1]
    B = (2.0 / m) * (J.T @ J)
    B[np.diag_indices(n)] += 1.0 / t
    g = (2.0 / m) * (J.T @ F)
    return scipy.linalg.cho_solve(_spd_factor(B), -g)


def admm_solve(ev: ResidualEval, t: float, m: int, loss: LossKind,
               cfg: AdmmConfig) -> tuple[np.ndarray, AdmmTrace]:
    """ADMM on the split subproblem min outer(mu) + ||dtheta||^2/(2t)
    s.t. mu = F + J dtheta.

    mu-update is the separable prox with kappa = 1/(m*rho); the dtheta-update
    solves (rho J^T J + I/t) dtheta = rho J^T (mu - F + lambda/rho) with the
    matrix factored once per call. Stops when the primal residual
    mu - F - J dtheta and the dual residual divided by rho, the change in
    J dtheta, are both at most eps * max(||mu - F||, ||J dtheta||): measured
    against the size of the subproblem's own step, so that a small
    subproblem does not pass at its first, cold-start iterate. Otherwise
    returns the last iterate unconverged at max_iters.
    """
    if t <= 0:
        raise ValueError(f"stepsize t must be positive, got {t}")
    if loss not in (LossKind.ABSOLUTE, LossKind.HINGE):
        raise ValueError(f"ADMM subsolver handles absolute/hinge losses, got {loss!r}")
    cfg.validate()
    J, F = ev.J, ev.F
    n = J.shape[1]
    rho = cfg.rho
    kappa = 1.0 / (m * rho)

    A = rho * (J.T @ J)
    A[np.diag_indices(n)] += 1.0 / t
    factor = _spd_factor(A)

    dtheta = np.zeros(n)
    lam = np.zeros(m)
    Jd = np.zeros(m)
    r_norm = s_norm = np.inf
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        mu = prox(F + Jd - lam / rho, kappa, loss)
        dtheta_prev = dtheta
        dtheta = scipy.linalg.cho_solve(factor, rho * (J.T @ (mu - F + lam / rho)))
        Jd = J @ dtheta
        r = mu - F - Jd
        lam = lam + rho * r
        s = rho * (J @ (dtheta - dtheta_prev))
        r_norm = float(np.linalg.norm(r))
        s_norm = float(np.linalg.norm(s))
        if not (np.isfinite(r_norm) and np.isfinite(s_norm)):
            raise FloatingPointError("non-finite ADMM residuals")
        tol = cfg.eps * max(np.linalg.norm(mu - F), np.linalg.norm(Jd))
        if r_norm <= tol and s_norm <= rho * tol:
            converged = True
            break
    trace = AdmmTrace(iterations=it, final_primal_residual_norm=r_norm,
                      final_dual_residual_norm=s_norm, converged=converged)
    return dtheta, trace


def subproblem_model_value(ev: ResidualEval, dtheta: np.ndarray, t: float,
                           m: int, loss: LossKind) -> float:
    """Value of the linearized-plus-proximal objective at dtheta."""
    if t <= 0:
        raise ValueError(f"stepsize t must be positive, got {t}")
    dtheta = np.asarray(dtheta, dtype=float)
    if dtheta.shape != (ev.J.shape[1],):
        raise ValueError(f"dtheta has shape {dtheta.shape}, expected ({ev.J.shape[1]},)")
    return outer_value(ev.F + ev.J @ dtheta, loss) + float(dtheta @ dtheta) / (2.0 * t)
