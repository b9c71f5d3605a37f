"""Solvers for the per-iteration strongly convex subproblem

    min_dtheta  outer(F + J dtheta) + ||dtheta||^2 / (2t)

Quadratic loss has a closed-form regularized least-squares step; absolute
and hinge losses are handled by ADMM with closed-form proximal updates.
Both solve with K = I + t c J J^T by one triangular pair and return
(dtheta, StepInfo) by one identity (_step): no Jacobian is built, and the
model value needs no product with J. LM takes b = -F, ADMM's last iterate b = w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import potrf, trsv_pair
from .losses import LossKind, outer_value, prox
from .model import ResidualEval


@dataclass(frozen=True)
class AdmmConfig:
    rho: float = 1e-2
    eps: float = 1e-2       # relative residual tolerance, see admm_solve
    max_iters: int = 20

    def __post_init__(self):
        # written so that NaN and +inf fail too
        if not (0 < self.rho < math.inf and 0 < self.eps < math.inf
                and self.max_iters >= 1):
            raise ValueError(f"invalid ADMM config {self}")


@dataclass(frozen=True)
class StepInfo:
    """What a subsolver knows of its step: the subproblem objective
    outer(F + J dtheta) + ||dtheta||^2/(2t) there, and the ADMM iteration
    count, final residual norms and convergence flag (0, 0.0, 0.0, True
    for the exact LM step)."""

    model_value: float
    iterations: int = 0
    final_primal_residual_norm: float = 0.0
    final_dual_residual_norm: float = 0.0
    converged: bool = True


def _factor(ev: ResidualEval, c: float, t: float):
    """Lower Cholesky factor L of K = I + t c J J^T (m x m), the matrix of
    both subsolvers, in Fortran order. With it, (c J^T J + I/t)^{-1} J^T =
    t J^T K^{-1}. ev.gram gives t c J J^T in Fortran order with its lower
    triangle valid, which is all LAPACK's dpotrf reads: it factors K in
    place, with no copy. An overflow in forming K is reported by the
    finiteness check, not by a RuntimeWarning."""
    if not t > 0:
        raise ValueError(f"stepsize t must be positive, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):   # caught just below
        K = ev.gram(t * c)
        K[np.diag_indices_from(K)] += 1.0
    if not np.all(np.isfinite(K)):
        raise FloatingPointError("non-finite entries in subproblem matrix")
    return potrf(K)


def _step(ev: ResidualEval, b: np.ndarray, z: np.ndarray, c: float, t: float,
          loss: LossKind, **info) -> tuple[np.ndarray, StepInfo]:
    """The step dtheta = t c J^T z for z = K^{-1} b, with its model value
    from J dtheta = b - z and ||dtheta||^2/(2t) = c z^T (J dtheta)/2."""
    Jd = b - z
    model_value = outer_value(ev.F + Jd, loss) + c * float(z @ Jd) / 2.0
    return (t * c) * ev.jtr(z), StepInfo(model_value, **info)


def lm_step(ev: ResidualEval, t: float) -> tuple[np.ndarray, StepInfo]:
    """Closed-form quadratic-loss step d = -((2/m) J^T J + I/t)^{-1} (2/m) J^T F,
    computed as d = t c J^T K^{-1} b with c = 2/m and b = -F: one solve
    with K from ev.gram, J^T z from ev.jtr, so no Jacobian is built."""
    c, b = 2.0 / ev.m, -ev.F
    return _step(ev, b, trsv_pair(_factor(ev, c, t), b), c, t, LossKind.QUADRATIC)


def admm_solve(ev: ResidualEval, t: float, loss: LossKind,
               cfg: AdmmConfig) -> tuple[np.ndarray, StepInfo]:
    """ADMM on the split subproblem min outer(mu) + ||dtheta||^2/(2t)
    s.t. mu = F + J dtheta.

    mu-update is the separable prox with kappa = 1/(m*rho); the dtheta-update
    solves (rho J^T J + I/t) dtheta = rho J^T w, w = mu - F + lambda/rho. It
    runs in residual space: with K = I + t rho J J^T factored once per call,
    an iteration is one solve z = K^{-1} w and J dtheta = w - z, and
    dtheta = t rho J^T z is formed once, after the loop.
    Stops when the primal residual mu - F - J dtheta and the dual
    residual divided by rho, the change in J dtheta, are both at most
    eps * max(||mu - F||, ||J dtheta||): measured against the size of the
    subproblem's own step, so that a small subproblem does not pass at its
    first, cold-start iterate. Otherwise returns the last iterate unconverged at max_iters.
    """
    if loss not in (LossKind.ABSOLUTE, LossKind.HINGE):
        raise ValueError(f"ADMM subsolver handles absolute/hinge losses, got {loss!r}")
    F, m = ev.F, ev.m
    rho = cfg.rho
    kappa = 1.0 / (m * rho)
    L = _factor(ev, rho, t)

    lam = np.zeros(m)
    Jd = np.zeros(m)
    r_norm = s_norm = np.inf
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        lam_rho = lam / rho
        mu = prox(F + Jd - lam_rho, kappa, loss)
        mu_F = mu - F
        w = mu_F + lam_rho
        # K was checked when factored; a non-finite w fails the r_norm check
        z = trsv_pair(L, w)
        Jd_prev = Jd
        Jd = w - z
        r = mu_F - Jd
        lam = lam + rho * r
        s = rho * (Jd - Jd_prev)
        r_norm = math.sqrt(r @ r)
        s_norm = math.sqrt(s @ s)
        if not (math.isfinite(r_norm) and math.isfinite(s_norm)):
            raise FloatingPointError("non-finite ADMM residuals")
        tol = cfg.eps * max(math.sqrt(mu_F @ mu_F), math.sqrt(Jd @ Jd))
        if r_norm <= tol and s_norm <= rho * tol:
            converged = True
            break
    return _step(ev, w, z, rho, t, loss, iterations=it, final_primal_residual_norm=r_norm,
                 final_dual_residual_norm=s_norm, converged=converged)
