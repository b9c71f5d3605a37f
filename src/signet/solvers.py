"""Outer training loops: the linearized proximal algorithm (LPA), its
globalized variant with a backtracking line search (GLPA), and full-batch
first-order baselines (SGDM, RMSProp, Adam) for comparison.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .losses import LossKind, outer_gradient, outer_value
from .model import NetworkShape, ResidualEval, inner_eval
from .subsolvers import AdmmConfig, admm_solve, lm_step, subproblem_model_value


# line search: sufficient-decrease fraction, step shrink factor, trial cap
C, TAU, MAX_BACKTRACKS = 1e-3, 0.5, 10


@dataclass(frozen=True)
class SolverConfig:
    t: float = 1e5
    step_tol: float = 1e-2
    max_outer: int = 500
    admm: AdmmConfig = field(default_factory=AdmmConfig)

    def __post_init__(self):
        # written so that NaN fails too
        if not (self.t > 0 and self.step_tol >= 0 and self.max_outer >= 1):
            raise ValueError(f"invalid solver config {self}")


@dataclass
class IterationRecord:
    k: int
    objective: float
    step_norm: float
    eta: float
    admm_iters: int
    elapsed: float
    accepted: bool = True   # line-search rule satisfied (always True for LPA)


@dataclass
class FitReport:
    theta_star: np.ndarray
    trace: list[IterationRecord]
    stop_reason: str        # "step_tol", "max_outer" or "line_search_failed"
    final_objective: float


def _solve_subproblem(ev: ResidualEval, loss: LossKind, cfg: SolverConfig):
    if loss is LossKind.QUADRATIC:
        return lm_step(ev, cfg.t), 0
    dtheta, tr = admm_solve(ev, cfg.t, loss, cfg.admm)
    return dtheta, tr.iterations


def backtrack(theta_k, dtheta_k, ev_k: ResidualEval, loss: LossKind,
              cfg: SolverConfig, shape: NetworkShape, inputs, targets):
    """Find the largest eta in {1, TAU, TAU^2, ...} (at most MAX_BACKTRACKS
    trials) satisfying the sufficient-decrease rule

        outer(F(theta + eta*d)) - outer(F(theta))
            <= C * eta * (model(d) - outer(F(theta))),

    where model(d) is the subproblem objective at d. A non-finite trial
    objective or model value fails the rule. Returns (eta, trial_count,
    accepted); if no trial satisfies the rule the smallest trial eta is
    returned with accepted=False, or eta = 0.0 if the objective is
    non-finite there too.
    """
    obj_k = outer_value(ev_k.F, loss)
    eta = 1.0
    # an overflowing step gives non-finite values here, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        predicted = subproblem_model_value(ev_k, dtheta_k, cfg.t, loss) - obj_k
        for trial in range(1, MAX_BACKTRACKS + 1):
            try:
                obj = outer_value(inner_eval(theta_k + eta * dtheta_k, shape,
                                             inputs, targets, loss).F, loss)
            except FloatingPointError:      # non-finite residuals
                obj = math.inf
            if (math.isfinite(obj) and math.isfinite(predicted)
                    and obj - obj_k <= C * eta * predicted):
                return eta, trial, True
            if trial < MAX_BACKTRACKS:
                eta *= TAU
    return (eta if math.isfinite(obj) else 0.0), MAX_BACKTRACKS, False


def _fit(inputs, targets, shape: NetworkShape, loss: LossKind, cfg: SolverConfig,
         theta0: np.ndarray, line_search: bool) -> FitReport:
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (shape.n,):
        raise ValueError(f"theta0 has shape {theta0.shape}, expected ({shape.n},)")
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)

    theta = theta0.copy()
    trace: list[IterationRecord] = []
    start = time.perf_counter()
    stop_reason = "max_outer"
    for k in range(cfg.max_outer):
        ev = inner_eval(theta, shape, inputs, targets, loss, jacobian=True)
        obj = outer_value(ev.F, loss)
        if not np.isfinite(obj):
            raise FloatingPointError(f"non-finite objective at iteration {k}")
        dtheta, admm_iters = _solve_subproblem(ev, loss, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            step_norm = float(np.linalg.norm(dtheta))
        converged = step_norm < cfg.step_tol
        if line_search:
            eta, _, accepted = backtrack(theta, dtheta, ev, loss, cfg,
                                         shape, inputs, targets)
        else:
            eta, accepted = 1.0, True
        # The step that meets step_tol is the last one; it is taken only if
        # it passes the line-search rule. A step with no finite trial point
        # to fall back on (eta = 0.0) is never taken and ends the fit.
        failed = eta == 0.0
        if not failed and (accepted or not converged):
            theta = theta + eta * dtheta
        trace.append(IterationRecord(k, obj, step_norm, eta, admm_iters,
                                     time.perf_counter() - start, accepted))
        if failed:
            stop_reason = "line_search_failed"
            break
        if converged:
            stop_reason = "step_tol"
            break
    final_objective = outer_value(
        inner_eval(theta, shape, inputs, targets, loss).F, loss)
    return FitReport(theta_star=theta, trace=trace, stop_reason=stop_reason,
                     final_objective=final_objective)


def lpa_fit(inputs, targets, shape, loss, cfg: SolverConfig, theta0) -> FitReport:
    """Unit-step linearized proximal iteration; stops after taking the first
    step whose norm is below step_tol, or at the iteration cap."""
    return _fit(inputs, targets, shape, loss, cfg, theta0, line_search=False)


def glpa_fit(inputs, targets, shape, loss, cfg: SolverConfig, theta0) -> FitReport:
    """LPA with backtracking: theta <- theta + eta*dtheta, eta from the
    sufficient-decrease rule, so accepted steps never increase the loss.
    The step whose norm is below step_tol is the last, and is taken only
    if the rule accepts it."""
    return _fit(inputs, targets, shape, loss, cfg, theta0, line_search=True)


def baseline_fit(inputs, targets, shape: NetworkShape, loss: LossKind,
                 optimizer: str, theta0, lr: float = 1e-3,
                 momentum: float = 0.9, iters: int = 1000) -> FitReport:
    """Full-batch SGDM / RMSProp / Adam on the training objective, using the
    analytic (sub)gradient J^T outer_gradient(F), formed without building J.
    Deterministic: no minibatch sampling."""
    if not (lr > 0 and math.isfinite(momentum) and iters >= 1):
        raise ValueError(f"invalid hyperparameters lr={lr}, momentum={momentum}, "
                         f"iters={iters}")
    optimizer = optimizer.lower()
    if optimizer not in ("sgdm", "rmsprop", "adam"):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    theta = np.asarray(theta0, dtype=float).copy()
    if theta.shape != (shape.n,):
        raise ValueError(f"theta0 has shape {theta.shape}, expected ({shape.n},)")

    vel = np.zeros_like(theta)
    sq = np.zeros_like(theta)
    mom1 = np.zeros_like(theta)
    eps = 1e-8
    trace: list[IterationRecord] = []
    start = time.perf_counter()
    for k in range(iters):
        ev = inner_eval(theta, shape, inputs, targets, loss)
        obj = outer_value(ev.F, loss)
        g = ev.jtr(outer_gradient(ev.F, loss))
        if optimizer == "sgdm":
            vel = momentum * vel + g
            step = -lr * vel
        elif optimizer == "rmsprop":
            # square-average smoothing fixed at 0.99; `momentum` drives the
            # heavy-ball buffer on the preconditioned gradient
            sq = 0.99 * sq + 0.01 * g * g
            vel = momentum * vel + g / (np.sqrt(sq) + eps)
            step = -lr * vel
        else:  # adam
            mom1 = 0.9 * mom1 + 0.1 * g
            sq = 0.999 * sq + 0.001 * g * g
            mhat = mom1 / (1.0 - 0.9 ** (k + 1))
            vhat = sq / (1.0 - 0.999 ** (k + 1))
            step = -lr * mhat / (np.sqrt(vhat) + eps)
        theta = theta + step
        trace.append(IterationRecord(k, obj, float(np.linalg.norm(step)), 1.0, 0,
                                     time.perf_counter() - start))
    final_objective = outer_value(
        inner_eval(theta, shape, inputs, targets, loss).F, loss)
    return FitReport(theta_star=theta, trace=trace, stop_reason="max_outer",
                     final_objective=final_objective)
