"""Outer training loops: the linearized proximal algorithm (LPA), its
globalized variant with a backtracking line search (GLPA), and full-batch
first-order baselines (SGDM, RMSProp, Adam) for comparison.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .losses import LossKind, outer_gradient, outer_value
from .model import NetworkShape, _input_gram, inner_eval
from .subsolvers import AdmmConfig, admm_solve, lm_step


# line search: sufficient-decrease fraction, step shrink factor, trial cap
C, TAU, MAX_BACKTRACKS = 1e-3, 0.5, 10
# the first-order optimizers baseline_fit runs, in its reports' order
BASELINES = ("sgdm", "rmsprop", "adam")


@dataclass(frozen=True)
class SolverConfig:
    t: float = 1e5
    step_tol: float = 1e-2
    max_outer: int = 500
    admm: AdmmConfig = field(default_factory=AdmmConfig)

    def __post_init__(self):
        # written so that NaN and +inf fail too
        if not (0 < self.t < math.inf and 0 <= self.step_tol < math.inf
                and self.max_outer >= 1):
            raise ValueError(f"invalid solver config {self}")


@dataclass
class IterationRecord:
    k: int
    objective: float
    step_norm: float
    eta: float
    admm_iters: int
    elapsed_s: float
    accepted: bool = True   # line-search rule satisfied (always True for LPA)


@dataclass
class FitReport:
    theta_star: np.ndarray
    trace: list[IterationRecord]
    # "step_tol", "max_outer", or "line_search_failed": no trial step met
    # the line-search rule, so the last step was not taken
    stop_reason: str
    final_objective: float


def backtrack(evaluate, loss: LossKind, theta_k, dtheta_k, obj_k: float,
              predicted: float):
    """Find the largest eta in {1, TAU, TAU^2, ...} (at most MAX_BACKTRACKS
    trials) satisfying the sufficient-decrease rule

        outer(F(theta + eta*d)) - obj_k <= C * eta * predicted,

    where F(theta) is evaluate(theta).F, the fit's residual evaluation,
    obj_k = outer(F(theta)), and predicted = model(d) - obj_k, model(d) the
    subproblem objective at d that the subsolver returns. A non-finite trial
    objective or predicted decrease fails the rule. Returns (eta,
    trial_count, ev), ev the accepted trial's evaluation; if no trial
    satisfies the rule, eta is the last trial's and ev is None.
    """
    eta = 1.0
    # an overflowing step gives non-finite values here, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(1, MAX_BACKTRACKS + 1):
            try:
                ev = evaluate(theta_k + eta * dtheta_k)
                obj = outer_value(ev.F, loss)
            except FloatingPointError:      # non-finite residuals
                obj = math.inf
            if (math.isfinite(obj) and math.isfinite(predicted)
                    and obj - obj_k <= C * eta * predicted):
                return eta, trial, ev
            if trial < MAX_BACKTRACKS:
                eta *= TAU
    return eta, MAX_BACKTRACKS, None


def _fit_arrays(inputs, targets, theta0, shape: NetworkShape):
    """A fit's inputs and targets as float arrays, and a float copy of its
    start point theta0, checked to be one parameter vector of shape."""
    theta0 = np.array(theta0, dtype=float)
    if theta0.shape != (shape.n,):
        raise ValueError(f"theta0 has shape {theta0.shape}, expected ({shape.n},)")
    return np.asarray(inputs, dtype=float), np.asarray(targets, dtype=float), theta0


def _fit(inputs, targets, shape: NetworkShape, loss: LossKind, cfg: SolverConfig,
         theta0: np.ndarray, line_search: bool) -> FitReport:
    inputs, targets, theta = _fit_arrays(inputs, targets, theta0, shape)

    trace: list[IterationRecord] = []
    start = time.perf_counter()
    stop_reason = "max_outer"
    # every point is evaluated with this Gram of the fixed inputs: the
    # subsolvers use J only through ev.gram and ev.jtr, formed from it
    evaluate = functools.partial(inner_eval, shape=shape, inputs=inputs,
                                 targets=targets, loss=loss,
                                 input_gram=_input_gram(inputs))
    ev = evaluate(theta)
    for k in range(cfg.max_outer):
        obj = outer_value(ev.F, loss)
        if not np.isfinite(obj):
            raise FloatingPointError(f"non-finite objective at iteration {k}")
        if loss is LossKind.QUADRATIC:
            dtheta, info = lm_step(ev, cfg.t)
        else:
            dtheta, info = admm_solve(ev, cfg.t, loss, cfg.admm)
        with np.errstate(over="ignore", invalid="ignore"):
            step_norm = float(np.linalg.norm(dtheta))
        converged = step_norm < cfg.step_tol
        if line_search:
            eta, _, next_ev = backtrack(evaluate, loss, theta, dtheta, obj,
                                        info.model_value - obj)
        else:
            eta, next_ev = 1.0, evaluate(theta + dtheta)
        accepted = next_ev is not None
        if accepted:
            theta, ev = theta + eta * dtheta, next_ev
        trace.append(IterationRecord(k, obj, step_norm, eta, info.iterations,
                                     time.perf_counter() - start, accepted))
        if converged or not accepted:
            stop_reason = "step_tol" if converged else "line_search_failed"
            break
    return FitReport(theta_star=theta, trace=trace, stop_reason=stop_reason,
                     final_objective=outer_value(ev.F, loss))


def lpa_fit(inputs, targets, shape, loss, cfg: SolverConfig, theta0) -> FitReport:
    """Unit-step linearized proximal iteration; stops after taking the first
    step whose norm is below step_tol, or at the iteration cap."""
    return _fit(inputs, targets, shape, loss, cfg, theta0, line_search=False)


def glpa_fit(inputs, targets, shape, loss, cfg: SolverConfig, theta0) -> FitReport:
    """LPA with backtracking: theta <- theta + eta*dtheta, eta from the
    sufficient-decrease rule. A step is taken only if the rule accepts it,
    and the accepted trial's evaluation is the next iteration's. The fit
    stops after the step whose norm is below step_tol ("step_tol"), or at
    the first step the rule rejects ("line_search_failed")."""
    return _fit(inputs, targets, shape, loss, cfg, theta0, line_search=True)


def baseline_fit(inputs, targets, shape: NetworkShape, loss: LossKind, theta0,
                 lr: float = 1e-3, momentum: float = 0.9,
                 iters: int = 1000) -> list[FitReport]:
    """Full-batch SGDM / RMSProp / Adam on the training objective, using the
    analytic (sub)gradient J^T outer_gradient(F), formed without building J.
    Deterministic: no minibatch sampling.

    Runs the BASELINES in lockstep from the same theta0 and returns their
    reports in BASELINES order: each iteration evaluates the stacked
    iterates in one hidden-layer pass and one J^T r, then updates each
    iterate as if it ran alone, bit for bit. The rows of one iteration share
    one `elapsed_s` clock."""
    if not (0 < lr < math.inf and math.isfinite(momentum) and iters >= 1):
        raise ValueError(f"invalid hyperparameters lr={lr}, momentum={momentum}, "
                         f"iters={iters}")
    inputs, targets, theta0 = _fit_arrays(inputs, targets, theta0, shape)

    thetas = np.tile(theta0, (len(BASELINES), 1))
    # SGDM's velocity, RMSProp's square average and velocity, Adam's moments
    sgdm_vel, rms_sq, rms_vel, adam_m, adam_v = np.zeros((5, shape.n))
    eps = 1e-8
    traces: list[list[IterationRecord]] = [[] for _ in BASELINES]
    start = time.perf_counter()
    # an overflowing step norm or objective is inf here, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iters):
            ev = inner_eval(thetas, shape, inputs, targets, loss)
            g_sgdm, g_rms, g_adam = ev.jtr(outer_gradient(ev.F, loss))
            sgdm_vel = momentum * sgdm_vel + g_sgdm
            # square-average smoothing fixed at 0.99; `momentum` drives the
            # heavy-ball buffer on the preconditioned gradient
            rms_sq = 0.99 * rms_sq + 0.01 * g_rms * g_rms
            rms_vel = momentum * rms_vel + g_rms / (np.sqrt(rms_sq) + eps)
            adam_m = 0.9 * adam_m + 0.1 * g_adam
            adam_v = 0.999 * adam_v + 0.001 * g_adam * g_adam
            mhat = adam_m / (1.0 - 0.9 ** (k + 1))
            vhat = adam_v / (1.0 - 0.999 ** (k + 1))
            # in BASELINES order
            steps = (-lr * sgdm_vel, -lr * rms_vel, -lr * mhat / (np.sqrt(vhat) + eps))
            elapsed = time.perf_counter() - start
            for theta, step, f, trace in zip(thetas, steps, ev.F, traces):
                theta += step
                # the 2-norm as np.linalg.norm forms it, without its overhead
                trace.append(IterationRecord(k, outer_value(f, loss),
                                             math.sqrt(step @ step), 1.0, 0, elapsed))
        final = inner_eval(thetas, shape, inputs, targets, loss)
        return [FitReport(theta_star=theta, trace=trace, stop_reason="max_outer",
                          final_objective=outer_value(f, loss))
                for theta, trace, f in zip(thetas, traces, final.F)]
