"""Training of three-layer sigmoid networks by convex composite optimization:
a linearized proximal outer loop with closed-form or ADMM subproblem solves,
plus first-order baselines, dataset builders, and diagnostics."""

from .data import Dataset, make_binary_task, make_franke_datasets
from .diagnostics import adaptive_network_size, jacobian_rank, max_error, rms_error
from .losses import LossKind, outer_value, prox
from .model import NetworkShape, ResidualEval, init_params, inner_eval, predict
from .solvers import AdmmConfig, FitReport, SolverConfig, baseline_fit, glpa_fit, lpa_fit
from .subsolvers import admm_solve, lm_step

__all__ = [
    "AdmmConfig", "Dataset", "FitReport", "LossKind",
    "NetworkShape", "ResidualEval", "SolverConfig",
    "adaptive_network_size", "admm_solve", "baseline_fit", "glpa_fit",
    "init_params", "inner_eval", "jacobian_rank", "lm_step", "lpa_fit",
    "make_binary_task", "make_franke_datasets", "max_error", "outer_value",
    "predict", "prox", "rms_error",
]

__version__ = "0.1.0"
