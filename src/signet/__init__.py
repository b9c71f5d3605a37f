"""Training of three-layer sigmoid networks by convex composite optimization:
a linearized proximal outer loop with closed-form or ADMM subproblem solves,
plus first-order baselines, dataset builders, and diagnostics."""

import os
import sys

# One BLAS thread unless the caller's environment says otherwise. At the
# subproblem sizes here (m in the hundreds) a second OpenBLAS thread makes a
# whole fit about 1.6 times slower (README.md, "One BLAS thread by default",
# has the measurement): each threaded call costs more to split than it
# saves. signet's own kernels (signet/linalg.py) come from the one OpenBLAS
# numpy loads, so there is one thread pool. A second thread also changes
# results in the last bits.
# OpenBLAS reads the variables once, when numpy loads it; if numpy is already
# loaded, setting them would have no effect, so the environment is left
# alone and _blas_threads is None.
if "numpy" in sys.modules:
    _blas_threads = None
else:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    _blas_threads = os.environ["OPENBLAS_NUM_THREADS"]

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
