"""Row and neuron permutation relations of the fits.

Permuting the training rows or the hidden neurons leaves the problem the
same, but not the order of the floating-point sums, so a fit moves within
rounding. Along the null space of a rank-deficient Jacobian, rounding can
move theta* far, so these tests compare what the fit is for, objectives
and held-out predictions, within bounds fixed from a measurement; theta*
of such a fit is not reproducible across permutations (or OpenBLAS kernel
sets) while its predictions are.
"""

import dataclasses

import numpy as np
import pytest

from signet.data import load_digits_csv, make_binary_task, make_franke_datasets
from signet.losses import LossKind
from signet.model import NetworkShape, init_params, predict, split_params
from signet.solvers import glpa_fit, lpa_fit

from conftest import pack_params
from test_acceptance import DIGITS_HINGE, FRANKE_ABSOLUTE, FRANKE_QUADRATIC


def test_digit_row_permutation_keeps_the_fit():
    # measured over five row permutations of pair 0-1: 11 iterations and
    # objective exactly 0.0 each time, theta* within 6e-7
    train, _ = make_binary_task(load_digits_csv(), 0, 1, seed=0, normalize=True)
    cfg, q, init, seed = DIGITS_HINGE
    shape = NetworkShape(d=64, q=q)
    theta0 = init_params(shape, init, seed)
    perm = np.random.default_rng(0).permutation(len(train.targets))
    fits = [glpa_fit(X, y, shape, LossKind.HINGE, cfg, theta0)
            for X, y in ((train.inputs, train.targets),
                         (train.inputs[perm], train.targets[perm]))]
    assert [len(rep.trace) for rep in fits] == [11, 11]
    assert [rep.final_objective for rep in fits] == [0.0, 0.0]


@pytest.mark.parametrize("fit,loss,setup,objective_rtol,prediction_atol", [
    # measured over three neuron permutations (100 iterations each):
    # LPA quadratic objective relative change 1.2e-4 to 2.9e-4 and held-out
    # predictions within 3.4e-5 (test RMS 8.8e-3); GLPA absolute 0.9e-9 to
    # 5.4e-9 and 2.2e-9. The bounds are about ten times the largest.
    (lpa_fit, LossKind.QUADRATIC, FRANKE_QUADRATIC, 3e-3, 3e-4),
    (glpa_fit, LossKind.ABSOLUTE, FRANKE_ABSOLUTE, 1e-7, 3e-8),
], ids=["lpa-quadratic", "glpa-absolute"])
def test_franke_neuron_permutation_moves_only_within_rounding(
        fit, loss, setup, objective_rtol, prediction_atol):
    train, test = make_franke_datasets()
    cfg = dataclasses.replace(setup.cfg, max_outer=100)
    shape = NetworkShape(d=2, q=setup.q)
    theta0 = init_params(shape, setup.init, setup.seed)
    w, V, u, w0 = split_params(theta0, shape)
    perm = np.random.default_rng(0).permutation(shape.q)
    reps = [fit(train.inputs, train.targets, shape, loss, cfg, start)
            for start in (theta0, pack_params(w[perm], V[perm], u[perm], w0))]
    assert [len(rep.trace) for rep in reps] == [100, 100]
    objective, permuted_objective = (rep.final_objective for rep in reps)
    assert permuted_objective == pytest.approx(objective, rel=objective_rtol, abs=0.0)
    outputs, permuted_outputs = (predict(rep.theta_star, shape, test.inputs)
                                 for rep in reps)
    assert np.max(np.abs(permuted_outputs - outputs)) <= prediction_atol
