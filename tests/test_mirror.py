"""Exact label-mirror relations of the fits.

Negating the targets and the output layer (w and w0) maps the residuals F
to -F and leaves J J^T unchanged, and negation is exact in floating point.
A fit from the mirrored start on the mirrored targets therefore ends at the
mirrored theta* bit for bit, with the same trace. A change that breaks one
of these tests breaks an exact symmetry, not a rounding tolerance.
"""

import dataclasses

import numpy as np
import pytest

from signet.data import load_digits_csv, make_binary_task, make_franke_datasets
from signet.losses import LossKind
from signet.model import NetworkShape, init_params
from signet.solvers import baseline_fit, glpa_fit, lpa_fit

from test_acceptance import DIGITS_HINGE, FRANKE_ABSOLUTE, OPTIMIZER_COMPARISON


def mirrored(theta, shape: NetworkShape) -> np.ndarray:
    """theta with its output layer, w (the first q entries) and w0 (the
    last), negated."""
    out = np.array(theta, dtype=float)
    out[:shape.q] = -out[:shape.q]
    out[-1] = -out[-1]
    return out


def assert_mirrored(rep, mirror_rep, shape: NetworkShape):
    assert np.array_equal(mirror_rep.theta_star, mirrored(rep.theta_star, shape))
    columns = [(r.k, r.objective, r.step_norm, r.eta, r.admm_iters, r.accepted)
               for r in rep.trace]
    assert [(r.k, r.objective, r.step_norm, r.eta, r.admm_iters, r.accepted)
            for r in mirror_rep.trace] == columns
    assert mirror_rep.stop_reason == rep.stop_reason
    assert mirror_rep.final_objective == rep.final_objective


@pytest.fixture(scope="module")
def pair_0_1():
    """Pair (0, 1)'s training split and, from make_binary_task(1, 0), the
    same split with negated labels."""
    digits = load_digits_csv()
    train, _ = make_binary_task(digits, 0, 1, seed=0, normalize=True)
    flipped, _ = make_binary_task(digits, 1, 0, seed=0, normalize=True)
    assert np.array_equal(flipped.inputs, train.inputs)
    assert np.array_equal(flipped.targets, -train.targets)
    return train, flipped


def test_baselines_mirror_exactly(pair_0_1):
    train, flipped = pair_0_1
    _, q, init, seed = OPTIMIZER_COMPARISON
    shape = NetworkShape(d=64, q=q)
    theta0 = init_params(shape, init, seed)
    fits = [baseline_fit(ds.inputs, ds.targets, shape, LossKind.HINGE, start,
                         lr=1e-3, momentum=0.9, iters=200)
            for ds, start in ((train, theta0), (flipped, mirrored(theta0, shape)))]
    for rep, mirror_rep in zip(*fits):
        assert_mirrored(rep, mirror_rep, shape)


def test_glpa_hinge_mirrors_exactly(pair_0_1):
    train, flipped = pair_0_1
    cfg, q, init, seed = DIGITS_HINGE
    shape = NetworkShape(d=64, q=q)
    theta0 = init_params(shape, init, seed)
    rep = glpa_fit(train.inputs, train.targets, shape, LossKind.HINGE, cfg, theta0)
    mirror_rep = glpa_fit(flipped.inputs, flipped.targets, shape, LossKind.HINGE,
                          cfg, mirrored(theta0, shape))
    assert_mirrored(rep, mirror_rep, shape)


@pytest.mark.parametrize("fit,loss", [(lpa_fit, LossKind.QUADRATIC),
                                      (glpa_fit, LossKind.ABSOLUTE)],
                         ids=["lpa-quadratic", "glpa-absolute"])
@pytest.mark.parametrize("init,seed", [("uniform", 0), ("wide", 2)])
def test_franke_fits_mirror_exactly(fit, loss, init, seed):
    train, _ = make_franke_datasets()
    cfg = dataclasses.replace(FRANKE_ABSOLUTE.cfg, max_outer=100)
    shape = NetworkShape(d=2, q=FRANKE_ABSOLUTE.q)
    theta0 = init_params(shape, init, seed)
    rep = fit(train.inputs, train.targets, shape, loss, cfg, theta0)
    mirror_rep = fit(train.inputs, -train.targets, shape, loss, cfg,
                     mirrored(theta0, shape))
    assert_mirrored(rep, mirror_rep, shape)
