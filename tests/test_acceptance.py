"""End-to-end acceptance checks, one test (or parametrized group) per criterion.

These pin the headline numbers for the two regression experiments, the digit
classification experiment, the optimizer comparison, the noise recipe, and the
numerical property suites. Tolerances are fixed here on purpose: loosening them
is a behavior change, not a test fix.
"""

import time
from typing import NamedTuple

import numpy as np
import pytest

from signet.data import load_digits_csv, make_binary_task, make_franke_datasets
from signet.diagnostics import (adaptive_network_size, classification_errors,
                                rms_error)
from signet.losses import LossKind, prox
from signet.model import NetworkShape, init_params, inner_eval, predict
from signet.solvers import BASELINES, SolverConfig, baseline_fit, glpa_fit, lpa_fit
from signet.subsolvers import AdmmConfig, admm_solve, lm_step

from conftest import (DenseEval, finite_diff_jacobian, random_instance,
                      scalar_loss, subproblem_model_value)
from test_losses import golden_section_prox


class Setup(NamedTuple):
    """One acceptance configuration: solver settings, hidden-layer size, and
    the init scheme and seed of the starting point (the seed also picks the
    digits split). test_config_sources.py checks that scripts/ and
    perfbench/workloads.py pass the CLI these same values."""
    cfg: SolverConfig
    q: int
    init: str
    seed: int


FRANKE_QUADRATIC = Setup(SolverConfig(t=1e5, step_tol=1e-2, max_outer=500),
                         q=72, init="uniform", seed=0)
FRANKE_ABSOLUTE = Setup(SolverConfig(t=1e5, step_tol=1e-2, max_outer=500,
                                     admm=AdmmConfig(rho=1e-2, eps=1e-2, max_iters=20)),
                        q=72, init="wide", seed=2)
DIGITS_HINGE = Setup(SolverConfig(t=1e5, step_tol=1e-2, max_outer=500,
                                  admm=AdmmConfig(rho=1e-2, eps=1e-2, max_iters=10)),
                     q=4, init="uniform", seed=0)
OPTIMIZER_COMPARISON = DIGITS_HINGE._replace(
    cfg=SolverConfig(t=1e5, step_tol=1e-2, max_outer=100,
                     admm=AdmmConfig(rho=1e-2, eps=1e-2, max_iters=10)))


@pytest.fixture(scope="module")
def franke():
    return make_franke_datasets()


@pytest.fixture(scope="module")
def digits():
    return load_digits_csv()


def test_criterion_1_franke_quadratic(franke):
    train, test = franke
    cfg, q, init, seed = FRANKE_QUADRATIC
    shape = NetworkShape(d=2, q=q)
    theta0 = init_params(shape, init, seed=seed)
    started = time.perf_counter()
    rep = lpa_fit(train.inputs, train.targets, shape, LossKind.QUADRATIC,
                  cfg, theta0)
    elapsed = time.perf_counter() - started
    rms = rms_error(predict(rep.theta_star, shape, test.inputs),
                    test.targets)
    assert rep.final_objective <= 1e-4
    assert rms <= 1.5e-2
    assert elapsed <= 120.0


@pytest.fixture(scope="module")
def franke_absolute_run(franke):
    train, test = franke
    cfg, q, init, seed = FRANKE_ABSOLUTE
    shape = NetworkShape(d=2, q=q)
    theta0 = init_params(shape, init, seed=seed)
    rep = glpa_fit(train.inputs, train.targets, shape, LossKind.ABSOLUTE,
                   cfg, theta0)
    return shape, rep, test


def test_criterion_2_franke_absolute_test_rms(franke_absolute_run):
    shape, rep, test = franke_absolute_run
    rms = rms_error(predict(rep.theta_star, shape, test.inputs),
                    test.targets)
    assert rms <= 5e-3
    assert all(rec.admm_iters <= 20 for rec in rep.trace)


def test_criterion_2_franke_absolute_training_objective(franke_absolute_run):
    _, rep, _ = franke_absolute_run
    assert rep.final_objective <= 1e-5


DIGIT_PAIRS = [((0, 1), (252, 108)), ((2, 5), (251, 108)),
               ((3, 7), (253, 109)), ((6, 9), (252, 109))]


@pytest.mark.parametrize("pair,sizes", DIGIT_PAIRS,
                         ids=[f"{a}-{b}" for (a, b), _ in DIGIT_PAIRS])
def test_criterion_3_digits_hinge(digits, pair, sizes):
    cfg, q, init, seed = DIGITS_HINGE
    train, test = make_binary_task(digits, *pair, seed=seed,
                                   normalize=True)
    assert (train.m, test.m) == sizes
    shape = NetworkShape(d=64, q=q)
    theta0 = init_params(shape, init, seed=seed)
    started = time.perf_counter()
    rep = glpa_fit(train.inputs, train.targets, shape, LossKind.HINGE,
                   cfg, theta0)
    elapsed = time.perf_counter() - started
    assert classification_errors(rep.theta_star, shape, train) == 0
    assert classification_errors(rep.theta_star, shape, test) <= 2
    assert elapsed <= 60.0


def test_criterion_4_optimizer_comparison(digits):
    cfg, q, init, seed = OPTIMIZER_COMPARISON
    train, _ = make_binary_task(digits, 0, 1, seed=seed, normalize=True)
    shape = NetworkShape(d=64, q=q)
    theta0 = init_params(shape, init, seed=seed)
    rep = glpa_fit(train.inputs, train.targets, shape, LossKind.HINGE,
                   cfg, theta0)
    assert len(rep.trace) <= 100
    bases = baseline_fit(train.inputs, train.targets, shape, LossKind.HINGE,
                         theta0, lr=1e-3, momentum=0.9, iters=1000)
    for name, base in zip(BASELINES, bases):
        if base.final_objective == 0.0:
            # The hinge loss is never negative, so a baseline that reached
            # exactly 0.0 (RMSProp does on this separable pair) can be
            # matched but not beaten: GLPA must reach the minimum too.
            assert rep.final_objective <= base.final_objective, name
        else:
            assert rep.final_objective < base.final_objective, name


def test_criterion_5_noise_recipe(franke):
    noisy, _ = make_franke_datasets(noise_sigma=100.0, seed=0)
    samples = noisy.targets - franke[0].targets
    assert samples.size == 289
    bound = 1.0 / (np.sqrt(2 * np.pi) * 100.0)
    assert bound == pytest.approx(3.9894e-3, abs=1e-7)
    assert np.all(samples >= 0.0)
    assert np.all(samples <= bound)
    assert 1.7e-3 <= samples.mean() <= 2.3e-3


def test_criterion_6a_jacobian_finite_differences():
    rng = np.random.default_rng(60)
    for _ in range(100):
        shape, theta, X, y, labels = random_instance(rng)
        loss = [LossKind.QUADRATIC, LossKind.ABSOLUTE,
                LossKind.HINGE][int(rng.integers(3))]
        targets = labels if loss is LossKind.HINGE else y
        J = inner_eval(theta, shape, X, targets, loss).jacobian()
        fd = finite_diff_jacobian(theta, shape, X, targets, loss)
        assert np.linalg.norm(J - fd) <= 1e-5 * (1 + np.linalg.norm(fd))


def test_criterion_6b_prox_golden_section():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        a = float(rng.uniform(-5, 5))
        kappa = float(rng.uniform(1e-3, 5.0))
        loss = LossKind.ABSOLUTE if rng.uniform() < 0.5 else LossKind.HINGE
        assert abs(prox(a, kappa, loss)
                   - golden_section_prox(a, kappa, loss)) <= 1e-8


def test_criterion_6c_lm_step_kkt():
    rng = np.random.default_rng(62)
    for _ in range(100):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 31))
        ev = DenseEval(F=rng.normal(size=m), J=rng.normal(size=(m, n)))
        t = float(rng.uniform(0.1, 1e4))
        d, _ = lm_step(ev, t)
        B = (2 / m) * ev.J.T @ ev.J + np.eye(n) / t
        g = (2 / m) * ev.J.T @ ev.F
        assert np.linalg.norm(B @ d + g) <= 1e-10 * (1 + np.linalg.norm(g))


def test_criterion_6d_admm_vs_random_search():
    rng = np.random.default_rng(63)
    for _ in range(100):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(1, 11))
        loss = LossKind.ABSOLUTE if rng.uniform() < 0.5 else LossKind.HINGE
        ev = DenseEval(F=rng.normal(size=m), J=rng.normal(size=(m, n)))
        t = float(rng.uniform(1.0, 100.0))
        d, _ = admm_solve(ev, t, loss,
                          AdmmConfig(rho=0.5, eps=1e-6, max_iters=20000))
        val = subproblem_model_value(ev, d, t, loss)
        cand = rng.normal(size=(n, 200_000)) * rng.uniform(0.05, 3.0,
                                                           size=200_000)
        Z = ev.F[:, None] + ev.J @ cand
        best = (scalar_loss(Z, loss).mean(axis=0)
                + (cand * cand).sum(axis=0) / (2 * t)).min()
        assert val <= best + 1e-4


def test_criterion_6e_glpa_accepted_step_descent():
    rng = np.random.default_rng(64)
    for loss in (LossKind.QUADRATIC, LossKind.ABSOLUTE):
        shape = NetworkShape(d=2, q=4)
        X = rng.uniform(0, 1, (12, 2))
        y = rng.normal(size=12) * 0.4
        cfg = SolverConfig(t=1e3, max_outer=40,
                           admm=AdmmConfig(rho=0.5, eps=1e-6, max_iters=500))
        rep = glpa_fit(X, y, shape, loss, cfg, rng.uniform(-0.5, 0.5, shape.n))
        objs = [r.objective for r in rep.trace] + [rep.final_objective]
        for i, rec in enumerate(rep.trace):
            if rec.accepted:
                assert objs[i + 1] <= objs[i] + 1e-12


def test_criterion_6f_adaptive_network_size():
    assert adaptive_network_size(289, 2) == 72
    assert adaptive_network_size(252, 64) == 4


def test_criterion_6g_bitwise_deterministic_reruns():
    train, _ = make_franke_datasets(n_train=40, n_test=10)
    shape = NetworkShape(d=2, q=6)
    theta0 = init_params(shape, "uniform", seed=5)
    cfg = SolverConfig(t=1e4, max_outer=20)
    a = lpa_fit(train.inputs, train.targets, shape, LossKind.QUADRATIC,
                cfg, theta0)
    b = lpa_fit(train.inputs, train.targets, shape, LossKind.QUADRATIC,
                cfg, theta0)
    assert np.array_equal(a.theta_star, b.theta_star)
    assert a.final_objective == b.final_objective
    assert [(r.k, r.objective, r.step_norm, r.eta) for r in a.trace] == \
           [(r.k, r.objective, r.step_norm, r.eta) for r in b.trace]
