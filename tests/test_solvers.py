import dataclasses

import numpy as np
import pytest

from signet.data import make_franke_datasets
from signet.losses import LossKind, outer_value
import signet.model as model_mod
import signet.solvers as solvers_mod
from signet.model import NetworkShape, init_params, inner_eval, predict
from signet.solvers import (SolverConfig, backtrack, baseline_fit, glpa_fit,
                            lpa_fit)
from signet.subsolvers import AdmmConfig, subproblem_model_value

from conftest import pack_params


def _one_point_problem():
    # single sample, single neuron: interpolation is achievable
    shape = NetworkShape(d=1, q=1)
    X = np.array([[0.0]])
    y = np.array([0.75])
    return shape, X, y


def _count_jacobians(monkeypatch):
    builds = {"n": 0}
    real = model_mod._jacobian

    def counting(*args, **kwargs):
        builds["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(model_mod, "_jacobian", counting)
    return builds


class TestLpa:
    def test_fixed_point_when_already_interpolating(self):
        shape, X, _ = _one_point_problem()
        # f(0) = 2*sigmoid(0) - 0.25 = 0.75 exactly
        theta = pack_params([2.0], [[1.0]], [0.0], -0.25)
        rep = lpa_fit(X, np.array([0.75]), shape, LossKind.QUADRATIC,
                      SolverConfig(t=10.0), theta)
        assert rep.stop_reason == "step_tol"
        assert len(rep.trace) == 1
        assert rep.trace[0].step_norm < 1e-10
        assert np.array_equal(rep.theta_star, theta)

    def test_one_point_interpolation(self, rng):
        shape, X, y = _one_point_problem()
        theta0 = rng.uniform(-0.5, 0.5, shape.n)
        rep = lpa_fit(X, y, shape, LossKind.QUADRATIC,
                      SolverConfig(t=10.0, max_outer=200, step_tol=1e-6), theta0)
        assert abs(predict(rep.theta_star, shape, X)[0] - 0.75) <= 1e-3

    def test_trace_and_report_consistency(self, rng):
        shape, X, y = _one_point_problem()
        rep = lpa_fit(X, y, shape, LossKind.QUADRATIC,
                      SolverConfig(t=10.0, max_outer=50), rng.uniform(-0.5, 0.5, shape.n))
        assert rep.trace
        ev = inner_eval(rep.theta_star, shape, X, y, LossKind.QUADRATIC)
        assert rep.final_objective == pytest.approx(outer_value(ev.F, LossKind.QUADRATIC))
        if rep.stop_reason == "step_tol":
            assert rep.trace[-1].step_norm < 1e-2 or rep.trace[-1].step_norm < 1e-6

    def test_last_step_below_step_tol_is_taken(self, rng):
        shape, X, y = _one_point_problem()
        theta0 = rng.uniform(-0.5, 0.5, shape.n)
        rep = lpa_fit(X, y, shape, LossKind.QUADRATIC,
                      SolverConfig(t=10.0, step_tol=1e3), theta0)
        assert rep.stop_reason == "step_tol"
        assert len(rep.trace) == 1
        from signet.subsolvers import lm_step
        d = lm_step(inner_eval(theta0, shape, X, y, LossKind.QUADRATIC, jacobian=True),
                    10.0)
        assert np.array_equal(rep.theta_star, theta0 + d)

    def test_admm_never_used_for_quadratic(self, rng, monkeypatch):
        called = {"n": 0}

        def boom(*args, **kwargs):
            called["n"] += 1
            raise AssertionError("admm_solve must not run for quadratic loss")

        monkeypatch.setattr(solvers_mod, "admm_solve", boom)
        shape, X, y = _one_point_problem()
        lpa_fit(X, y, shape, LossKind.QUADRATIC, SolverConfig(t=10.0, max_outer=5),
                rng.uniform(-0.5, 0.5, shape.n))
        assert called["n"] == 0

    def test_model_decrease_on_lm_path(self, rng):
        shape, X, y = _one_point_problem()
        theta = rng.uniform(-0.5, 0.5, shape.n)
        from signet.subsolvers import lm_step
        ev = inner_eval(theta, shape, X, y, LossKind.QUADRATIC, jacobian=True)
        d = lm_step(ev, 10.0)
        assert subproblem_model_value(ev, d, 10.0, LossKind.QUADRATIC) \
            <= outer_value(ev.F, LossKind.QUADRATIC) + 1e-15


class TestBacktrack:
    def _setup(self, rng):
        shape = NetworkShape(d=2, q=3)
        X = rng.uniform(0, 1, (8, 2))
        y = rng.normal(size=8)
        theta = rng.uniform(-0.5, 0.5, shape.n)
        ev = inner_eval(theta, shape, X, y, LossKind.QUADRATIC, jacobian=True)
        return shape, X, y, theta, ev

    def test_full_step_accepted_when_rule_holds(self, rng):
        shape, X, y, theta, ev = self._setup(rng)
        from signet.subsolvers import lm_step
        cfg = SolverConfig(t=1.0)
        d = lm_step(ev, cfg.t)
        eta, evals, accepted = backtrack(theta, d, ev, LossKind.QUADRATIC, cfg,
                                         shape, X, y)
        # small t makes the step conservative, the unit step passes the rule
        assert accepted and eta == 1.0 and evals == 1

    def test_geometric_schedule(self, rng):
        shape, X, y, theta, ev = self._setup(rng)
        cfg = SolverConfig(t=1.0)
        # a deliberately bad huge direction forces shrinking
        d = np.ones(shape.n) * 50.0
        eta, evals, accepted = backtrack(theta, d, ev, LossKind.QUADRATIC, cfg,
                                         shape, X, y)
        assert eta == pytest.approx(solvers_mod.TAU ** (evals - 1))

    def test_non_finite_trial_shrinks_step(self, rng, monkeypatch):
        shape, X, y, theta, ev = self._setup(rng)
        from signet.subsolvers import lm_step
        cfg = SolverConfig(t=1.0)
        d = lm_step(ev, cfg.t)
        calls = {"n": 0}

        def first_trial_non_finite(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise FloatingPointError("non-finite entries in residual evaluation")
            return inner_eval(*args, **kwargs)

        monkeypatch.setattr(solvers_mod, "inner_eval", first_trial_non_finite)
        # the unit step would pass (test_full_step_accepted_when_rule_holds)
        assert backtrack(theta, d, ev, LossKind.QUADRATIC, cfg, shape, X, y) == \
            (solvers_mod.TAU, 2, True)

    def test_all_trials_non_finite(self, rng):
        shape, X, y, theta, ev = self._setup(rng)
        cfg = SolverConfig(t=1.0)
        d = np.full(shape.n, 1e308)
        assert backtrack(theta, d, ev, LossKind.QUADRATIC, cfg, shape, X, y) == \
            (0.0, solvers_mod.MAX_BACKTRACKS, False)

    def test_accepted_steps_descend(self, rng):
        shape = NetworkShape(d=1, q=2)
        X = rng.uniform(0, 1, (5, 1))
        y = rng.normal(size=5)
        cfg = SolverConfig(t=100.0, max_outer=30)
        rep = glpa_fit(X, y, shape, LossKind.QUADRATIC, cfg,
                       rng.uniform(-0.5, 0.5, shape.n))
        objs = [r.objective for r in rep.trace]
        for prev, cur, rec in zip(objs, objs[1:], rep.trace[:-1]):
            if rec.accepted:
                assert cur <= prev + 1e-12


class TestGlpa:
    def test_same_fixed_point_as_lpa(self):
        shape, X, _ = _one_point_problem()
        theta = pack_params([2.0], [[1.0]], [0.0], -0.25)
        rep_l = lpa_fit(X, np.array([0.75]), shape, LossKind.QUADRATIC,
                        SolverConfig(t=10.0), theta)
        rep_g = glpa_fit(X, np.array([0.75]), shape, LossKind.QUADRATIC,
                         SolverConfig(t=10.0), theta)
        assert len(rep_l.trace) == len(rep_g.trace) == 1
        assert rep_l.trace[0].step_norm == rep_g.trace[0].step_norm

    def test_absolute_loss_descends(self, rng):
        shape = NetworkShape(d=1, q=3)
        X = rng.uniform(0, 1, (6, 1))
        y = rng.normal(size=6) * 0.3
        cfg = SolverConfig(t=1e3, max_outer=50,
                           admm=AdmmConfig(rho=0.5, eps=1e-6, max_iters=500))
        rep = glpa_fit(X, y, shape, LossKind.ABSOLUTE, cfg,
                       rng.uniform(-0.5, 0.5, shape.n))
        objs = [r.objective for r in rep.trace] + [rep.final_objective]
        accepted = [r.accepted for r in rep.trace]
        for i in range(len(objs) - 1):
            if accepted[i]:
                assert objs[i + 1] <= objs[i] + 1e-12

    @pytest.mark.parametrize("accepted", [True, False])
    def test_last_step_taken_only_if_accepted(self, rng, monkeypatch, accepted):
        monkeypatch.setattr(solvers_mod, "backtrack",
                            lambda *args, **kwargs: (0.5, 2, accepted))
        shape, X, y = _one_point_problem()
        theta0 = rng.uniform(-0.5, 0.5, shape.n)
        rep = glpa_fit(X, y, shape, LossKind.QUADRATIC,
                       SolverConfig(t=10.0, step_tol=1e3), theta0)
        assert rep.stop_reason == "step_tol"
        assert rep.trace[-1].accepted is accepted
        from signet.subsolvers import lm_step
        d = lm_step(inner_eval(theta0, shape, X, y, LossKind.QUADRATIC, jacobian=True),
                    10.0)
        expected = theta0 + 0.5 * d if accepted else theta0
        assert np.array_equal(rep.theta_star, expected)

    def test_non_finite_step_is_never_taken(self, rng, monkeypatch):
        # the squared residual overflows at every trial point, down to the
        # smallest step 1e308 / 2**9
        monkeypatch.setattr(solvers_mod, "lm_step",
                            lambda ev, t: np.full(ev.J.shape[1], 1e308))
        shape, X, y = _one_point_problem()
        theta0 = rng.uniform(-0.5, 0.5, shape.n)
        rep = glpa_fit(X, y, shape, LossKind.QUADRATIC, SolverConfig(t=10.0), theta0)
        assert rep.stop_reason == "line_search_failed"
        assert len(rep.trace) == 1
        assert rep.trace[0].eta == 0.0 and not rep.trace[0].accepted
        assert np.array_equal(rep.theta_star, theta0)
        assert rep.final_objective == rep.trace[0].objective

    @pytest.mark.parametrize("fit,loss", [(lpa_fit, LossKind.QUADRATIC),
                                          (glpa_fit, LossKind.QUADRATIC),
                                          (glpa_fit, LossKind.HINGE)])
    def test_one_jacobian_per_outer_iteration(self, rng, monkeypatch, fit, loss):
        builds = _count_jacobians(monkeypatch)
        shape = NetworkShape(d=2, q=3)
        X = rng.uniform(0, 1, (10, 2))
        y = rng.choice([-1.0, 1.0], size=10) if loss is LossKind.HINGE \
            else rng.normal(size=10)
        rep = fit(X, y, shape, loss, SolverConfig(t=100.0, max_outer=15),
                  rng.uniform(-0.5, 0.5, shape.n))
        assert builds["n"] == len(rep.trace) > 1

    def test_deterministic_reruns(self, rng):
        shape = NetworkShape(d=1, q=2)
        X = rng.uniform(0, 1, (5, 1))
        y = rng.normal(size=5)
        theta0 = init_params(shape, "uniform", seed=99)
        cfg = SolverConfig(t=100.0, max_outer=20)
        a = glpa_fit(X, y, shape, LossKind.QUADRATIC, cfg, theta0)
        b = glpa_fit(X, y, shape, LossKind.QUADRATIC, cfg, theta0)
        assert np.array_equal(a.theta_star, b.theta_star)
        assert [(r.k, r.objective, r.step_norm, r.eta) for r in a.trace] == \
               [(r.k, r.objective, r.step_norm, r.eta) for r in b.trace]

    @pytest.mark.parametrize("build", [
        lambda: SolverConfig(t=float("nan")),
        lambda: SolverConfig(step_tol=float("nan")),
        lambda: AdmmConfig(rho=float("nan")),
        lambda: AdmmConfig(eps=float("nan")),
    ], ids=["t", "step_tol", "rho", "eps"])
    def test_nan_config_rejected(self, build):
        # NaN fails every comparison, so a `t <= 0` check would let it through
        with pytest.raises(ValueError):
            build()

    def test_invalid_config_rejected(self):
        # a config is checked once, when built, and cannot be changed after
        with pytest.raises(ValueError):
            SolverConfig(t=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(max_outer=0)
        with pytest.raises(ValueError):
            AdmmConfig(rho=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverConfig().t = -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverConfig().admm.rho = 0.0


class TestBaselines:
    def test_plain_gradient_descent_descends(self, rng):
        # momentum 0 turns SGDM into gradient descent; quadratic loss on a
        # tiny problem with a conservative rate decreases monotonically
        shape = NetworkShape(d=1, q=2)
        X = rng.uniform(0, 1, (6, 1))
        y = rng.normal(size=6) * 0.2
        theta0 = rng.uniform(-0.5, 0.5, shape.n)
        # numeric curvature estimate along the path sets a safe rate
        ev = inner_eval(theta0, shape, X, y, LossKind.QUADRATIC, jacobian=True)
        lipschitz = 2.0 / ev.m * np.linalg.norm(ev.J, 2) ** 2 * 4
        rep = baseline_fit(X, y, shape, LossKind.QUADRATIC, "sgdm", theta0,
                           lr=min(1e-1, 1.0 / lipschitz), momentum=0.0, iters=200)
        objs = [r.objective for r in rep.trace] + [rep.final_objective]
        assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))

    def test_hinge_stationary_when_margins_large(self, rng):
        shape = NetworkShape(d=1, q=1)
        # f(x) = 8*sigmoid(x) - 2 is > 1 on x >= 1
        theta = pack_params([8.0], [[1.0]], [0.0], -2.0)
        X = np.array([[1.5], [2.0], [3.0]])
        y = np.ones(3)
        rep = baseline_fit(X, y, shape, LossKind.HINGE, "adam", theta, iters=5)
        assert np.array_equal(rep.theta_star, theta)
        assert rep.final_objective == 0.0

    @pytest.mark.parametrize("name", ["sgdm", "rmsprop", "adam"])
    def test_all_optimizers_run_and_record(self, rng, name):
        shape = NetworkShape(d=2, q=2)
        X = rng.uniform(0, 1, (10, 2))
        y = rng.normal(size=10)
        rep = baseline_fit(X, y, shape, LossKind.QUADRATIC, name,
                           rng.uniform(-0.5, 0.5, shape.n), iters=50)
        assert len(rep.trace) == 50
        assert np.all(np.isfinite(rep.theta_star))

    @pytest.mark.parametrize("name", ["sgdm", "rmsprop", "adam"])
    def test_no_jacobian_built(self, rng, monkeypatch, name):
        builds = _count_jacobians(monkeypatch)
        shape = NetworkShape(d=2, q=2)
        X = rng.uniform(0, 1, (10, 2))
        rep = baseline_fit(X, rng.choice([-1.0, 1.0], size=10), shape,
                           LossKind.HINGE, name, rng.uniform(-0.5, 0.5, shape.n),
                           iters=20)
        assert len(rep.trace) == 20
        assert builds["n"] == 0

    def test_invalid_hyperparameters(self, rng):
        shape, X, y = _one_point_problem()
        with pytest.raises(ValueError):
            baseline_fit(X, y, shape, LossKind.QUADRATIC, "adam",
                         np.zeros(shape.n), lr=0.0)
        with pytest.raises(ValueError):
            baseline_fit(X, y, shape, LossKind.QUADRATIC, "adam",
                         np.zeros(shape.n), lr=float("nan"))
        with pytest.raises(ValueError, match="momentum=nan"):
            baseline_fit(X, y, shape, LossKind.QUADRATIC, "sgdm",
                         np.zeros(shape.n), momentum=float("nan"))
        with pytest.raises(ValueError):
            baseline_fit(X, y, shape, LossKind.QUADRATIC, "newton",
                         np.zeros(shape.n))
