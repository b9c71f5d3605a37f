import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet.data import load_digits_csv, make_binary_task, make_franke_datasets
from signet.losses import LossKind, outer_value
import signet.model as model_mod
import signet.solvers as solvers_mod
from signet.model import NetworkShape, init_params, inner_eval, predict
from signet.solvers import (BASELINES, SolverConfig, backtrack, baseline_fit,
                            glpa_fit, lpa_fit)
from signet.subsolvers import AdmmConfig, StepInfo

from conftest import (pack_params, planted_instance, reference_baseline,
                      subproblem_model_value)


def _one_point_problem():
    # single sample, single neuron: interpolation is achievable
    shape = NetworkShape(d=1, q=1)
    X = np.array([[0.0]])
    y = np.array([0.75])
    return shape, X, y


def _count_calls(monkeypatch, name, *hosts):
    """Count calls of model_mod.<name>, wherever in `hosts` it is bound."""
    calls = {"n": 0}
    real = getattr(model_mod, name)

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    for host in (model_mod, *hosts):
        monkeypatch.setattr(host, name, counting)
    return calls


def _count_jacobians(monkeypatch):
    """Count calls of ResidualEval.jacobian."""
    calls = {"n": 0}
    real = model_mod.ResidualEval.jacobian

    def counting(ev):
        calls["n"] += 1
        return real(ev)

    monkeypatch.setattr(model_mod.ResidualEval, "jacobian", counting)
    return calls


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
        # LPA and GLPA on every loss: the final objective is, bitwise, that
        # of the final iterate
        shape, X, _ = _one_point_problem()
        for fit in (lpa_fit, glpa_fit):
            for loss in LossKind:
                y = np.array([1.0 if loss is LossKind.HINGE else 0.75])
                rep = fit(X, y, shape, loss, SolverConfig(t=10.0, max_outer=50),
                          rng.uniform(-0.5, 0.5, shape.n))
                assert rep.trace
                ev = inner_eval(rep.theta_star, shape, X, y, loss)
                assert rep.final_objective == outer_value(ev.F, loss)
                if rep.stop_reason == "step_tol":
                    assert rep.trace[-1].step_norm < 1e-2

    def test_last_step_below_step_tol_is_taken(self, rng):
        shape, X, y = _one_point_problem()
        theta0 = rng.uniform(-0.5, 0.5, shape.n)
        rep = lpa_fit(X, y, shape, LossKind.QUADRATIC,
                      SolverConfig(t=10.0, step_tol=1e3), theta0)
        assert rep.stop_reason == "step_tol"
        assert len(rep.trace) == 1
        from signet.subsolvers import lm_step
        d, _ = lm_step(inner_eval(theta0, shape, X, y, LossKind.QUADRATIC), 10.0)
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
        ev = inner_eval(theta, shape, X, y, LossKind.QUADRATIC)
        d, _ = lm_step(ev, 10.0)
        assert subproblem_model_value(ev, d, 10.0, LossKind.QUADRATIC) \
            <= outer_value(ev.F, LossKind.QUADRATIC) + 1e-15


class TestBacktrack:
    def _setup(self, rng):
        shape = NetworkShape(d=2, q=3)
        X = rng.uniform(0, 1, (8, 2))
        y = rng.normal(size=8)
        theta = rng.uniform(-0.5, 0.5, shape.n)
        # the fit's evaluator, as _fit binds it
        evaluate = model_mod.evaluator(shape, X, y, LossKind.QUADRATIC,
                                       model_mod._input_gram(X))
        return shape, X, y, theta, evaluate(theta), evaluate

    @staticmethod
    def _obj_predicted(ev, d, t):
        # the objective, and the oracle's model value at d less it; an
        # overflowing d gives a non-finite value here, not a warning
        obj = outer_value(ev.F, LossKind.QUADRATIC)
        with np.errstate(over="ignore", invalid="ignore"):
            return obj, subproblem_model_value(ev, d, t, LossKind.QUADRATIC) - obj

    def test_full_step_accepted_when_rule_holds(self, rng):
        shape, X, y, theta, ev, evaluate = self._setup(rng)
        from signet.subsolvers import lm_step
        d, info = lm_step(ev, 1.0)
        obj = outer_value(ev.F, LossKind.QUADRATIC)
        eta, evals, trial_ev = backtrack(evaluate, LossKind.QUADRATIC, theta, d, obj,
                                         info.model_value - obj)
        # small t makes the step conservative, the unit step passes the rule
        assert trial_ev is not None and eta == 1.0 and evals == 1
        assert np.array_equal(trial_ev.F,
                              inner_eval(theta + d, shape, X, y, LossKind.QUADRATIC).F)

    def test_geometric_schedule(self, rng):
        shape, X, y, theta, ev, evaluate = self._setup(rng)
        # a deliberately bad huge direction forces shrinking
        d = np.ones(shape.n) * 50.0
        eta, evals, _ = backtrack(evaluate, LossKind.QUADRATIC, theta, d,
                                  *self._obj_predicted(ev, d, 1.0))
        assert eta == pytest.approx(solvers_mod.TAU ** (evals - 1))

    def test_non_finite_trial_shrinks_step(self, rng):
        shape, X, y, theta, ev, evaluate = self._setup(rng)
        from signet.subsolvers import lm_step
        d, info = lm_step(ev, 1.0)
        obj = outer_value(ev.F, LossKind.QUADRATIC)
        calls = {"n": 0}

        def first_trial_non_finite(theta_trial):
            calls["n"] += 1
            if calls["n"] == 1:
                raise FloatingPointError("non-finite entries in residual evaluation")
            return evaluate(theta_trial)

        # the unit step would pass (test_full_step_accepted_when_rule_holds)
        eta, evals, trial_ev = backtrack(first_trial_non_finite, LossKind.QUADRATIC,
                                         theta, d, obj, info.model_value - obj)
        assert (eta, evals) == (solvers_mod.TAU, 2)
        # the accepted trial's evaluation is returned, bitwise the one at
        # theta + eta*d, with the caller's input Gram
        fresh = inner_eval(theta + eta * d, shape, X, y, LossKind.QUADRATIC)
        assert np.array_equal(trial_ev.F, fresh.F)
        assert trial_ev.input_gram is ev.input_gram

    def test_all_trials_non_finite(self, rng):
        shape, X, y, theta, ev, evaluate = self._setup(rng)
        d = np.full(shape.n, 1e308)
        # rejected: the last trial's eta, which the fit does not take, and
        # no evaluation
        assert backtrack(evaluate, LossKind.QUADRATIC, theta, d,
                         *self._obj_predicted(ev, d, 1.0)) == \
            (solvers_mod.TAU ** (solvers_mod.MAX_BACKTRACKS - 1),
             solvers_mod.MAX_BACKTRACKS, None)

    def test_accepted_steps_descend(self, rng):
        shape = NetworkShape(d=1, q=2)
        X = rng.uniform(0, 1, (5, 1))
        y = rng.normal(size=5)
        cfg = SolverConfig(t=100.0, max_outer=30)
        rep = glpa_fit(X, y, shape, LossKind.QUADRATIC, cfg,
                       rng.uniform(-0.5, 0.5, shape.n))
        objs = [r.objective for r in rep.trace] + [rep.final_objective]
        assert all(b <= a for a, b in zip(objs, objs[1:]))


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
        assert all(b <= a for a, b in zip(objs, objs[1:]))

    @pytest.mark.parametrize("accepted", [True, False])
    def test_last_step_taken_only_if_accepted(self, rng, monkeypatch, accepted):
        def half_step(evaluate, loss, theta, d, obj, predicted):
            trial_ev = evaluate(theta + 0.5 * d)
            return 0.5, 2, trial_ev if accepted else None

        monkeypatch.setattr(solvers_mod, "backtrack", half_step)
        shape, X, y = _one_point_problem()
        theta0 = rng.uniform(-0.5, 0.5, shape.n)
        rep = glpa_fit(X, y, shape, LossKind.QUADRATIC,
                       SolverConfig(t=10.0, step_tol=1e3), theta0)
        assert rep.stop_reason == "step_tol"
        assert rep.trace[-1].accepted is accepted
        from signet.subsolvers import lm_step
        d, _ = lm_step(inner_eval(theta0, shape, X, y, LossKind.QUADRATIC), 10.0)
        expected = theta0 + 0.5 * d if accepted else theta0
        assert np.array_equal(rep.theta_star, expected)
        assert rep.final_objective == outer_value(
            inner_eval(expected, shape, X, y, LossKind.QUADRATIC).F, LossKind.QUADRATIC)

    def test_non_finite_step_is_never_taken(self, rng, monkeypatch):
        # the squared residual overflows at every trial point, down to the
        # smallest step 1e308 / 2**9
        shape, X, y = _one_point_problem()

        def huge_step(ev, t):
            d = np.full(shape.n, 1e308)
            with np.errstate(over="ignore", invalid="ignore"):
                return d, StepInfo(subproblem_model_value(ev, d, t, LossKind.QUADRATIC))

        monkeypatch.setattr(solvers_mod, "lm_step", huge_step)
        theta0 = rng.uniform(-0.5, 0.5, shape.n)
        rep = glpa_fit(X, y, shape, LossKind.QUADRATIC, SolverConfig(t=10.0), theta0)
        assert rep.stop_reason == "line_search_failed"
        assert len(rep.trace) == 1
        assert not rep.trace[0].accepted
        assert rep.trace[0].eta == solvers_mod.TAU ** (solvers_mod.MAX_BACKTRACKS - 1)
        assert np.array_equal(rep.theta_star, theta0)
        assert rep.final_objective == rep.trace[0].objective

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fit", [lpa_fit, glpa_fit])
    def test_overflowing_objective_raises_the_fits_error(self, fit):
        # finite residuals near 1e160 whose squares overflow: the fit's own
        # FloatingPointError, not numpy's overflow warning
        train, _ = make_franke_datasets()
        shape = NetworkShape(d=2, q=4)
        with pytest.raises(FloatingPointError, match="non-finite objective"):
            fit(train.inputs, train.targets * 1e160, shape, LossKind.QUADRATIC,
                SolverConfig(max_outer=3), init_params(shape, "uniform", 0))

    @pytest.mark.parametrize("fit,loss", [(lpa_fit, LossKind.QUADRATIC),
                                          (glpa_fit, LossKind.QUADRATIC),
                                          (glpa_fit, LossKind.HINGE)])
    def test_fit_builds_no_jacobian(self, rng, monkeypatch, fit, loss):
        # the subproblems use J J^T and J^T z from the hidden-layer pass,
        # with the inputs' Gram formed once per fit
        builds = _count_jacobians(monkeypatch)
        grams = _count_calls(monkeypatch, "_input_gram", solvers_mod)
        shape = NetworkShape(d=2, q=3)
        X = rng.uniform(0, 1, (10, 2))
        y = rng.choice([-1.0, 1.0], size=10) if loss is LossKind.HINGE \
            else rng.normal(size=10)
        rep = fit(X, y, shape, loss, SolverConfig(t=100.0, max_outer=15),
                  rng.uniform(-0.5, 0.5, shape.n))
        assert len(rep.trace) > 1
        assert builds["n"] == 0
        assert grams["n"] == 1

    @pytest.mark.parametrize("fit,loss", [(lpa_fit, LossKind.QUADRATIC),
                                          (glpa_fit, LossKind.QUADRATIC),
                                          (glpa_fit, LossKind.ABSOLUTE),
                                          (glpa_fit, LossKind.HINGE)])
    def test_each_point_evaluated_once(self, rng, monkeypatch, fit, loss):
        # GLPA's accepted trial is the next iterate's evaluation, and LPA
        # evaluates each point after its step: one evaluation per point
        points, grams, trials = [], [], []
        real_evaluator, real_backtrack = solvers_mod.evaluator, solvers_mod.backtrack

        def recording_evaluator(*args, **kwargs):
            evaluate = real_evaluator(*args, **kwargs)

            def recording_eval(theta):
                points.append(theta)
                ev = evaluate(theta)
                grams.append(ev.input_gram)
                return ev
            return recording_eval

        def recording_backtrack(*args, **kwargs):
            result = real_backtrack(*args, **kwargs)
            trials.append(result[1])
            return result

        monkeypatch.setattr(solvers_mod, "evaluator", recording_evaluator)
        monkeypatch.setattr(solvers_mod, "backtrack", recording_backtrack)
        shape = NetworkShape(d=2, q=3)
        X = rng.uniform(0, 1, (10, 2))
        y = rng.choice([-1.0, 1.0], size=10) if loss is LossKind.HINGE \
            else rng.normal(size=10)
        rep = fit(X, y, shape, loss, SolverConfig(t=100.0, max_outer=15),
                  rng.uniform(-0.5, 0.5, shape.n))
        assert len(rep.trace) > 1
        assert len(points) == 1 + (sum(trials) if fit is glpa_fit else len(rep.trace))
        # every evaluation, trials included, carries the fit's one input Gram
        assert grams[0] is not None and all(g is grams[0] for g in grams)

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

    @pytest.mark.parametrize("build", [
        lambda: SolverConfig(t=float("inf")),
        lambda: SolverConfig(step_tol=float("inf")),
        lambda: AdmmConfig(rho=float("inf")),
        lambda: AdmmConfig(eps=float("inf")),
    ], ids=["t", "step_tol", "rho", "eps"])
    def test_infinite_config_rejected(self, build):
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


@given(m=st.integers(1, 8), d=st.integers(1, 3), q=st.integers(1, 4),
       loss=st.sampled_from(list(LossKind)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_glpa_takes_only_accepted_steps(m, d, q, loss, seed):
    # default t and ADMM settings, so the ADMM steps are capped, inexact solves
    rng = np.random.default_rng(seed)
    shape = NetworkShape(d=d, q=q)
    X = rng.uniform(-1.0, 1.0, (m, d))
    y = rng.choice([-1.0, 1.0], size=m) if loss is LossKind.HINGE \
        else rng.normal(size=m)
    cfg = SolverConfig(max_outer=30)
    rep = glpa_fit(X, y, shape, loss, cfg, rng.uniform(-2.0, 2.0, shape.n))
    *taken, last = rep.trace
    assert all(rec.accepted for rec in taken)
    assert (rep.stop_reason == "line_search_failed") == \
        (not last.accepted and last.step_norm >= cfg.step_tol)
    if not last.accepted:
        assert rep.final_objective == last.objective
    if loss is LossKind.QUADRATIC:
        # the LM step solves its subproblem exactly, so the model predicts a
        # decrease and an accepted step gives one
        objs = [rec.objective for rec in rep.trace] + [rep.final_objective]
        assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_local_rate_on_planted_regular_instance():
    # The convergence theorem's setting: a zero-residual minimum, weak sharp
    # for the absolute loss, with J of full row rank there (Burke & Ferris
    # 1995 prove a quadratic local rate for it). At t = 1e11 the proximal
    # term all but vanishes and E falls superlinearly down to rounding; at
    # the acceptance suite's t = 1e5 the tail is linear. Measured ratios
    # E_{k+1}/E_k and objectives, with the bounds asserted here:
    # - t = 1e11, LPA, quadratic: 4.9e-7 and 2.4e-9 for k = 5, 6, and
    #   E_7 = 6.9e-26. Bounds: two consecutive ratios <= 1e-4, some E_k
    #   with k < 10 below 1e-20.
    # - t = 1e11, GLPA, absolute: 1.4e-3, 2.4e-3 and 5.3e-4 for k = 5..7,
    #   and E_8 = 3.9e-15. Bounds: three consecutive ratios <= 1e-2, some
    #   E_k with k < 10 below 1e-12. (GLPA then stops with
    #   line_search_failed at the rounding floor, 5.3e-17; not asserted.)
    # - t = 1e5: every ratio from k = 2 on >= 0.54 (quadratic) and >= 0.40
    #   (absolute), and E_15 = 2.7e-9 and 1.3e-5. Bounds: ratios >= 0.25,
    #   E_15 >= 1e-10 and >= 1e-7.
    shape, X, y, theta_star, theta0 = planted_instance()
    J = inner_eval(theta_star, shape, X, y, LossKind.QUADRATIC).jacobian()
    assert np.linalg.matrix_rank(J) == X.shape[0]
    for fit, loss, window, fast, floor, linear_end in (
            (lpa_fit, LossKind.QUADRATIC, 2, 1e-4, 1e-20, 1e-10),
            (glpa_fit, LossKind.ABSOLUTE, 3, 1e-2, 1e-12, 1e-7)):
        objs = {}
        for t in (1e11, 1e5):
            cfg = SolverConfig(t=t, step_tol=0.0, max_outer=15,
                               admm=AdmmConfig(rho=1e-2, eps=1e-2, max_iters=20))
            rep = fit(X, y, shape, loss, cfg, theta0)
            objs[t] = np.array([r.objective for r in rep.trace]
                               + [rep.final_objective])
        ratios = {t: E[1:] / E[:-1] for t, E in objs.items()}
        windows = np.lib.stride_tricks.sliding_window_view(ratios[1e11], window)
        assert windows.max(axis=1).min() <= fast, loss
        assert objs[1e11][:10].min() <= floor, loss
        assert len(objs[1e5]) == 16 and ratios[1e5][2:].min() >= 0.25, loss
        assert objs[1e5][-1] >= linear_end, loss


def test_global_claim_on_planted_targets_at_twice_the_rule():
    # The paper's global claim from random starts: targets from a planted
    # network of the rule's size (q = 5), fitted by students of twice that
    # size (q = 10) from 15 starts. Measured: 15 of 15 GLPA absolute fits
    # and 14 of 15 LPA quadratic fits end below 1e-10 (the one miss ends at
    # 2.0e-4); at the rule's own q = 5 the same starts give 0 of 15 for
    # both. The bound allows two misses per loss. Solved absolute-loss fits
    # stop with line_search_failed at the rounding floor, so the objective
    # is asserted, not the stop reason.
    _, X, y, _, _ = planted_instance()
    student = NetworkShape(d=8, q=10)
    cfg = SolverConfig(t=1e5, step_tol=0.0, max_outer=200,
                       admm=AdmmConfig(rho=1e-2, eps=1e-2, max_iters=20))
    starts = ([init_params(student, "uniform", s) for s in range(1000, 1008)]
              + [init_params(student, "wide", s) for s in range(1000, 1007)])
    for fit, loss in ((glpa_fit, LossKind.ABSOLUTE), (lpa_fit, LossKind.QUADRATIC)):
        solved = sum(fit(X, y, student, loss, cfg, theta0).final_objective < 1e-10
                     for theta0 in starts)
        assert solved >= 13, (loss, solved)


class TestBaselines:
    def test_plain_gradient_descent_descends(self, rng):
        # momentum 0 turns SGDM into gradient descent; quadratic loss on a
        # tiny problem with a conservative rate decreases monotonically
        shape = NetworkShape(d=1, q=2)
        X = rng.uniform(0, 1, (6, 1))
        y = rng.normal(size=6) * 0.2
        theta0 = rng.uniform(-0.5, 0.5, shape.n)
        # numeric curvature estimate along the path sets a safe rate
        J = inner_eval(theta0, shape, X, y, LossKind.QUADRATIC).jacobian()
        lipschitz = 2.0 / J.shape[0] * np.linalg.norm(J, 2) ** 2 * 4
        rep, _, _ = baseline_fit(X, y, shape, LossKind.QUADRATIC, theta0,
                                 lr=min(1e-1, 1.0 / lipschitz), momentum=0.0,
                                 iters=200)
        objs = [r.objective for r in rep.trace] + [rep.final_objective]
        assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))

    def test_hinge_stationary_when_margins_large(self, rng):
        shape = NetworkShape(d=1, q=1)
        # f(x) = 8*sigmoid(x) - 2 is > 1 on x >= 1
        theta = pack_params([8.0], [[1.0]], [0.0], -2.0)
        X = np.array([[1.5], [2.0], [3.0]])
        y = np.ones(3)
        for rep in baseline_fit(X, y, shape, LossKind.HINGE, theta, iters=5):
            assert np.array_equal(rep.theta_star, theta)
            assert rep.final_objective == 0.0

    @pytest.mark.parametrize("name", ["sgdm", "rmsprop", "adam"])
    def test_all_optimizers_run_and_record(self, rng, name):
        shape = NetworkShape(d=2, q=2)
        X = rng.uniform(0, 1, (10, 2))
        y = rng.normal(size=10)
        rep = baseline_fit(X, y, shape, LossKind.QUADRATIC,
                           rng.uniform(-0.5, 0.5, shape.n),
                           iters=50)[BASELINES.index(name)]
        assert len(rep.trace) == 50
        assert np.all(np.isfinite(rep.theta_star))

    @pytest.mark.parametrize("name", ["sgdm", "rmsprop", "adam"])
    def test_no_jacobian_built(self, rng, monkeypatch, name):
        builds = _count_jacobians(monkeypatch)
        shape = NetworkShape(d=2, q=2)
        X = rng.uniform(0, 1, (10, 2))
        rep = baseline_fit(X, rng.choice([-1.0, 1.0], size=10), shape,
                           LossKind.HINGE, rng.uniform(-0.5, 0.5, shape.n),
                           iters=20)[BASELINES.index(name)]
        assert len(rep.trace) == 20
        assert builds["n"] == 0

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_lockstep_rows_equal_solo_runs(self, rng, loss):
        # one stacked evaluation serves all three, and each keeps its bits
        shape = NetworkShape(d=3, q=4)
        X = rng.uniform(0, 1, (15, 3))
        y = (rng.choice([-1.0, 1.0], size=15) if loss is LossKind.HINGE
             else rng.normal(size=15))
        theta0 = rng.uniform(-0.5, 0.5, shape.n)
        reports = baseline_fit(X, y, shape, loss, theta0, lr=1e-2, momentum=0.9,
                               iters=30)
        assert len(reports) == 3
        for name, rep in zip(BASELINES, reports):
            theta, rows, final = reference_baseline(name, X, y, shape, loss, theta0,
                                                    lr=1e-2, momentum=0.9, iters=30)
            assert np.array_equal(rep.theta_star, theta), name
            assert [(r.k, r.objective, r.step_norm) for r in rep.trace] == rows, name
            assert rep.final_objective == final, name
        assert not np.array_equal(reports[0].theta_star, reports[2].theta_star)
        # the rows of one iteration share one clock
        assert all(a.elapsed_s == b.elapsed_s == c.elapsed_s
                   for a, b, c in zip(*(rep.trace for rep in reports)))

    @pytest.mark.parametrize("task,loss,q,iters", [
        ("digits", LossKind.HINGE, 4, 50),
        ("franke", LossKind.QUADRATIC, 72, 20),
        ("franke", LossKind.ABSOLUTE, 72, 20),
    ], ids=["digits-0-1-hinge", "franke-quadratic", "franke-absolute"])
    def test_lockstep_rows_equal_solo_runs_at_benchmark_shapes(self, task, loss, q,
                                                               iters):
        # the shapes `signet compare` runs (pair 0-1: d = 64, m = 252;
        # Franke: d = 2, m = 289), where BLAS may take other paths than on
        # small problems; default lr and momentum
        if task == "digits":
            train, _ = make_binary_task(load_digits_csv(), 0, 1, seed=0,
                                        normalize=True)
        else:
            train, _ = make_franke_datasets()
        X, y = train.inputs, train.targets
        shape = NetworkShape(d=X.shape[1], q=q)
        theta0 = init_params(shape, "uniform", 0)
        reports = baseline_fit(X, y, shape, loss, theta0, iters=iters)
        for name, rep in zip(BASELINES, reports):
            theta, rows, final = reference_baseline(name, X, y, shape, loss, theta0,
                                                    lr=1e-3, momentum=0.9,
                                                    iters=iters)
            assert np.array_equal(rep.theta_star, theta), name
            assert [(r.k, r.objective, r.step_norm) for r in rep.trace] == rows, name
            assert rep.final_objective == final, name

    def test_overflowing_steps_give_infinite_step_norms(self):
        # at lr = 1e160 each step's squared norm overflows: the norm is inf,
        # with no RuntimeWarning, while the iterates stay finite
        train, _ = make_binary_task(load_digits_csv(), 0, 1, seed=0, normalize=True)
        shape = NetworkShape(d=64, q=4)
        reports = baseline_fit(train.inputs, train.targets, shape, LossKind.HINGE,
                               init_params(shape, "uniform", 0), lr=1e160, iters=3)
        assert len(reports) == 3
        for rep in reports:
            assert [r.step_norm for r in rep.trace] == [math.inf] * 3
            assert math.isfinite(rep.final_objective)

    def test_overflowing_objective_is_inf(self):
        # at lr = 1e100 SGDM's squared residuals overflow by its third
        # iteration: the objective and final objective are inf, no warning
        train, _ = make_franke_datasets()
        shape = NetworkShape(d=2, q=4)
        sgdm = baseline_fit(train.inputs, train.targets, shape, LossKind.QUADRATIC,
                            init_params(shape, "uniform", 0), lr=1e100, iters=3)[0]
        assert [math.isfinite(r.objective) for r in sgdm.trace] == [True, True, False]
        assert sgdm.final_objective == math.inf

    def test_invalid_hyperparameters(self, rng):
        shape, X, y = _one_point_problem()
        with pytest.raises(ValueError):
            baseline_fit(X, y, shape, LossKind.QUADRATIC, np.zeros(shape.n),
                         lr=0.0)
        with pytest.raises(ValueError):
            baseline_fit(X, y, shape, LossKind.QUADRATIC, np.zeros(shape.n),
                         lr=float("nan"))
        with pytest.raises(ValueError, match="momentum=nan"):
            baseline_fit(X, y, shape, LossKind.QUADRATIC, np.zeros(shape.n),
                         momentum=float("nan"))

    def test_infinite_lr_rejected(self):
        shape, X, y = _one_point_problem()
        with pytest.raises(ValueError, match="lr=inf"):
            baseline_fit(X, y, shape, LossKind.QUADRATIC, np.zeros(shape.n),
                         lr=float("inf"))
