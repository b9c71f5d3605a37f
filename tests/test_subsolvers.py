import numpy as np
import pytest
import scipy.linalg

from signet.losses import LossKind
from signet.model import ResidualEval
from signet.subsolvers import (AdmmConfig, admm_solve, lm_step,
                               subproblem_model_value)

from conftest import random_instance, scalar_loss


def _random_eval(rng, m, n, scale=1.0):
    return ResidualEval(F=rng.normal(size=m) * scale, J=rng.normal(size=(m, n)))


class TestLmStep:
    def test_zero_residual_gives_zero_step(self, rng):
        ev = ResidualEval(F=np.zeros(4), J=rng.normal(size=(4, 6)))
        assert np.allclose(lm_step(ev, 1.0), 0.0)

    def test_scalar_case_by_hand(self):
        # (2*1*1 + 1) * d = -2*1*1  ->  d = -2/3
        ev = ResidualEval(F=np.array([1.0]), J=np.array([[1.0]]))
        assert lm_step(ev, 1.0)[0] == pytest.approx(-2 / 3)

    def test_optimality_residual_small(self, rng):
        ev = _random_eval(rng, 5, 7)
        t, m = 3.0, 5
        d = lm_step(ev, t)
        B = (2 / m) * ev.J.T @ ev.J + np.eye(7) / t
        g = (2 / m) * ev.J.T @ ev.F
        assert np.linalg.norm(B @ d + g) <= 1e-10 * (1 + np.linalg.norm(g))

    def test_kkt_residual_many_instances(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(1, 31))
            ev = _random_eval(rng, m, n)
            t = float(rng.uniform(0.1, 1e4))
            d = lm_step(ev, t)
            B = (2 / m) * ev.J.T @ ev.J + np.eye(n) / t
            g = (2 / m) * ev.J.T @ ev.F
            assert np.linalg.norm(B @ d + g) <= 1e-10 * (1 + np.linalg.norm(g))

    def test_invalid_t(self, rng):
        ev = _random_eval(rng, 3, 3)
        with pytest.raises(ValueError):
            lm_step(ev, 0.0)


class TestAdmm:
    def test_zero_residual_fixed_point(self, rng):
        ev = ResidualEval(F=np.zeros(4), J=rng.normal(size=(4, 5)))
        d, tr = admm_solve(ev, 1.0, LossKind.ABSOLUTE, AdmmConfig())
        assert np.allclose(d, 0.0)
        assert tr.iterations == 1
        assert tr.converged
        assert tr.final_primal_residual_norm == 0.0
        assert tr.final_dual_residual_norm == 0.0

    def test_scalar_absolute_against_golden_section(self):
        # min |2 + d| / 1 + d^2 / (2e6): minimizer essentially -2
        ev = ResidualEval(F=np.array([2.0]), J=np.array([[1.0]]))
        cfg = AdmmConfig(rho=1e-2, eps=1e-4, max_iters=5000)
        d, tr = admm_solve(ev, 1e6, LossKind.ABSOLUTE, cfg)
        assert abs(d[0] - (-2.0)) <= 1e-3

    def test_model_value_close_to_exact(self, rng):
        # long-run ADMM against a vectorized random-search oracle
        for _ in range(100):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(1, 11))
            loss = LossKind.ABSOLUTE if rng.uniform() < 0.5 else LossKind.HINGE
            ev = _random_eval(rng, m, n)
            t = float(rng.uniform(1.0, 100.0))
            cfg = AdmmConfig(rho=0.5, eps=1e-6, max_iters=20000)
            d, tr = admm_solve(ev, t, loss, cfg)
            val = subproblem_model_value(ev, d, t, loss)
            cand = rng.normal(size=(n, 200_000)) * rng.uniform(0.05, 3.0, size=200_000)
            Z = ev.F[:, None] + ev.J @ cand
            vals = scalar_loss(Z, loss).mean(axis=0) + (cand * cand).sum(axis=0) / (2 * t)
            assert val <= vals.min() + 1e-4

    def test_converged_no_worse_than_zero_direction(self, rng):
        for _ in range(20):
            m, n = 6, 8
            ev = _random_eval(rng, m, n)
            cfg = AdmmConfig(rho=0.5, eps=1e-6, max_iters=5000)
            d, tr = admm_solve(ev, 10.0, LossKind.ABSOLUTE, cfg)
            if tr.converged:
                val = subproblem_model_value(ev, d, 10.0, LossKind.ABSOLUTE)
                zero = subproblem_model_value(ev, np.zeros(n), 10.0, LossKind.ABSOLUTE)
                assert val <= zero + cfg.eps

    def test_max_iters_returns_unconverged(self, rng):
        ev = _random_eval(rng, 6, 6)
        d, tr = admm_solve(ev, 1e4, LossKind.ABSOLUTE,
                           AdmmConfig(rho=1e-2, eps=1e-12, max_iters=3))
        assert tr.iterations == 3
        assert not tr.converged

    @pytest.mark.parametrize("loss", [LossKind.ABSOLUTE, LossKind.HINGE])
    def test_stopping_test_is_scale_free(self, rng, loss):
        # a subproblem far smaller than eps must not pass at its first,
        # cold-start iterate: the residuals are measured relative to its size
        ev = _random_eval(rng, 6, 8, scale=1e-4)
        if loss is LossKind.HINGE:
            ev = ResidualEval(F=1.0 + ev.F, J=ev.J)
        d, tr = admm_solve(ev, 1e5, loss,
                           AdmmConfig(rho=1e-2, eps=1e-2, max_iters=5000))
        assert tr.iterations > 1
        assert tr.converged
        assert tr.final_primal_residual_norm <= 1e-2 * np.linalg.norm(ev.J @ d)

    def test_quadratic_loss_rejected(self, rng):
        ev = _random_eval(rng, 3, 3)
        with pytest.raises(ValueError):
            admm_solve(ev, 1.0, LossKind.QUADRATIC, AdmmConfig())

    def test_factorization_happens_once(self, rng, monkeypatch):
        import signet.subsolvers as sub
        calls = {"n": 0}
        real = scipy.linalg.cho_factor

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(sub.scipy.linalg, "cho_factor", counting)
        ev = _random_eval(rng, 8, 8)
        admm_solve(ev, 10.0, LossKind.ABSOLUTE,
                   AdmmConfig(rho=0.1, eps=1e-12, max_iters=50))
        assert calls["n"] == 1


class TestModelValue:
    def test_zero_direction_is_outer_value(self, rng):
        from signet.losses import outer_value
        ev = _random_eval(rng, 5, 4)
        got = subproblem_model_value(ev, np.zeros(4), 2.0, LossKind.ABSOLUTE)
        assert got == pytest.approx(outer_value(ev.F, LossKind.ABSOLUTE))

    def test_decoupled_when_jacobian_zero(self, rng):
        ev = ResidualEval(F=np.array([1.0, -1.0]), J=np.zeros((2, 3)))
        z = rng.normal(size=3)
        t = 7.0
        got = subproblem_model_value(ev, z, t, LossKind.ABSOLUTE)
        assert got == pytest.approx(1.0 + z @ z / (2 * t))

    def test_lm_step_is_local_minimum(self, rng):
        ev = _random_eval(rng, 6, 5)
        t, m = 50.0, 6
        d = lm_step(ev, t)
        base = subproblem_model_value(ev, d, t, LossKind.QUADRATIC)
        for _ in range(50):
            delta = rng.normal(size=5)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert base <= subproblem_model_value(ev, d + delta, t,
                                                  LossKind.QUADRATIC) + 1e-15

    def test_dimension_mismatch(self, rng):
        ev = _random_eval(rng, 3, 4)
        with pytest.raises(ValueError):
            subproblem_model_value(ev, np.zeros(5), 1.0, LossKind.ABSOLUTE)
