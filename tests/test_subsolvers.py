import numpy as np
import pytest
import scipy.linalg

from signet.data import load_digits_csv, make_binary_task, make_franke_datasets
from signet.losses import LossKind, outer_value, prox
from signet.model import NetworkShape, init_params, inner_eval
from signet.subsolvers import AdmmConfig, StepInfo, admm_solve, lm_step

from conftest import DenseEval, pack_params, subproblem_model_value
from test_acceptance import DIGITS_HINGE, FRANKE_ABSOLUTE, FRANKE_QUADRATIC


def _random_eval(rng, m, n, scale=1.0):
    return DenseEval(F=rng.normal(size=m) * scale, J=rng.normal(size=(m, n)))


def reference_admm(ev, t, loss, cfg):
    """The same ADMM iteration in parameter space: factors rho J^T J + I/t
    (n x n) and forms J dtheta = J solve(rho J^T w) every iteration. The
    oracle for admm_solve's residual-space form."""
    J, F, m, n = ev.J, ev.F, ev.m, ev.J.shape[1]
    rho = cfg.rho
    factor = scipy.linalg.cho_factor(rho * (J.T @ J) + np.eye(n) / t, lower=True)
    lam, Jd = np.zeros(m), np.zeros(m)
    converged = False
    for it in range(1, cfg.max_iters + 1):
        mu = prox(F + Jd - lam / rho, 1.0 / (m * rho), loss)
        mu_F = mu - F
        dtheta = scipy.linalg.cho_solve(factor, rho * (J.T @ (mu_F + lam / rho)))
        Jd_prev, Jd = Jd, J @ dtheta
        r = mu_F - Jd
        lam = lam + rho * r
        r_norm = float(np.linalg.norm(r))
        s_norm = float(np.linalg.norm(rho * (Jd - Jd_prev)))
        tol = cfg.eps * max(np.linalg.norm(mu_F), np.linalg.norm(Jd))
        if r_norm <= tol and s_norm <= rho * tol:
            converged = True
            break
    return dtheta, StepInfo(subproblem_model_value(ev, dtheta, t, loss),
                            it, r_norm, s_norm, converged)


def triangular_pair(factor, w):
    """K^{-1} w from the lower factor (L, True): L y = w, then L^T z = y."""
    L = factor[0]
    return scipy.linalg.solve_triangular(
        L, scipy.linalg.solve_triangular(L, w, lower=True), trans="T", lower=True)


def reference_cholesky(ev, t, loss, cfg, solve=triangular_pair):
    """The subsolvers' residual-space arithmetic through numpy's and
    scipy's wrappers: np.linalg.cholesky of the C-ordered K, which calls
    dpotrf in the OpenBLAS the program uses, copied to Fortran order, then
    `solve` with (L, True), by default a solve_triangular pair, and
    np.linalg.norm. The oracle for the bitwise contract: the subsolvers
    hand the same values to the same LAPACK and BLAS routines in the same
    order, so they must agree to the last bit. (A C-ordered L would send
    solve_triangular down its transposed path, whose bits differ.)
    Both return by the same identity from z = K^{-1} b, with b = -F for LM
    (one solve) and b = w for ADMM's last iterate: J dtheta = b - z,
    dtheta = t c J^T z and ||dtheta||^2/(2t) = c z^T (J dtheta)/2."""
    J, F, m = ev.J, ev.F, ev.m
    c = 2.0 / m if loss is LossKind.QUADRATIC else cfg.rho
    K = J @ J.T
    K *= t * c
    K[np.diag_indices_from(K)] += 1.0
    factor = np.asfortranarray(np.linalg.cholesky(K)), True
    it, r_norm, s_norm, converged = 0, 0.0, 0.0, True
    if loss is LossKind.QUADRATIC:
        b = -F
        z = solve(factor, b)
    else:
        rho = cfg.rho
        lam, Jd = np.zeros(m), np.zeros(m)
        converged = False
        for it in range(1, cfg.max_iters + 1):
            mu = prox(F + Jd - lam / rho, 1.0 / (m * rho), loss)
            mu_F = mu - F
            b = mu_F + lam / rho
            z = solve(factor, b)
            Jd_prev, Jd = Jd, b - z
            r = mu_F - Jd
            lam = lam + rho * r
            r_norm = float(np.linalg.norm(r))
            s_norm = float(np.linalg.norm(rho * (Jd - Jd_prev)))
            tol = cfg.eps * max(np.linalg.norm(mu_F), np.linalg.norm(Jd))
            if r_norm <= tol and s_norm <= rho * tol:
                converged = True
                break
    Jd = b - z
    model_value = outer_value(F + Jd, loss) + c * float(z @ Jd) / 2.0
    return (t * c) * (J.T @ z), StepInfo(model_value, it, r_norm, s_norm, converged)


def _count_linalg(monkeypatch):
    """Count the subsolvers' factorizations (potrf) and solves with K (a
    trsv_pair each), bound from signet.linalg."""
    import signet.subsolvers as sub
    calls = {"potrf": 0, "trsv_pair": 0}

    def counting(host, name):
        real = getattr(host, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(host, name, counted)

    counting(sub, "potrf")
    counting(sub, "trsv_pair")
    return calls


class TestLmStep:
    def test_zero_residual_gives_zero_step(self, rng):
        ev = DenseEval(F=np.zeros(4), J=rng.normal(size=(4, 6)))
        assert np.allclose(lm_step(ev, 1.0)[0], 0.0)

    def test_scalar_case_by_hand(self):
        # (2*1*1 + 1) * d = -2*1*1  ->  d = -2/3
        ev = DenseEval(F=np.array([1.0]), J=np.array([[1.0]]))
        assert lm_step(ev, 1.0)[0][0] == pytest.approx(-2 / 3)

    def test_optimality_residual_small(self, rng):
        ev = _random_eval(rng, 5, 7)
        t, m = 3.0, 5
        d, _ = lm_step(ev, t)
        B = (2 / m) * ev.J.T @ ev.J + np.eye(7) / t
        g = (2 / m) * ev.J.T @ ev.F
        assert np.linalg.norm(B @ d + g) <= 1e-10 * (1 + np.linalg.norm(g))

    def test_kkt_residual_many_instances(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(1, 31))
            ev = _random_eval(rng, m, n)
            t = float(rng.uniform(0.1, 1e4))
            d, _ = lm_step(ev, t)
            B = (2 / m) * ev.J.T @ ev.J + np.eye(n) / t
            g = (2 / m) * ev.J.T @ ev.F
            assert np.linalg.norm(B @ d + g) <= 1e-10 * (1 + np.linalg.norm(g))

    def test_invalid_t(self, rng):
        ev = _random_eval(rng, 3, 3)
        with pytest.raises(ValueError):
            lm_step(ev, 0.0)
        with pytest.raises(ValueError):
            lm_step(ev, float("nan"))

    def test_one_factorization_one_solve(self, rng, monkeypatch):
        calls = _count_linalg(monkeypatch)
        lm_step(_random_eval(rng, 8, 8), 10.0)
        assert calls == {"potrf": 1, "trsv_pair": 1}


@pytest.mark.parametrize("solve", [
    lambda ev: lm_step(ev, 10.0),
    lambda ev: admm_solve(ev, 10.0, LossKind.ABSOLUTE, AdmmConfig()),
], ids=["lm_step", "admm_solve"])
def test_overflowing_gram_matrix_raises(rng, solve):
    # J is finite but J J^T overflows: the subproblem-matrix guard, the only
    # finiteness check ahead of the Cholesky factorization, must catch it
    ev = DenseEval(F=rng.normal(size=5), J=rng.normal(size=(5, 7)) * 1e160)
    assert np.all(np.isfinite(ev.J))
    with pytest.raises(FloatingPointError, match="subproblem matrix"):
        solve(ev)


@pytest.mark.parametrize("solve", [
    lambda ev: lm_step(ev, 10.0),
    lambda ev: admm_solve(ev, 10.0, LossKind.ABSOLUTE, AdmmConfig()),
], ids=["lm_step", "admm_solve"])
def test_overflowing_hidden_pass_gram_raises(solve):
    # two identical neurons with output weights +-1e160 cancel in F, but
    # the Hadamard part of J J^T, formed from the hidden-layer pass,
    # overflows
    shape = NetworkShape(d=2, q=3)
    theta = pack_params([1e-160, 1e160, -1e160], np.ones((3, 2)), np.zeros(3), 0.0)
    X = np.linspace(-1.0, 1.0, 10).reshape(5, 2)
    ev = inner_eval(theta, shape, X, np.zeros(5), LossKind.ABSOLUTE)
    assert np.all(np.isfinite(ev.F))
    with pytest.raises(FloatingPointError, match="non-finite entries in subproblem matrix"):
        solve(ev)


class TestAdmm:
    def test_zero_residual_fixed_point(self, rng):
        ev = DenseEval(F=np.zeros(4), J=rng.normal(size=(4, 5)))
        d, tr = admm_solve(ev, 1.0, LossKind.ABSOLUTE, AdmmConfig())
        assert np.allclose(d, 0.0)
        assert tr.iterations == 1
        assert tr.converged
        assert tr.final_primal_residual_norm == 0.0
        assert tr.final_dual_residual_norm == 0.0

    def test_scalar_absolute_against_golden_section(self):
        # min |2 + d| / 1 + d^2 / (2e6): minimizer essentially -2
        ev = DenseEval(F=np.array([2.0]), J=np.array([[1.0]]))
        cfg = AdmmConfig(rho=1e-2, eps=1e-4, max_iters=5000)
        d, tr = admm_solve(ev, 1e6, LossKind.ABSOLUTE, cfg)
        assert abs(d[0] - (-2.0)) <= 1e-3

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
            ev = DenseEval(F=1.0 + ev.F, J=ev.J)
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
        calls = _count_linalg(monkeypatch)
        ev = _random_eval(rng, 8, 8)
        _, tr = admm_solve(ev, 10.0, LossKind.ABSOLUTE,
                           AdmmConfig(rho=0.1, eps=1e-12, max_iters=50))
        assert tr.iterations == 50
        assert calls == {"potrf": 1, "trsv_pair": 50}

    @pytest.mark.parametrize("loss", [LossKind.ABSOLUTE, LossKind.HINGE])
    @pytest.mark.parametrize("m, n", [(6, 10), (8, 8), (12, 5)],
                             ids=["m<n", "m=n", "m>n"])
    @pytest.mark.parametrize("t, cfg", [
        (10.0, AdmmConfig(rho=0.5, eps=1e-6, max_iters=5000)),
        (1e5, AdmmConfig(rho=1e-2, eps=1e-2, max_iters=20)),
    ], ids=["eps=1e-6", "cap=20"])
    def test_matches_parameter_space_reference(self, rng, m, n, loss, t, cfg):
        ev = _random_eval(rng, m, n)
        if loss is LossKind.HINGE:
            ev = DenseEval(F=1.0 + ev.F, J=ev.J)
        d, tr = admm_solve(ev, t, loss, cfg)
        d_ref, ref = reference_admm(ev, t, loss, cfg)
        assert (tr.iterations, tr.converged) == (ref.iterations, ref.converged)
        np.testing.assert_allclose(d, d_ref, rtol=1e-8,
                                   atol=1e-8 * np.linalg.norm(d_ref))
        # a converged residual is ~eps of the step and formed by cancellation,
        # so it is compared to 1e-8 relative or 1e-13 of the step's size
        scale = np.linalg.norm(ev.J @ d_ref)
        assert tr.final_primal_residual_norm == pytest.approx(
            ref.final_primal_residual_norm, rel=1e-8, abs=1e-13 * scale)
        assert tr.final_dual_residual_norm == pytest.approx(
            ref.final_dual_residual_norm, rel=1e-8, abs=1e-13 * scale)


@pytest.mark.parametrize("loss", [LossKind.QUADRATIC, LossKind.ABSOLUTE,
                                  LossKind.HINGE])
@pytest.mark.parametrize("m, n", [(6, 10), (8, 8), (12, 5), (289, 289)],
                         ids=["m<n", "m=n", "m>n", "m=n=289"])
def test_bitwise_equal_to_cholesky_reference(rng, m, n, loss):
    # K = J J^T, scaled, plus I is exactly symmetric, so K.T (Fortran order)
    # is the same matrix and the subsolvers' results are bit for bit those
    # of the C-ordered factorization
    ev = _random_eval(rng, m, n)
    if loss is LossKind.HINGE:
        ev = DenseEval(F=1.0 + ev.F, J=ev.J)
    t, cfg = 1e5, AdmmConfig(rho=1e-2, eps=1e-2, max_iters=20)
    for c in (2.0 / m, cfg.rho):
        K = ev.J @ ev.J.T
        K *= t * c
        K[np.diag_indices_from(K)] += 1.0
        assert np.array_equal(K, K.T)
    d_ref, info_ref = reference_cholesky(ev, t, loss, cfg)
    if loss is LossKind.QUADRATIC:
        d, info = lm_step(ev, t)
    else:
        d, info = admm_solve(ev, t, loss, cfg)
    assert np.array_equal(d, d_ref)
    assert info == info_ref


@pytest.mark.parametrize("setup, loss, pair", [
    (FRANKE_QUADRATIC, LossKind.QUADRATIC, None),
    (FRANKE_ABSOLUTE, LossKind.ABSOLUTE, None),
    (DIGITS_HINGE, LossKind.HINGE, (0, 1)),
], ids=["franke_quadratic", "franke_absolute", "digits_0_1"])
def test_admm_triangular_pair_matches_cho_solve_at_start_point(setup, loss, pair):
    # the subsolvers' dtrsv pair (LM's one solve, ADMM's every solve) against
    # LAPACK's dpotrs (through cho_solve) on the acceptance start points'
    # Jacobians: the same K, so only the solve differs, and by rounding alone
    train, _ = (make_franke_datasets() if pair is None else
                make_binary_task(load_digits_csv(), *pair, seed=setup.seed,
                                 normalize=True))
    shape = NetworkShape(d=train.d, q=setup.q)
    theta = init_params(shape, setup.init, setup.seed)
    ev = inner_eval(theta, shape, train.inputs, train.targets, loss)
    ev = DenseEval(F=ev.F, J=ev.jacobian())
    t, cfg = setup.cfg.t, setup.cfg.admm
    d, info = (lm_step(ev, t) if loss is LossKind.QUADRATIC
               else admm_solve(ev, t, loss, cfg))
    d_ref, ref = reference_cholesky(ev, t, loss, cfg, solve=scipy.linalg.cho_solve)
    assert (info.iterations, info.converged) == (ref.iterations, ref.converged)
    assert np.linalg.norm(d - d_ref) <= 1e-12 * np.linalg.norm(d_ref)
    assert info.model_value == pytest.approx(ref.model_value, rel=1e-12, abs=0)


SIZES = pytest.mark.parametrize("m, n", [(6, 10), (8, 8), (12, 5)],
                                ids=["m<n", "m=n", "m>n"])


class TestStepModelValue:
    """The model value a subsolver returns, formed from its residual-space
    solve, against the dense-J oracle at the returned step."""

    @SIZES
    @pytest.mark.parametrize("t", [1.0, 1e5])
    def test_lm_matches_oracle(self, rng, m, n, t):
        ev = _random_eval(rng, m, n)
        d, info = lm_step(ev, t)
        assert info == StepInfo(info.model_value, 0, 0.0, 0.0, True)
        assert info.model_value == pytest.approx(
            subproblem_model_value(ev, d, t, LossKind.QUADRATIC), rel=1e-9, abs=0)

    @SIZES
    @pytest.mark.parametrize("loss", [LossKind.ABSOLUTE, LossKind.HINGE])
    @pytest.mark.parametrize("t, cfg, converged", [
        (10.0, AdmmConfig(rho=0.5, eps=1e-6, max_iters=5000), True),
        (1e5, AdmmConfig(rho=1e-2, eps=1e-12, max_iters=3), False),
    ], ids=["converged", "capped"])
    def test_admm_matches_oracle(self, rng, m, n, loss, t, cfg, converged):
        ev = _random_eval(rng, m, n)
        if loss is LossKind.HINGE:
            ev = DenseEval(F=1.0 + ev.F, J=ev.J)
        d, info = admm_solve(ev, t, loss, cfg)
        assert info.converged is converged
        assert info.model_value == pytest.approx(
            subproblem_model_value(ev, d, t, loss), rel=1e-9, abs=0)

    @pytest.mark.parametrize("setup, loss, pair", [
        (FRANKE_QUADRATIC, LossKind.QUADRATIC, None),
        (FRANKE_ABSOLUTE, LossKind.ABSOLUTE, None),
        (DIGITS_HINGE, LossKind.HINGE, (3, 7)),
    ], ids=["franke_quadratic", "franke_absolute", "digits_3_7"])
    def test_matches_oracle_at_start_point(self, setup, loss, pair):
        # the acceptance start points, evaluated by inner_eval
        train, _ = (make_franke_datasets() if pair is None else
                    make_binary_task(load_digits_csv(), *pair, seed=setup.seed,
                                     normalize=True))
        shape = NetworkShape(d=train.d, q=setup.q)
        theta = init_params(shape, setup.init, setup.seed)
        ev = inner_eval(theta, shape, train.inputs, train.targets, loss)
        t = setup.cfg.t
        d, info = (lm_step(ev, t) if loss is LossKind.QUADRATIC
                   else admm_solve(ev, t, loss, setup.cfg.admm))
        assert info.model_value == pytest.approx(
            subproblem_model_value(ev, d, t, loss), rel=1e-9, abs=0)


class TestModelValue:
    def test_zero_direction_is_outer_value(self, rng):
        from signet.losses import outer_value
        ev = _random_eval(rng, 5, 4)
        got = subproblem_model_value(ev, np.zeros(4), 2.0, LossKind.ABSOLUTE)
        assert got == pytest.approx(outer_value(ev.F, LossKind.ABSOLUTE))

    def test_decoupled_when_jacobian_zero(self, rng):
        ev = DenseEval(F=np.array([1.0, -1.0]), J=np.zeros((2, 3)))
        z = rng.normal(size=3)
        t = 7.0
        got = subproblem_model_value(ev, z, t, LossKind.ABSOLUTE)
        assert got == pytest.approx(1.0 + z @ z / (2 * t))

    def test_lm_step_is_local_minimum(self, rng):
        ev = _random_eval(rng, 6, 5)
        t, m = 50.0, 6
        d, _ = lm_step(ev, t)
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
