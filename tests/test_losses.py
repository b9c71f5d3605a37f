import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signet.losses import LossKind, outer_value, prox

from conftest import scalar_loss


def golden_section_prox(a, kappa, loss, lo=-10.0, hi=10.0, tol=1e-12):
    """Minimize kappa*L(mu) + (mu-a)^2/2 by golden-section search.

    The objective is evaluated in exact rational arithmetic: float comparisons
    of nearly-equal values stall the search around sqrt(eps), far short of tol.
    """
    phi = Fraction(math.sqrt(5) - 1) / 2
    a = Fraction(a)
    kappa = Fraction(kappa)
    lo = Fraction(lo)
    hi = Fraction(hi)

    def g(mu):
        if loss is LossKind.ABSOLUTE:
            pen = abs(mu)
        else:
            pen = max(Fraction(0), 1 - mu)
        return kappa * pen + (mu - a) ** 2 / 2

    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = g(x1), g(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = g(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = g(x2)
    return float((lo + hi) / 2)


class TestOuterValue:
    def test_quadratic(self):
        assert outer_value(np.array([1.0, -2.0, 3.0]), LossKind.QUADRATIC) == pytest.approx(14 / 3)

    def test_absolute(self):
        assert outer_value(np.array([1.0, -2.0, 3.0]), LossKind.ABSOLUTE) == pytest.approx(2.0)

    def test_hinge(self):
        assert outer_value(np.array([2.0, 0.5, -1.0]), LossKind.HINGE) == pytest.approx(5 / 6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            outer_value(np.array([]), LossKind.QUADRATIC)

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_separability(self, rng, loss):
        z1 = rng.normal(size=7)
        z2 = rng.normal(size=3)
        combined = outer_value(np.concatenate([z1, z2]), loss)
        weighted = (7 * outer_value(z1, loss) + 3 * outer_value(z2, loss)) / 10
        assert combined == pytest.approx(weighted)


class TestProx:
    @pytest.mark.parametrize("a,expected", [(2.0, 1.5), (0.3, 0.0), (-1.0, -0.5)])
    def test_absolute_piecewise(self, a, expected):
        assert prox(a, 0.5, LossKind.ABSOLUTE) == pytest.approx(expected)

    @pytest.mark.parametrize("a,expected", [(2.0, 2.0), (0.8, 1.0), (0.0, 0.5)])
    def test_hinge_piecewise(self, a, expected):
        assert prox(a, 0.5, LossKind.HINGE) == pytest.approx(expected)

    def test_boundary_ties_middle_branch(self):
        assert prox(0.5, 0.5, LossKind.ABSOLUTE) == 0.0
        assert prox(-0.5, 0.5, LossKind.ABSOLUTE) == 0.0
        assert prox(1.0, 0.5, LossKind.HINGE) == 1.0
        assert prox(0.5, 0.5, LossKind.HINGE) == 1.0

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            prox(1.0, 0.0, LossKind.ABSOLUTE)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
    def test_non_finite_kappa(self, kappa):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            prox(0.5, kappa, LossKind.ABSOLUTE)

    def test_quadratic_unsupported(self):
        with pytest.raises(ValueError):
            prox(1.0, 0.5, LossKind.QUADRATIC)

    def test_against_golden_section_single(self):
        got = prox(0.9, 0.37, LossKind.ABSOLUTE)
        want = golden_section_prox(0.9, 0.37, LossKind.ABSOLUTE)
        assert abs(got - want) <= 1e-8

    @pytest.mark.parametrize("loss", [LossKind.ABSOLUTE, LossKind.HINGE])
    def test_against_golden_section_many(self, rng, loss):
        for _ in range(1000):
            a = rng.uniform(-5, 5)
            kappa = rng.uniform(1e-3, 5.0)
            got = prox(a, kappa, loss)
            want = golden_section_prox(a, kappa, loss)
            assert abs(got - want) <= 1e-8

    @pytest.mark.parametrize("loss", [LossKind.ABSOLUTE, LossKind.HINGE])
    def test_nonexpansive(self, rng, loss):
        for _ in range(1000):
            a, b = rng.uniform(-10, 10, 2)
            kappa = rng.uniform(1e-3, 5.0)
            assert abs(prox(a, kappa, loss) - prox(b, kappa, loss)) <= abs(a - b) + 1e-15

    @pytest.mark.parametrize("loss", [LossKind.ABSOLUTE, LossKind.HINGE])
    def test_optimality_on_grid(self, rng, loss):
        for _ in range(1000):
            a = rng.uniform(-5, 5)
            kappa = rng.uniform(1e-3, 5.0)
            p = prox(a, kappa, loss)
            best = kappa * scalar_loss(p, loss) + 0.5 * (p - a) ** 2
            grid = np.linspace(a - 3 * kappa - 3, a + 3 * kappa + 3, 101)
            vals = kappa * scalar_loss(grid, loss) + 0.5 * (grid - a) ** 2
            assert best <= np.min(vals) + 1e-12

    @given(st.floats(-20, 20), st.floats(1e-3, 5))
    @settings(max_examples=200)
    def test_absolute_shrinks_toward_zero(self, a, kappa):
        p = prox(a, kappa, LossKind.ABSOLUTE)
        assert abs(p) <= abs(a)
        assert p * a >= 0


class TestMinimizerSet:
    # the zero set of outer_value: z = 0 for quadratic and absolute, every
    # z >= 1 componentwise for the hinge
    @pytest.mark.parametrize("loss", [LossKind.QUADRATIC, LossKind.ABSOLUTE])
    def test_zero_loss_iff_member(self, rng, loss):
        for _ in range(50):
            z = rng.normal(size=5) * rng.choice([0.0, 1.0])
            assert (outer_value(z, loss) == 0.0) == bool(np.all(z == 0.0))

    def test_hinge_membership_implies_zero_loss(self, rng):
        for _ in range(50):
            z = 1.0 + np.abs(rng.normal(size=5))
            assert np.min(z) >= 1.0
            assert outer_value(z, LossKind.HINGE) == 0.0
