import math

import numpy as np
import pytest

from secthru import (
    BracketError,
    FadingLaw,
    NumericsError,
    QuadratureError,
    Tolerances,
    bisect_root,
    expand_bracket,
    expectation_joint,
    integrate,
    integrate_density,
)
from secthru.full_csi import kkt_lhs_full

TOL = Tolerances()


class TestBisectRoot:
    def test_linear(self):
        assert bisect_root(lambda x: x - 1.0, 0.0, 2.0, TOL) == pytest.approx(1.0, abs=1e-11)

    def test_sqrt3(self):
        root = bisect_root(lambda x: x * x - 3.0, 0.0, 2.0, TOL)
        assert root == pytest.approx(math.sqrt(3.0), abs=1e-11)

    def test_stationarity_residual_beta1(self, link):
        # at beta=1 the optimality condition reduces to a closed form
        f = lambda mu: float(kkt_lhs_full(mu, 2.0, 0.5, 1.0, 1.0)) - 0.5
        root = bisect_root(f, 0.0, 2.0, TOL)
        assert root == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0, abs=1e-10)

    def test_result_bracketed_and_sign_checked(self):
        f = lambda x: math.cos(x)
        root = bisect_root(f, 1.0, 2.0, TOL)
        assert 1.0 <= root <= 2.0
        assert f(root - 1e-6) > 0 > f(root + 1e-6)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, TOL)

    def test_nan_rejected(self):
        with pytest.raises(NumericsError):
            bisect_root(lambda x: math.nan, 0.0, 1.0, TOL)

    def test_iteration_cap_raises_with_last_midpoint(self):
        # midpoints 0.5, 0.25, 0.375: three are not enough for root_tol
        with pytest.raises(NumericsError, match="not converged") as err:
            bisect_root(lambda x: x - 1.0 / 3.0, 0.0, 1.0, Tolerances(max_iter=3))
        assert err.value.best == 0.375

    def test_f_tol_exit(self):
        calls = []
        def f(x):
            calls.append(x)
            return x - 0.3
        bisect_root(f, 0.0, 1.0, TOL, f_tol=1e-3)
        assert len(calls) < 15  # coarse residual target exits early


class TestExpandBracket:
    def test_grows_until_sign_change(self):
        f = lambda x: 100.0 - x
        lo, hi = expand_bracket(f, 0.0, 1.0)
        assert f(lo) > 0 > f(hi)

    def test_gives_up(self):
        with pytest.raises(BracketError):
            expand_bracket(lambda x: 1.0, 0.0, 1.0, max_expansions=10)


class TestIntegrateDensity:
    def test_normalization(self, law):
        assert integrate_density(lambda z: np.ones_like(z), law).value == pytest.approx(1.0, abs=1e-10)

    def test_mean(self, law):
        assert integrate_density(lambda z: z, law).value == pytest.approx(1.0, rel=1e-9)

    def test_laplace_transform(self, law):
        res = integrate_density(lambda z: np.exp(-z), law)
        assert res.value == pytest.approx(0.5, rel=1e-9)

    def test_error_estimate_honest(self, law):
        # doubling the starting resolution moves the value less than the estimate
        res = integrate_density(lambda z: np.sin(z) ** 2, law)
        res2 = integrate_density(lambda z: np.sin(z) ** 2, law, start_panels=16)
        assert abs(res2.value - res.value) <= max(res.error, 1e-14)

    def test_partial_range(self, law):
        res = integrate_density(lambda z: np.ones_like(z), law, lo=0.0, hi=1.0)
        assert res.value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)

    def test_nonconvergence_reports_best(self, law):
        bad = Tolerances(quad_rel_tol=1e-15, max_iter=2)
        with pytest.raises(QuadratureError) as err:
            integrate_density(lambda z: np.abs(np.sin(50.0 * z)) ** 0.1, law, bad)
        assert err.value.best is not None


class TestIntegrate:
    def test_polynomial(self):
        res = integrate(lambda x: 3.0 * x * x, 0.0, 2.0, TOL)
        assert res.value == pytest.approx(8.0, rel=1e-12)

    def test_empty_interval(self):
        assert integrate(lambda x: x, 1.0, 1.0, TOL).value == 0.0


class TestExpectationJoint:
    def test_constant(self, law):
        res = expectation_joint(lambda zm, ze: np.ones_like(zm), law, law)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_product_of_means(self, law):
        res = expectation_joint(lambda zm, ze: zm * ze, law, law)
        assert res.value == pytest.approx(1.0, rel=1e-7)

    def test_symmetry_indicator(self, law):
        # discontinuous integrand: only coarse tolerances are reachable
        loose = Tolerances(quad_rel_tol=1e-3)
        res = expectation_joint(lambda zm, ze: (zm > ze).astype(float), law, law, loose)
        assert res.value == pytest.approx(0.5, abs=5e-3)

    def test_mixed_means(self):
        law_m = FadingLaw(mean_gain=2.0)
        law_e = FadingLaw(mean_gain=0.5)
        res = expectation_joint(lambda zm, ze: zm + ze, law_m, law_e)
        assert res.value == pytest.approx(2.5, rel=1e-7)


class TestTolerances:
    def test_rejects_nonpositive(self):
        from secthru import ValidationError

        with pytest.raises(ValidationError):
            Tolerances(root_tol=0.0)
        with pytest.raises(ValidationError):
            Tolerances(max_iter=0)
