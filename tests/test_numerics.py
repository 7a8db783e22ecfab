import math

import numpy as np
import pytest

from secthru import BracketError, NumericsError, QuadratureError, Tolerances
from secthru.full_csi import kkt_lhs_full
from secthru.numerics import calibrate, find_root, integrate, integrate_density

TOL = Tolerances()


class TestBisectRoot:
    """find_root: Brent's method, safeguarded by bisection, on a sign-checked bracket."""

    def test_linear(self):
        assert find_root(lambda x: x - 1.0, 0.0, 2.0, TOL) == pytest.approx(1.0, abs=1e-11)

    def test_sqrt3(self):
        root = find_root(lambda x: x * x - 3.0, 0.0, 2.0, TOL)
        assert root == pytest.approx(math.sqrt(3.0), abs=1e-11)

    def test_stationarity_residual_beta1(self, link):
        # at beta=1 the optimality condition reduces to a closed form
        f = lambda mu: float(kkt_lhs_full(mu, 2.0, 0.5, 1.0, 1.0)) - 0.5
        root = find_root(f, 0.0, 2.0, TOL)
        assert root == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0, abs=1e-10)

    def test_result_bracketed_and_sign_checked(self):
        f = lambda x: math.cos(x)
        root = find_root(f, 1.0, 2.0, TOL)
        assert 1.0 <= root <= 2.0
        assert f(root - 1e-6) > 0 > f(root + 1e-6)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, TOL)

    def test_nan_rejected(self):
        with pytest.raises(NumericsError):
            find_root(lambda x: math.nan, 0.0, 1.0, TOL)

    def test_iteration_cap_raises_with_best_in_bracket(self):
        # the root of a 10th-root cusp defeats interpolation: 3 steps cannot finish
        f = lambda x: math.copysign(abs(x - 0.3) ** 0.1, x - 0.3)
        with pytest.raises(NumericsError, match="not converged") as err:
            find_root(f, 0.0, 1.0, Tolerances(max_iter=3))
        assert 0.0 < err.value.best < 1.0

    def test_f_tol_exit(self):
        calls = []
        def f(x):
            calls.append(x)
            return x - 0.3
        find_root(f, 0.0, 1.0, TOL, f_tol=1e-3)
        assert len(calls) < 15  # coarse residual target exits early


class TestCalibrate:
    @pytest.mark.parametrize("budget", [0.1, 1.0, 10.0, 100.0, 1000.0])
    def test_closed_form_mean_power(self, budget):
        # P(lam) = c/lam spends the budget at lam = c/budget
        c = 2.5
        seen = []

        def mean_power(lam, tol):
            seen.append(lam)
            return c / lam

        lam, residual = calibrate(mean_power, budget, 10.0, TOL)
        assert residual <= TOL.power_rel_tol * budget
        assert lam in seen  # the residual is not recomputed at the returned lam
        assert residual == pytest.approx(abs(c / lam - budget), rel=1e-12)
        assert lam == pytest.approx(c / budget, rel=2 * TOL.power_rel_tol)
        assert len(seen) <= 3  # ln(P/budget) is linear in ln(lam): one probe past the root
        assert len(set(seen)) == len(seen)  # no multiplier evaluated twice

    # the upper end of the walk as the solvers set it: ln of the Exp(1) tail cutoff
    U_HI = math.log(-math.log(1e-12))

    @staticmethod
    def _calibrate_counted(power, budget, u_hi):
        seen = []

        def mean_power(lam, tol):
            seen.append(lam)
            return power(lam)

        lam, residual = calibrate(mean_power, budget, u_hi, TOL)
        assert residual <= TOL.power_rel_tol * budget
        assert residual == abs(power(lam) - budget)
        assert len(set(seen)) == len(seen)
        return lam, seen

    @pytest.mark.parametrize("u_root", [-2.0, -10.0, -27.6])
    def test_flat_mean_power(self, u_root):
        # the shape at beta = 29 and high SNR: slope -1/30 in ln(lam), root
        # down to lam = 1e-12
        c = math.exp(u_root / 30.0)
        lam, seen = self._calibrate_counted(lambda lam: c * lam ** (-1.0 / 30.0), 1.0, self.U_HI)
        assert math.log(lam) == pytest.approx(u_root, abs=30.0 * TOL.power_rel_tol)
        assert len(seen) <= 7

    @pytest.mark.parametrize("budget", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_steep_mean_power(self, budget):
        # the low-SNR shape: the power dies off like exp(-lam); the two
        # smallest budgets put the root above the walk's first probe
        lam, seen = self._calibrate_counted(lambda lam: math.exp(-lam) / lam ** 2, budget,
                                            self.U_HI)
        assert len(seen) <= 7

    @pytest.mark.parametrize("budget", [0.05, 0.5])
    def test_zero_power_at_the_upper_end(self, budget):
        # zero mean power from lam = 0.05 up to exp(u_hi) = 1, and a root above
        # the first probe at exp(-4): zero-power probes end the bracket but
        # never reach Brent as -inf or NaN
        lam, _ = self._calibrate_counted(lambda lam: max(0.0, 1.0 - 20.0 * lam), budget, 0.0)
        assert lam == pytest.approx((1.0 - budget) / 20.0, rel=2 * TOL.power_rel_tol)
        assert lam > math.exp(-4.0)

    def test_nan_in_the_walk(self):
        with pytest.raises(NumericsError, match="NaN"):
            calibrate(lambda lam, tol: math.nan, 1.0, self.U_HI, TOL)

    def test_nan_in_brent(self):
        # c/lam until both sides of the root are seen, then NaN: the walk
        # brackets and Brent's first step hits the NaN
        sides = set()

        def mean_power(lam, tol):
            if len(sides) == 2:
                return math.nan
            power = 2.5 / lam
            sides.add(power > 1.0)
            return power

        with pytest.raises(NumericsError, match="NaN"):
            calibrate(mean_power, 1.0, self.U_HI, TOL)
        assert len(sides) == 2

    def test_mean_power_below_budget_everywhere(self):
        with pytest.raises(NumericsError, match="could not bracket"):
            calibrate(lambda lam, tol: 1.0 / (1.0 + lam), 5.0, 0.0, TOL)

    def test_zero_budget(self):
        assert calibrate(lambda lam, tol: 1.0 / lam, 0.0, 0.0, TOL) == (math.inf, 0.0)


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


class TestTolerances:
    def test_rejects_nonpositive(self):
        from secthru import ValidationError

        with pytest.raises(ValidationError):
            Tolerances(root_tol=0.0)
        with pytest.raises(ValidationError):
            Tolerances(max_iter=0)
