import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from secthru import BracketError, NumericsError, QuadratureError, Tolerances
from secthru._region import CALIBRATION_RUNGS
from secthru.full_csi import kkt_lhs_full
from secthru.numerics import (FIRST_RUNG, _brent, calibrate, graded_nodes, panel_nodes,
                              refine_panels)

TOL = Tolerances()


def find_root(f, lo, hi, tol, f_tol=0.0):
    """_brent on [lo, hi], both ends evaluated here."""
    return _brent(f, lo, float(f(lo)), hi, float(f(hi)), tol, f_tol)[0]


def integrate(f, lo, hi, tol=TOL, floor=0.0, start_panels=FIRST_RUNG):
    """refine_panels over panel_nodes on [lo, hi]: the quadrature every region
    expectation runs, on a plain integrand. Each rung of refine_panels takes
    start_panels/FIRST_RUNG times its panel count.
    """
    def at(n):
        z, w = panel_nodes(lo, hi, n * start_panels // FIRST_RUNG)
        return float(w @ f(z))

    return refine_panels(at, tol, floor=floor)


def integrate_density(g, law, tol=TOL, lo=0.0, hi=None, start_panels=FIRST_RUNG):
    """integrate of g times the law's density, up to its tail cutoff by default."""
    hi = law.tail_cutoff(tol.quad_trunc_mass) if hi is None else hi
    return integrate(lambda z: g(z) * law.density(z), lo, hi, tol, start_panels=start_panels)


class TestBisectRoot:
    """_brent: Brent's method, safeguarded by bisection, on a sign-checked bracket."""

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
    def _calibrate_counted(power, budget, u_hi, ladder=()):
        """lam and the multipliers mean_power saw; ladder holds the coarse
        evaluators coarse(lam), cheapest first.
        """
        seen = []

        def mean_power(lam, tol):
            seen.append(lam)
            return power(lam)

        lam, residual = calibrate(mean_power, budget, u_hi, TOL,
                                  [lambda lam, tol, c=c: c(lam) for c in ladder])
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

    # the shapes of the tests above: (mean power, budget, ln of the root)
    SHAPES = [
        (lambda lam: 2.5 / lam, 10.0, math.log(0.25)),
        (lambda lam: math.exp(-27.6 / 30.0) * lam ** (-1.0 / 30.0), 1.0, -27.6),
        (lambda lam: math.exp(-lam) / lam ** 2, 100.0, None),
        (lambda lam: math.exp(-lam) / lam ** 2, 0.01, None),
    ]

    @pytest.mark.parametrize("eps", [-1e-6, 1e-9, 1e-7, 1e-6, 5e-6])
    @pytest.mark.parametrize("shape", range(len(SHAPES)))
    def test_close_coarse_power_costs_at_most_two_evaluations(self, shape, eps):
        # a coarse evaluator within eps of the mean power, as the first
        # quadrature rung is (2e-7 on the benchmark configurations)
        power, budget, _ = self.SHAPES[shape]
        _, seen = self._calibrate_counted(power, budget, self.U_HI,
                                          ladder=[lambda lam: power(lam) * (1.0 + eps)])
        assert len(seen) <= 2

    @pytest.mark.parametrize("eps", [-1e-6, 1e-9, 1e-7, 1e-6, 5e-6])
    @pytest.mark.parametrize("shape", range(len(SHAPES)))
    def test_close_two_rung_ladder_costs_at_most_two_evaluations(self, shape, eps):
        # two coarse evaluators within eps of the mean power, one on each side
        power, budget, _ = self.SHAPES[shape]
        ladder = [lambda lam: power(lam) * (1.0 - eps), lambda lam: power(lam) * (1.0 + eps)]
        _, seen = self._calibrate_counted(power, budget, self.U_HI, ladder=ladder)
        assert len(seen) <= 2

    @pytest.mark.parametrize("kind", ["nan", "raises", "10x", "0.1x"])
    @pytest.mark.parametrize("shape", range(len(SHAPES)))
    def test_bad_coarse_power_still_converges(self, shape, kind):
        # a NaN or a NumericsError ends the coarse stage and the refined one
        # starts cold; a coarse root off by a factor 10 in power is walked away from
        power, budget, u_root = self.SHAPES[shape]

        def raises(lam):
            raise QuadratureError("not converged")

        coarse = {"nan": lambda lam: math.nan, "raises": raises,
                  "10x": lambda lam: 10.0 * power(lam), "0.1x": lambda lam: 0.1 * power(lam)}
        lam, seen = self._calibrate_counted(power, budget, self.U_HI, ladder=[coarse[kind]])
        if u_root is not None:
            assert math.log(lam) == pytest.approx(u_root, abs=30.0 * TOL.power_rel_tol)
        assert len(seen) <= 7  # no more than a cold start takes

    @pytest.mark.parametrize("kind", ["nan", "raises"])
    @pytest.mark.parametrize("shape", range(len(SHAPES)))
    def test_failed_first_rung_hands_the_cold_walk_to_the_second(self, shape, kind):
        # the first rung is skipped and the second walks cold; the refined
        # stage then starts at the second rung's root (a lone failed rung is
        # test_bad_coarse_power_still_converges)
        power, budget, u_root = self.SHAPES[shape]

        def raises(lam):
            raise QuadratureError("not converged")

        ladder = [{"nan": lambda lam: math.nan, "raises": raises}[kind],
                  lambda lam: power(lam) * (1.0 + 1e-7)]
        lam, seen = self._calibrate_counted(power, budget, self.U_HI, ladder=ladder)
        if u_root is not None:
            assert math.log(lam) == pytest.approx(u_root, abs=30.0 * TOL.power_rel_tol)
        assert len(seen) <= 2

    @pytest.mark.parametrize("shape", range(len(SHAPES)))
    def test_failed_second_stage_starts_the_refined_stage_at_the_first_root(self, shape):
        # the refined stage sees exactly what it sees after the first rung
        # alone: it starts at that rung's root with that rung's slope
        power, budget, _ = self.SHAPES[shape]
        first_seen, failures = [], []

        def first(lam):
            first_seen.append(lam)
            return power(lam) * (1.0 + 1e-3)

        def second(lam):
            failures.append(lam)
            raise QuadratureError("not converged")

        _, alone = self._calibrate_counted(power, budget, self.U_HI, ladder=[first])
        first_alone = list(first_seen)
        first_seen.clear()
        _, seen = self._calibrate_counted(power, budget, self.U_HI, ladder=[first, second])
        assert len(failures) == 1
        assert first_seen == first_alone
        assert failures[0] in first_seen  # the second stage started at the first root
        assert seen == alone
        assert seen[0] == failures[0]

    @pytest.fixture(scope="class")
    def bench_counts(self):
        """The 12 calibrations of the sweep benchmark workloads, counted by the
        tool that writes BENCH_calibration.json.
        """
        path = Path(__file__).resolve().parents[1] / "tools" / "calibration_counts.py"
        spec = importlib.util.spec_from_file_location("calibration_counts", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert len(tool.BENCH) == 12
        return [(config, tool.count_calibration(*config)) for config in tool.BENCH]

    def test_every_bench_calibration_takes_at_most_two_refined_evaluations(self, bench_counts):
        for config, row in bench_counts:
            assert row["refined_evals"] <= 2, config
            assert row["residual_rel"] <= TOL.power_rel_tol

    def test_every_bench_calibration_takes_one_refined_and_at_most_two_first_rung_evaluations(
            self, bench_counts):
        # the cold walk runs on the cheapest rung of the ladder: the 8-panel
        # stage only finishes from its root (5-7 evaluations without it)
        assert CALIBRATION_RUNGS[-1] == 2 * FIRST_RUNG
        for config, row in bench_counts:
            assert row["rung_evals"]["refined"] == 1, config
            assert row["rung_evals"].get(str(CALIBRATION_RUNGS[-1]), 0) <= 2, config

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


class TestGradedNodes:
    # (scale, span): from a threshold layer 3e-16 of the span wide to one
    # 1e4 times wider than the span
    CASES = [(1e-14, 30.0), (1e-6, 1.0), (1e-3, 28.0), (1.0, 1.0), (0.3, 1e4), (10.0, 1e-3)]

    @pytest.mark.parametrize("scale,span", CASES)
    def test_rule_on_the_span(self, scale, span):
        t, w = graded_nodes(scale, span, 16)
        assert t.shape == w.shape == (16 * 16,)
        assert np.all(w > 0.0)
        assert 0.0 < t[0] and np.all(np.diff(t) > 0.0) and t[-1] < span
        assert w.sum() == pytest.approx(span, rel=1e-12)
        assert w @ np.exp(-t) == pytest.approx(-math.expm1(-span), rel=1e-12)

    def test_array_span_is_one_rule_per_row(self):
        spans = np.array([1e-3, 0.5, 30.0, 1e4])
        t, w = graded_nodes(1e-4, spans, 4)
        assert t.shape == w.shape == (4, 4 * 16)
        for k, span in enumerate(spans):
            t_k, w_k = graded_nodes(1e-4, span, 4)
            np.testing.assert_allclose(t[k], t_k, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(w[k], w_k, rtol=1e-15, atol=0.0)


class TestTolerances:
    def test_rejects_nonpositive(self):
        from secthru import ValidationError

        with pytest.raises(ValidationError):
            Tolerances(root_tol=0.0)
        with pytest.raises(ValidationError):
            Tolerances(max_iter=0)
