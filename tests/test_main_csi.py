import gc
import math
import weakref
from functools import partial

import numpy as np
import pytest

from secthru import (
    FadingLaw,
    LinkBudget,
    NumericsError,
    Tolerances,
    make_qos,
    solve_full,
    solve_main,
)
from secthru import _region, main_csi
from secthru.checks import main_power_at
from secthru.full_csi import power_grid
from secthru.main_csi import (
    alpha_threshold,
    idle_marginal_gain,
    main_policy_table,
    main_region_expectation,
    main_table_nodes,
    mean_power_main,
)
from secthru._region import NodePowers, throughput_readout
from secthru.model import SERIES_BELOW, excess_series
from oracles import (
    brute_power_main,
    grid_power_main,
    simpson,
    simpson_density,
    stationarity_lhs_main,
)

TOL = Tolerances()


class TestKktLhsMain:
    """The stationarity left side that kkt-residual-main holds the power evaluator to."""

    def test_empty_region(self, law):
        assert stationarity_lhs_main(0.0, 0.5, 1.0, 1.0, law) == 0.0

    def test_zero_power_analytic(self, law):
        # gamma=1, Exp(1): beta * (z - 1 + e^-z)
        for beta in (1.0, 2.0):
            for z in (0.5, 2.0, 5.0):
                expected = beta * (z - 1.0 + math.exp(-z))
                assert stationarity_lhs_main(z, 0.0, 1.0, beta, law) == pytest.approx(
                    expected, rel=1e-9)

    def test_spec_point_closed_form(self, law):
        # (z_M=2, mu=0.5, gamma=1, beta=1): the ratio factors cancel and the
        # integral collapses to (1/4) * int_0^2 (2-t) e^-t dt = (1 + e^-2)/4
        value = stationarity_lhs_main(2.0, 0.5, 1.0, 1.0, law)
        assert value == pytest.approx((1.0 + math.exp(-2.0)) / 4.0, rel=1e-10)

    def test_against_dense_quadrature(self, law):
        def weight(ze):
            log_ratio = np.log1p(0.5 * 2.0) - np.log1p(0.5 * ze)
            return 1.0 * np.exp(-2.0 * log_ratio) * (2.0 - ze) / (1.0 + 0.5 * ze) ** 2

        oracle = simpson_density(weight, law, 0.0, 2.0, n=40001)
        assert stationarity_lhs_main(2.0, 0.5, 1.0, 1.0, law) == pytest.approx(oracle, rel=1e-8)

    def test_decreasing_in_mu(self, law):
        values = [stationarity_lhs_main(2.0, mu, 1.0, 2.0, law) for mu in (0.0, 0.2, 1.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestPowerMain:
    """The main-CSI power evaluator, main_csi.main_power, at one gain on the table's
    inner rule (checks.main_power_at).
    """

    def test_silent_below_threshold(self, law, link):
        alpha = alpha_threshold(0.1, link, law, law)
        assert main_power_at(alpha * (1.0 - 1e-6), 1.0, 2.0, 0.2, law, TOL) == 0.0
        assert main_power_at(alpha * (1.0 + 1e-3), 1.0, 2.0, 0.2, law, TOL) > 0.0

    def test_no_eavesdropper_limit(self):
        # a vanishing eavesdropper gain reduces the condition to
        # beta * z_m / (1 + mu z_m)^2 = lam, i.e. water-filling-like closed
        # form; the inner rule resolves a law of mean 1e-9 at 2^14 panels
        law_e = FadingLaw(mean_gain=1e-9)
        z_m, lam = 2.0, 0.3
        mu = float(main_csi.main_power(np.array([z_m]), 2 ** 14, 1.0, lam, 1.0, law_e, TOL)[0][0])
        expected = (math.sqrt(z_m / lam) - 1.0) / z_m
        assert mu == pytest.approx(expected, rel=1e-5)
        full = float(power_grid([z_m], [0.0], 1.0, 1.0, lam, TOL)[0])
        assert mu == pytest.approx(full, rel=1e-5)

    def test_fixed_rule_raises_on_a_narrow_eavesdropper_law(self, law, link):
        # at eavesdropper mean 1e-9 the 64-panel rule's zero-power gain at
        # z_m = 2 is 1.6e-4 against 2.0 in closed form, and its power would
        # be 0; near the cutoff z_m = 0.3 it reads 0.40 against 0.30. The
        # table climbs from 8 panels and raises at 64
        law_e = FadingLaw(mean_gain=1e-9)
        with pytest.raises(NumericsError, match="checks.main_power_at"):
            main_power_at(2.0, 1.0, 1.0, 0.3, law_e, TOL)
        alpha = alpha_threshold(0.3, link, law, law_e, TOL)
        with pytest.raises(NumericsError, match="main_policy_table: the 64-panel"):
            main_policy_table(1.0, 0.3, alpha, 1.0, law, law_e, TOL, 8)

    def test_brute_force_spec_point(self, law):
        mu = main_power_at(2.0, 1.0, 1.0, 0.3, law, TOL)
        oracle = brute_power_main(2.0, 1.0, 1.0, 0.3, law)
        assert mu == pytest.approx(oracle, abs=1e-3)

    @pytest.mark.parametrize("z_m, gamma, beta, lam, span", [
        (2.0, 1.0, 1.0, 0.3, 50.0),  # interior minimum
        (4.0, 0.5, 5.0, 0.05, 50.0),
        (0.5, 1.0, 1.0, 0.8, 50.0),  # below the cutoff: zero power
        (2.0, 1.0, 1.0, 0.3, 0.4),  # minimizer 0.47 beyond span: the grid scan
    ])
    def test_golden_section_matches_the_grid_scan(self, law, z_m, gamma, beta, lam, span):
        golden = brute_power_main(z_m, gamma, beta, lam, law, span=span)
        grid = grid_power_main(z_m, gamma, beta, lam, law, span=span)
        assert abs(golden - grid) <= 2e-8 * span  # the grid's last step
        if span < 0.47:
            assert golden == grid

    def test_kkt_residual(self, law):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(25):
            z_m = rng.uniform(0.5, 5.0)
            beta = rng.uniform(0.4, 4.0)
            lam = rng.uniform(0.05, 0.6)
            mu = main_power_at(z_m, 1.0, beta, lam, law, TOL)
            if mu > 0:
                resid = abs(stationarity_lhs_main(z_m, mu, 1.0, beta, law) - lam)
                worst = max(worst, resid / lam)
        assert worst < 1e-8

    def test_nondecreasing_near_threshold(self, law, link):
        alpha = alpha_threshold(0.25 / 1.5, link, law, law)
        zs = alpha * (1.0 + np.array([1e-4, 1e-3, 1e-2, 5e-2, 1e-1]))
        mus = [main_power_at(z, 1.0, 1.5, 0.25, law, TOL) for z in zs]
        assert all(b >= a for a, b in zip(mus, mus[1:]))


class TestAlphaThreshold:
    def test_zero_multiplier(self, law, link):
        assert alpha_threshold(0.0, link, law, law) == 0.0

    def test_cdf_area_form_gamma1(self, law, link):
        # nu = lam/beta = 0.1: alpha solves a - 1 + e^-a = 0.1
        alpha = alpha_threshold(0.1, link, law, law)
        f = lambda a: a - 1.0 + math.exp(-a) - 0.1
        lo, hi = 0.0, 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        assert alpha == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    def test_forms_agree_at_gamma1(self, law, link):
        # the zero-power-gain root equals the integration-by-parts form
        # Int_0^alpha P(z_E <= t) dt = nu
        alpha = alpha_threshold(0.3 / 1.7, link, law, law)

        def cdf_area(a, n=2001):
            return simpson(law.cdf(np.linspace(0.0, a, n)), a / (n - 1))

        lo, hi = 0.0, 30.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if cdf_area(mid) > 0.3 / 1.7:
                hi = mid
            else:
                lo = mid
        assert alpha == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    def test_general_gamma(self, law):
        link = LinkBudget(1.0, gamma=2.0)
        alpha = alpha_threshold(0.1, link, law, law)
        assert stationarity_lhs_main(alpha, 0.0, 2.0, 2.0, law) == pytest.approx(0.2, abs=1e-9)

    def test_unreachable_multiplier(self, law, link):
        assert math.isinf(alpha_threshold(1e9, link, law, law))
        assert math.isinf(alpha_threshold(math.inf, link, law, law))

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("mean_e", [0.1, 1.0, 10.0])
    def test_closed_form_gain_matches_quadrature(self, law, gamma, mean_e):
        # the gain is read from law_e.integrated_cdf; quadrature of its
        # definition must agree, also at z/(gamma*m) <= 1e-6, where the plain
        # z - gamma*m*(1 - e^-x) loses up to 1e-6 relative to cancellation
        law_e = FadingLaw(mean_gain=mean_e)
        worst = worst_plain = 0.0
        for z in np.geomspace(1e-10, law.tail_cutoff(TOL.quad_trunc_mass), 41):
            # the stationarity left side at zero power and beta = 1 is the gain
            ref = stationarity_lhs_main(z, 0.0, gamma, 1.0, law_e)
            worst = max(worst, abs(idle_marginal_gain(z, gamma, law_e) - ref) / ref)
            x = z / (gamma * mean_e)
            if x <= 1e-6:
                plain = z - gamma * mean_e * -math.expm1(-x)
                worst_plain = max(worst_plain, abs(plain - ref) / ref)
        assert worst <= 1e-12
        assert worst_plain > 1e-10  # the grid reaches the cancellation range

    # c = nu/(gamma*m_e) from 1e-20 to 1e3, and densely on both sides of the
    # series switch at x = SERIES_BELOW, where c = g(x) is about 8e-6
    C_GRID = [*np.geomspace(1e-20, 1e3, 47),
              *(excess_series(x) for x in np.linspace(0.5, 2.0, 61) * SERIES_BELOW)]
    # a main-channel law whose truncation point (2.8e5) leaves every cutoff
    # below finite, at every gamma*m_e from 0.3 to 3
    WIDE = FadingLaw(mean_gain=1e4)

    @staticmethod
    def scaled_gain(x):
        return excess_series(x) if x < SERIES_BELOW else x + math.expm1(-x)

    def bisection(self, c):
        """The root of g(x) = c to adjacent floats, by bisection on [0, 1 + c]."""
        lo, hi = 0.0, 1.0 + c
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if self.scaled_gain(mid) < c else (lo, mid)
        return hi

    def test_newton_matches_bisection_on_the_closed_form(self, law):
        # gamma = m_e = 1, so nu = c and alpha = x
        link = LinkBudget(1.0, 1.0)
        for c in map(float, self.C_GRID):
            ref = self.bisection(c)
            alpha = alpha_threshold(c, link, self.WIDE, law, TOL)
            assert abs(alpha - ref) <= 1e-13 * ref, (c, alpha, ref)

    def test_iterates_fall_monotonically_within_ten_steps(self, law, monkeypatch):
        # the first gain read is the one at the truncation point; every later
        # one is at a Newton iterate
        xs = []

        def recorded(x):
            xs.append(x)
            return self.scaled_gain(x)

        monkeypatch.setattr(main_csi, "_scaled_gain", recorded)
        for gamma, mean_e in ((1.0, 1.0), (0.3, 10.0), (3.0, 0.1)):
            link, law_e = LinkBudget(1.0, gamma), FadingLaw(mean_gain=mean_e)
            for c in map(float, self.C_GRID):
                xs.clear()
                alpha_threshold(c * gamma * mean_e, link, self.WIDE, law_e, TOL)
                iterates = xs[1:]
                assert 1 <= len(iterates) <= 10, (gamma, mean_e, c, iterates)
                assert all(b < a for a, b in zip(iterates, iterates[1:])), (c, iterates)

    @pytest.mark.parametrize("gamma, mean_e", [(1.0, 1.0), (0.3, 10.0), (3.0, 0.1)])
    def test_infinite_exactly_beyond_the_gain_at_the_truncation_point(self, law, gamma,
                                                                        mean_e):
        link, law_e = LinkBudget(1.0, gamma), FadingLaw(mean_gain=mean_e)
        scale = gamma * mean_e
        z_hi = law.tail_cutoff(TOL.quad_trunc_mass)
        g_hi = self.scaled_gain(z_hi / scale)
        for k in range(-4, 5):
            nu = g_hi * (1.0 + k * 1e-15) * scale
            alpha = alpha_threshold(nu, link, law, law_e, TOL)
            assert math.isinf(alpha) == (g_hi <= nu / scale), (k, alpha)
        below = alpha_threshold(g_hi * (1.0 - 1e-12) * scale, link, law, law_e, TOL)
        assert below == pytest.approx(z_hi, rel=1e-9)

    def test_tolerance_below_the_float_floor(self, law):
        # a relative step of 1e-16 is below an ulp, so Newton ends on the
        # floating-point floor instead
        link, tight = LinkBudget(1.0, 1.0), Tolerances(root_tol=1e-16)
        for c in map(float, self.C_GRID):
            alpha = alpha_threshold(c, link, self.WIDE, law, tight)
            assert alpha == pytest.approx(self.bisection(c), rel=1e-13)

    def test_step_budget_exhausted(self, law, link):
        with pytest.raises(NumericsError, match="1 Newton steps") as info:
            alpha_threshold(0.5, link, law, law, Tolerances(max_iter=1))
        assert info.value.best > alpha_threshold(0.5, link, law, law, TOL)


class TestCalibrationMain:
    def test_hits_budget(self, law, link, fast_tol, qos_beta1):
        nu = solve_main(qos_beta1, link, law, law, fast_tol).nu
        mean = mean_power_main(nu, 1.0, link, law, law, fast_tol)
        assert abs(mean - link.avg_snr) <= fast_tol.power_rel_tol * link.avg_snr

    def test_differs_from_full_csi(self, law, link, fast_tol, qos_beta1):
        lam_m = solve_main(qos_beta1, link, law, law, fast_tol).lam
        lam_f = solve_full(qos_beta1, link, law, law, fast_tol).lam
        assert abs(lam_m - lam_f) / lam_f > 1e-3

    def test_zero_budget(self, law, qos_beta1):
        sol = solve_main(qos_beta1, LinkBudget(0.0, 1.0), law, law)
        assert math.isinf(sol.nu) and math.isinf(sol.threshold)

    def test_mean_power_evaluations(self, law, link, monkeypatch):
        # the solve looks mean_power_main up through its module, so patching
        # the attribute sees every evaluation
        calls = []

        def counted(nu, *args):
            calls.append(nu)
            return mean_power_main(nu, *args)

        monkeypatch.setattr(main_csi, "mean_power_main", counted)
        qos = make_qos(0.1)
        sol = solve_main(qos, link, law, law, TOL)
        assert sol.nu in calls
        assert sol.lam == qos.beta * sol.nu
        assert len(calls) <= 12
        solved = len(calls)  # the readout ran in the solve; the table adds no evaluation
        sol.policy().state_power(np.array([0.5, 2.0]))
        assert len(calls) == solved


class TestSolveMain:
    """solve_main against the public entry points, and the node store's lifetime."""

    @pytest.mark.parametrize("theta", [0.0, 0.01])
    def test_matches_the_public_entry_points(self, law, link, fast_tol, theta):
        # the names bench/ calls the solve and the policy build by
        from secthru.main_csi import build_policy_main, throughput_main

        qos = make_qos(theta)
        sol = solve_main(qos, link, law, law, fast_tol)
        assert throughput_main is solve_main
        again = solve_main(qos, link, law, law, fast_tol)
        assert (sol.throughput_bits_s_hz, sol.lam, sol.power_residual, sol.quad_error) == (
            again.throughput_bits_s_hz, again.lam, again.power_residual, again.quad_error)
        assert (sol.csi_mode, sol.beta) == ("main", qos.beta)
        assert sol.threshold == alpha_threshold(sol.nu, link, law, law, fast_tol)
        mine, public = sol.policy(), build_policy_main(qos, link, law, law, fast_tol)
        assert mine.csi_mode == public.csi_mode == "main"
        z = np.linspace(0.0, 6.0, 61)
        assert np.array_equal(mine.state_power(z), public.state_power(z))

    def test_node_store_dropped_on_return(self, law, link, fast_tol, monkeypatch):
        stores = []

        class Recorded(NodePowers):
            def __init__(self):
                super().__init__()
                stores.append(weakref.ref(self))

        monkeypatch.setattr(_region, "NodePowers", Recorded)
        sol = solve_main(make_qos(0.1), link, law, law, fast_tol)
        gc.collect()
        assert len(stores) == 1
        assert stores[0]() is None  # no node grid outlives the solve
        assert sol.throughput_bits_s_hz > 0.0  # while the solution lives


class TestThroughputMain:
    def test_zero_snr(self, law):
        res = solve_main(make_qos(0.01), LinkBudget(0.0, 1.0), law, law)
        assert res.throughput_bits_s_hz == 0.0

    def test_never_beats_full_csi(self, law, link, fast_tol):
        for theta in (0.003, 0.03):
            qos = make_qos(theta)
            full = solve_full(qos, link, law, law, fast_tol).throughput_bits_s_hz
            main = solve_main(qos, link, law, law, fast_tol).throughput_bits_s_hz
            assert main <= full + 1e-6

    def test_theta_to_zero_continuity(self, law, link, fast_tol):
        res = solve_main(make_qos(1e-6), link, law, law, fast_tol)
        erg = solve_main(make_qos(0.0), link, law, law, fast_tol).throughput_bits_s_hz
        assert abs(res.throughput_bits_s_hz - erg) <= 1e-3

    def test_matches_assembly_with_idle_mass(self, law, link):
        # -ln E{r^-beta}/(beta ln 2) assembled with every idle state at r^-beta = 1:
        # a 2001-point Simpson rule in z_m under the solved policy, 1 where its
        # power is 0, else a 2001-point Simpson rule over z_e < z_m/gamma plus the
        # mass P(z_e >= z_m/gamma); the readout integrates only 1 - r^-beta over
        # the transmit region
        qos = make_qos(0.01)
        sol = solve_main(qos, link, law, law, TOL)
        z_m = np.linspace(0.0, law.tail_cutoff(TOL.quad_trunc_mass), 2001)
        mu = sol.policy().state_power(z_m)
        outer = np.ones_like(z_m)
        for k in np.flatnonzero(mu > 0.0):
            ze = np.linspace(0.0, z_m[k] / link.gamma, 2001)
            log_r = np.log1p(mu[k] * z_m[k]) - np.log1p(link.gamma * mu[k] * ze)
            outer[k] = (simpson(np.exp(-qos.beta * log_r) * law.density(ze), ze[1] - ze[0])
                        + 1.0 - float(law.cdf(z_m[k] / link.gamma)))
        mean_r_beta = simpson(outer * law.density(z_m), z_m[1] - z_m[0])
        value = -math.log(mean_r_beta) / (qos.beta * math.log(2.0))
        assert value == pytest.approx(sol.throughput_bits_s_hz, rel=1e-3)

    def test_theta_zero_builds_no_table(self, law, link, fast_tol, monkeypatch):
        # only the policy tabulates the theta = 0 power map, when it is asked for
        builds = []

        def counted(*args):
            builds.append(args)
            return main_policy_table(*args)

        monkeypatch.setattr(main_csi, "main_policy_table", counted)
        sol = solve_main(make_qos(0.0), link, law, law, fast_tol)
        assert builds == []
        sol.policy()
        assert len(builds) == 1


ROWS = [(theta, snr_db) for theta in (0.01, 0.1) for snr_db in (0.0, 10.0)]


def row_link(snr_db):
    return LinkBudget(avg_snr=10.0 ** (snr_db / 10.0), gamma=1.0)


class TestNodeReuse:
    """One solve solves the powers of each (multiplier, node set) once."""

    @pytest.mark.parametrize("theta, snr_db", ROWS)
    def test_no_node_set_solved_twice(self, law, theta, snr_db, monkeypatch):
        solved, lanes = [], _region.power_lanes

        def counted(z_m, coef, *args):
            solved.append((args[2], z_m.size))  # (nu, gains)
            return lanes(z_m, coef, *args)

        monkeypatch.setattr(main_csi, "power_lanes", counted)
        solve_main(make_qos(theta), row_link(snr_db), law, law, TOL)
        assert solved
        assert len(set(solved)) == len(solved)

    @pytest.mark.parametrize("theta, snr_db", ROWS)
    def test_readout_equals_one_without_store(self, law, theta, snr_db):
        qos, link = make_qos(theta), row_link(snr_db)
        sol = solve_main(qos, link, law, law, TOL)
        fresh = throughput_readout(qos.beta, link.gamma, partial(
            main_region_expectation, sol.nu, sol.threshold, qos.beta, link, law, law, TOL))
        assert (sol.throughput_bits_s_hz, sol.quad_error, sol.panels) == fresh

    def test_store_holds_one_multiplier(self, law, link, monkeypatch):
        stores, asked = [], []

        class Recorded(NodePowers):
            def __init__(self):
                super().__init__()
                stores.append(self)

            def get(self, nu, panels, solve):
                asked.append((nu, panels))
                return super().get(nu, panels, solve)

        monkeypatch.setattr(_region, "NodePowers", Recorded)
        solve_main(make_qos(0.1), link, law, law, TOL)
        assert len(stores) == 1
        (store,) = stores
        assert len({nu for nu, _ in asked}) > 1  # the calibration moved nu
        last = asked[-1][0]
        assert store.nu == last
        assert set(store.grids) == {n for nu, n in asked if nu == last}
        for n, (mu, ze, wpe, wu) in store.grids.items():
            # main_power's result on the 16-point rule, n outer and n inner panels
            assert mu.shape == wu.shape == (16 * n,)
            assert ze.shape == wpe.shape == (16 * n, 16 * n)


@pytest.fixture(scope="module")
def main_policy():
    law = FadingLaw()
    link = LinkBudget(1.0, 1.0)
    tol = Tolerances(quad_rel_tol=1e-6, root_tol=1e-10)
    return solve_main(make_qos(0.01), link, law, law, tol), law, link, tol


class TestPolicyMain:
    def test_zero_rule_and_mode(self, main_policy):
        sol = main_policy[0]
        policy = sol.policy()
        assert policy.csi_mode == "main"
        z = np.array([sol.threshold * 0.5, sol.threshold * 0.999, sol.threshold * 1.2, 5.0])
        mu = policy.state_power(z)
        assert mu[0] == 0.0 and mu[1] == 0.0
        assert mu[2] > 0.0 and mu[3] > 0.0

    def test_zero_budget_policy(self, law):
        # a zero budget's cutoff is inf, beyond the table's range: exact zeros everywhere
        sol = solve_main(make_qos(0.01), LinkBudget(0.0, 1.0), law, law)
        z = np.array([0.0, 1.0, 5.0, 30.0])
        assert np.all(sol.policy().state_power(z) == 0.0)

    def test_table_tracks_solver(self, main_policy):
        sol, law, link, tol = main_policy
        state_power = sol.policy().state_power
        for z in (sol.threshold * 1.5, 2.0, 4.0):
            direct = main_power_at(z, link.gamma, sol.beta, sol.lam, law, tol)
            assert float(state_power(z)) == pytest.approx(direct, rel=1e-4, abs=1e-6)

    def test_table_meets_brute_force_near_cutoff(self):
        # theta 0.1, 10 dB, gamma 1: the power rises from 0 to 8.6 between
        # alpha and 1.5 alpha, with alpha = 3.3e-3
        law = FadingLaw()
        sol = solve_main(make_qos(0.1), LinkBudget(10.0, 1.0), law, law, TOL)
        z = sol.threshold * np.array([1.02, 1.1, 1.5])
        brute = [brute_power_main(zi, 1.0, sol.beta, sol.lam, law) for zi in z]
        assert np.max(np.abs(sol.policy().state_power(z) - brute)) < 1e-3

    def test_table_meets_brute_force_at_high_snr(self):
        # theta 0.1, 30 dB: the power at 1.5 alpha is about 860, beyond the
        # default brute-force search range of [0, 50]
        law = FadingLaw()
        sol = solve_main(make_qos(0.1), LinkBudget(1000.0, 1.0), law, law, TOL)
        z = 1.5 * sol.threshold
        mu = float(sol.policy().state_power(z))
        brute = brute_power_main(z, 1.0, sol.beta, sol.lam, law, span=2.0 * mu)
        assert mu > 50.0
        assert abs(mu - brute) < 1e-3 * mu

    @pytest.mark.parametrize("theta,snr_db,gamma,mean_e", [(1.0, 30.0, 0.3, 0.1),
                                                           (1e-3, 30.0, 3.0, 10.0),
                                                           (0.01, 0.0, 1.0, 1.0)])
    def test_table_midpoints_meet_the_bound(self, theta, snr_db, gamma, mean_e):
        # stress-box corners (alpha = 2.8e-7 and 2.0e-3, tables on 16 and 8
        # inner panels) and the criterion-7 point (8 panels), against the
        # power on 64 inner panels
        law_m, law_e = FadingLaw(), FadingLaw(mean_gain=mean_e)
        link = LinkBudget(10.0 ** (snr_db / 10.0), gamma)
        sol = solve_main(make_qos(theta), link, law_m, law_e, TOL)
        args = (sol.beta, sol.nu, sol.threshold, gamma, law_m, law_e, TOL, sol.panels)
        z, _ = main_table_nodes(*args)
        z_mid = 0.5 * (z[1:] + z[:-1])
        exact = np.concatenate([
            main_csi.main_power(zc, 64, sol.beta, sol.nu, gamma, law_e, TOL)[0]
            for zc in np.array_split(z_mid, z_mid.size // 16)])
        interp = main_policy_table(*args)(z_mid)
        assert np.all(np.abs(interp - exact) <= 1e-4 * np.maximum(1.0, exact))

    def test_table_climbs_to_the_rule_that_resolves_the_eavesdropper(self, monkeypatch):
        # theta 0.01, 0 dB, gamma 0.3, eavesdropper mean 0.03: the readout
        # stops at 8 panels, whose inner rule misses the zero-power check,
        # and the table starts over on 16, bitwise the table built there
        law_m, law_e = FadingLaw(), FadingLaw(mean_gain=0.03)
        sol = solve_main(make_qos(0.01), LinkBudget(1.0, 0.3), law_m, law_e, TOL)
        assert sol.panels == 8
        args = (sol.beta, sol.nu, sol.threshold, 0.3, law_m, law_e, TOL)
        with pytest.raises(main_csi.InnerRuleError, match="main_policy_table: the 8-panel"):
            main_table_nodes(*args, 8)
        grid, mu = main_table_nodes(*args, 16)
        tried = []

        def recorded(*nodes_args):
            tried.append(nodes_args[-1])
            return main_table_nodes(*nodes_args)

        monkeypatch.setattr(main_csi, "main_table_nodes", recorded)
        state_power = sol.policy().state_power
        assert tried == [8, 16]
        z = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1])])
        assert np.array_equal(state_power(z), np.interp(z, grid, mu))

    def test_table_raises_where_no_rule_resolves_the_eavesdropper(self):
        # theta 0.01, 0 dB, gamma 1, eavesdropper mean 1e-4: even the
        # 64-panel rule misses the zero-power check
        law_m, law_e = FadingLaw(), FadingLaw(mean_gain=1e-4)
        sol = solve_main(make_qos(0.01), LinkBudget(1.0, 1.0), law_m, law_e, TOL)
        with pytest.raises(NumericsError, match="main_policy_table: the 64-panel"):
            sol.policy()

    def test_table_raises_when_rounds_run_out(self, main_policy, monkeypatch):
        sol, law, link, tol = main_policy
        monkeypatch.setattr(main_csi, "_TABLE_REL_TOL", 1e-15)
        monkeypatch.setattr(main_csi, "_TABLE_ROUNDS", 2)
        with pytest.raises(NumericsError, match="main_policy_table") as err:
            main_policy_table(sol.beta, sol.nu, sol.threshold, link.gamma, law, law, tol, 8)
        z, mu = err.value.best
        assert np.all(np.diff(z) > 0.0) and z.size == mu.size

    def test_mean_power_of_table(self, main_policy):
        sol, law, link, _ = main_policy
        rng = np.random.default_rng(8)
        z = rng.exponential(1.0, 4_000_000)
        mu = sol.policy().state_power(z)
        assert mu.mean() == pytest.approx(link.avg_snr, abs=3.5 * mu.std() / math.sqrt(z.size))
