import math

import numpy as np
import pytest

from secthru import (
    FadingLaw,
    LinkBudget,
    Tolerances,
    build_policy_main,
    make_qos,
    throughput_full,
    throughput_main,
)
from secthru.full_csi import calibrate_lambda_full, pointwise_power
from secthru.main_csi import (
    alpha_threshold,
    calibrate_lambda_main,
    kkt_lhs_main,
    mean_power_main,
    power_main,
)
from secthru.numerics import find_root, integrate
from secthru._region import idle_marginal_gain, main_policy_table
from oracles import brute_power_main, simpson_density

TOL = Tolerances()


class TestKktLhsMain:
    def test_empty_region(self, law, link):
        assert kkt_lhs_main(0.0, 0.5, 1.0, link, law) == 0.0

    def test_zero_power_analytic(self, law, link):
        # gamma=1, Exp(1): beta * (z - 1 + e^-z)
        for beta in (1.0, 2.0):
            for z in (0.5, 2.0, 5.0):
                expected = beta * (z - 1.0 + math.exp(-z))
                assert kkt_lhs_main(z, 0.0, beta, link, law) == pytest.approx(expected, rel=1e-9)

    def test_spec_point_closed_form(self, law, link):
        # (z_M=2, mu=0.5, gamma=1, beta=1): the ratio factors cancel and the
        # integral collapses to (1/4) * int_0^2 (2-t) e^-t dt = (1 + e^-2)/4
        value = kkt_lhs_main(2.0, 0.5, 1.0, link, law)
        assert value == pytest.approx((1.0 + math.exp(-2.0)) / 4.0, rel=1e-10)

    def test_against_dense_quadrature(self, law, link):
        def weight(ze):
            log_ratio = np.log1p(0.5 * 2.0) - np.log1p(0.5 * ze)
            return 1.0 * np.exp(-2.0 * log_ratio) * (2.0 - ze) / (1.0 + 0.5 * ze) ** 2

        oracle = simpson_density(weight, law, 0.0, 2.0, n=40001)
        assert kkt_lhs_main(2.0, 0.5, 1.0, link, law) == pytest.approx(oracle, rel=1e-8)

    def test_decreasing_in_mu(self, law, link):
        values = [kkt_lhs_main(2.0, mu, 2.0, link, law) for mu in (0.0, 0.2, 1.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestPowerMain:
    def test_silent_below_threshold(self, law, link):
        alpha = alpha_threshold(0.1, link, law)
        assert power_main(alpha * (1.0 - 1e-6), 2.0, 0.2, link, law) == 0.0
        assert power_main(alpha * (1.0 + 1e-3), 2.0, 0.2, link, law) > 0.0

    def test_no_eavesdropper_limit(self, link):
        # a vanishing eavesdropper gain reduces the condition to
        # beta * z_m / (1 + mu z_m)^2 = lam, i.e. water-filling-like closed form
        law_e = FadingLaw(mean_gain=1e-9)
        z_m, lam = 2.0, 0.3
        mu = power_main(z_m, 1.0, lam, link, law_e)
        expected = (math.sqrt(z_m / lam) - 1.0) / z_m
        assert mu == pytest.approx(expected, rel=1e-5)
        full = pointwise_power(z_m, 0.0, link, beta=1.0, lam=lam)
        assert mu == pytest.approx(full, rel=1e-5)

    def test_brute_force_spec_point(self, law, link):
        mu = power_main(2.0, 1.0, 0.3, link, law)
        oracle = brute_power_main(2.0, 1.0, 1.0, 0.3, law)
        assert mu == pytest.approx(oracle, abs=1e-3)

    def test_kkt_residual(self, law, link):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(25):
            z_m = rng.uniform(0.5, 5.0)
            beta = rng.uniform(0.4, 4.0)
            lam = rng.uniform(0.05, 0.6)
            mu = power_main(z_m, beta, lam, link, law)
            if mu > 0:
                resid = abs(kkt_lhs_main(z_m, mu, beta, link, law) - lam)
                worst = max(worst, resid / lam)
        assert worst < 1e-8

    def test_nondecreasing_near_threshold(self, law, link):
        alpha = alpha_threshold(0.25 / 1.5, link, law)
        zs = alpha * (1.0 + np.array([1e-4, 1e-3, 1e-2, 5e-2, 1e-1]))
        mus = [power_main(z, 1.5, 0.25, link, law) for z in zs]
        assert all(b >= a for a, b in zip(mus, mus[1:]))


class TestAlphaThreshold:
    def test_zero_multiplier(self, law, link):
        assert alpha_threshold(0.0, link, law) == 0.0

    def test_cdf_area_form_gamma1(self, law, link):
        # nu = lam/beta = 0.1: alpha solves a - 1 + e^-a = 0.1
        alpha = alpha_threshold(0.1, link, law)
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
        alpha = alpha_threshold(0.3 / 1.7, link, law)
        cdf_area = find_root(
            lambda a: integrate(law.cdf, 0.0, a, TOL).value - 0.3 / 1.7, 0.0, 30.0, TOL)
        assert alpha == pytest.approx(cdf_area, abs=1e-8)

    def test_general_gamma(self, law):
        link = LinkBudget(1.0, gamma=2.0)
        alpha = alpha_threshold(0.1, link, law)
        assert kkt_lhs_main(alpha, 0.0, 2.0, link, law) == pytest.approx(0.2, abs=1e-9)

    def test_unreachable_multiplier(self, law, link):
        assert math.isinf(alpha_threshold(1e9, link, law))
        assert math.isinf(alpha_threshold(math.inf, link, law))

    def test_gain_evaluated_once_per_gain(self, law, monkeypatch):
        # the cutoff looks idle_marginal_gain up through its module, so the
        # patched attribute sees every zero-power gain quadrature
        from secthru import main_csi

        calls = []

        def counted(z, *args):
            calls.append(z)
            return idle_marginal_gain(z, *args)

        monkeypatch.setattr(main_csi, "idle_marginal_gain", counted)
        z_hi = law.tail_cutoff(TOL.quad_trunc_mass)
        for gamma in (1.0, 2.0):
            for nu in (1e-3, 1e-2, 0.1, 0.7):
                calls.clear()
                alpha = alpha_threshold(nu, LinkBudget(1.0, gamma), law, TOL)
                assert 0.0 < alpha < z_hi
                assert len(calls) == len(set(calls)), f"gamma={gamma} nu={nu}: {calls}"
                assert calls.count(z_hi) == 1


class TestCalibrationMain:
    def test_hits_budget(self, law, link, fast_tol):
        lam = calibrate_lambda_main(link, 1.0, law, law, fast_tol)
        mean = mean_power_main(lam, 1.0, link, law, law, fast_tol)
        assert abs(mean - link.avg_snr) <= fast_tol.power_rel_tol * link.avg_snr

    def test_differs_from_full_csi(self, law, link, fast_tol):
        lam_m = calibrate_lambda_main(link, 1.0, law, law, fast_tol)
        lam_f = calibrate_lambda_full(link, 1.0, law, law, fast_tol)
        assert abs(lam_m - lam_f) / lam_f > 1e-3

    def test_zero_budget(self, law):
        assert math.isinf(calibrate_lambda_main(LinkBudget(0.0, 1.0), 1.0, law, law))


class TestThroughputMain:
    def test_zero_snr(self, law):
        res = throughput_main(make_qos(0.01), LinkBudget(0.0, 1.0), law, law)
        assert res.throughput_bits_s_hz == 0.0

    def test_never_beats_full_csi(self, law, link, fast_tol):
        for theta in (0.003, 0.03):
            qos = make_qos(theta)
            full = throughput_full(qos, link, law, law, fast_tol).throughput_bits_s_hz
            main = throughput_main(qos, link, law, law, fast_tol).throughput_bits_s_hz
            assert main <= full + 1e-6

    def test_theta_to_zero_continuity(self, law, link, fast_tol):
        res = throughput_main(make_qos(1e-6), link, law, law, fast_tol)
        erg = throughput_main(make_qos(0.0), link, law, law, fast_tol).throughput_bits_s_hz
        assert abs(res.throughput_bits_s_hz - erg) <= 1e-3

    def test_theta_zero_builds_no_table(self, law, link, fast_tol, monkeypatch):
        # only the policy path tabulates the theta = 0 power map
        from secthru import main_csi

        builds = []

        def counted(*args):
            builds.append(args)
            return main_policy_table(*args)

        monkeypatch.setattr(main_csi, "main_policy_table", counted)
        throughput_main(make_qos(0.0), link, law, law, fast_tol)
        assert builds == []
        build_policy_main(make_qos(0.0), link, law, law, fast_tol)
        assert len(builds) == 1


@pytest.fixture(scope="module")
def main_policy():
    law = FadingLaw()
    link = LinkBudget(1.0, 1.0)
    tol = Tolerances(quad_rel_tol=1e-6, root_tol=1e-10)
    return build_policy_main(make_qos(0.01), link, law, law, tol), law, link, tol


class TestPolicyMain:
    def test_zero_rule_and_mode(self, main_policy):
        policy = main_policy[0]
        assert policy.csi_mode == "main"
        z = np.array([policy.threshold * 0.5, policy.threshold * 0.999,
                      policy.threshold * 1.2, 5.0])
        mu = policy.state_power(z)
        assert mu[0] == 0.0 and mu[1] == 0.0
        assert mu[2] > 0.0 and mu[3] > 0.0

    def test_table_tracks_solver(self, main_policy):
        policy, law, link, tol = main_policy
        for z in (policy.threshold * 1.5, 2.0, 4.0):
            direct = power_main(z, policy.beta, policy.lam, link, law, tol)
            assert float(policy.state_power(z)) == pytest.approx(direct, rel=1e-4, abs=1e-6)

    def test_mean_power_of_table(self, main_policy):
        policy, law, link, _ = main_policy
        rng = np.random.default_rng(8)
        z = rng.exponential(1.0, 4_000_000)
        mu = policy.state_power(z)
        assert mu.mean() == pytest.approx(link.avg_snr, abs=3.5 * mu.std() / math.sqrt(z.size))
