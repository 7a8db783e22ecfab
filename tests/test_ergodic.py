import math

import numpy as np
import pytest

from secthru import LinkBudget, ValidationError, make_qos, solve_full, solve_main
from secthru.ergodic import ergodic_power_full
from oracles import brute_power_ergodic_full

LN2 = math.log(2.0)
QOS0 = make_qos(0.0)  # theta = 0: the unconstrained mean-secrecy-rate problem


class TestErgodicPowerFull:
    def test_silent_without_advantage(self, link):
        assert float(ergodic_power_full(1.0, 1.0, link.gamma, 0.4)) == 0.0
        assert float(ergodic_power_full(0.5, 2.0, link.gamma, 0.4)) == 0.0

    def test_water_filling_limit(self, link):
        # z_e = 0 reduces to mu = 1/lam - 1/z_m
        for z_m, lam in ((2.0, 0.4), (5.0, 0.1)):
            mu = float(ergodic_power_full(z_m, 0.0, link.gamma, lam))
            assert mu == pytest.approx(1.0 / lam - 1.0 / z_m, rel=1e-12)

    def test_grid_search_spec_point(self, link):
        mu = float(ergodic_power_full(2.0, 0.5, link.gamma, 0.4))
        assert mu == pytest.approx(brute_power_ergodic_full(2.0, 0.5, 1.0, 0.4), abs=1e-5)
        # quadratic-root closed form
        disc = 1.0 + 4.0 * 0.4 * 1.1
        assert mu == pytest.approx((-1.0 + math.sqrt(disc)) / 0.8, rel=1e-12)

    def test_gamma_scaling(self):
        link = LinkBudget(1.0, gamma=2.0)
        rng = np.random.default_rng(12)
        z_m = rng.exponential(1.0, 50)
        z_e = rng.exponential(1.0, 50)
        mu = ergodic_power_full(z_m, z_e, link.gamma, 0.3)
        active = (z_m - 2.0 * z_e) > 0.3
        assert np.array_equal(mu > 0, active)
        # first-order condition holds where transmitting
        foc = (z_m - 2.0 * z_e) / ((1.0 + mu * z_m) * (1.0 + 2.0 * mu * z_e))
        assert np.allclose(foc[active], 0.3, rtol=1e-10)

    def test_rejects_nonpositive_multiplier(self, link):
        with pytest.raises(ValidationError):
            ergodic_power_full(1.0, 0.5, link.gamma, 0.0)


class TestErgodicThroughput:
    def test_zero_snr(self, law):
        assert solve_full(QOS0, LinkBudget(0.0, 1.0), law, law).throughput_bits_s_hz == 0.0
        assert solve_main(QOS0, LinkBudget(0.0, 1.0), law, law).throughput_bits_s_hz == 0.0

    def test_dominates_constrained_throughput(self, law, link, fast_tol):
        erg = solve_full(QOS0, link, law, law, fast_tol).throughput_bits_s_hz
        for theta in (0.001, 0.01, 0.1):
            qos = solve_full(make_qos(theta), link, law, law, fast_tol)
            assert erg >= qos.throughput_bits_s_hz - 1e-9

    def test_main_below_full(self, law, link, fast_tol):
        assert (solve_main(QOS0, link, law, law, fast_tol).throughput_bits_s_hz
                <= solve_full(QOS0, link, law, law, fast_tol).throughput_bits_s_hz + 1e-9)

    def test_full_monte_carlo(self, law, link, fast_tol):
        sol = solve_full(QOS0, link, law, law, fast_tol)
        policy = sol.policy()
        rng = np.random.default_rng(21)
        n = 10_000_000
        z_m = rng.exponential(1.0, n)
        z_e = rng.exponential(1.0, n)
        mu = policy.state_power(z_m, z_e)
        rate = (np.log1p(mu * z_m) - np.log1p(mu * z_e)) / LN2
        se = rate.std() / math.sqrt(n)
        assert abs(sol.throughput_bits_s_hz - rate.mean()) < 3.0 * se

    def test_main_monte_carlo(self, law, link, fast_tol):
        sol = solve_main(QOS0, link, law, law, fast_tol)
        policy = sol.policy()
        rng = np.random.default_rng(22)
        n = 10_000_000
        z_m = rng.exponential(1.0, n)
        z_e = rng.exponential(1.0, n)
        mu = policy.state_power(z_m)
        rate = np.clip((np.log1p(mu * z_m) - np.log1p(mu * z_e)) / LN2, 0.0, None)
        se = rate.std() / math.sqrt(n)
        # the tabulated policy adds a small systematic error on top of MC noise
        assert abs(sol.throughput_bits_s_hz - rate.mean()) < 3.0 * se + 2e-4

    def test_policies_spend_the_budget(self, law, link, fast_tol):
        sol = solve_full(QOS0, link, law, law, fast_tol)
        assert sol.power_residual <= fast_tol.power_rel_tol * link.avg_snr
        assert sol.beta == 0.0 and sol.threshold == sol.lam
