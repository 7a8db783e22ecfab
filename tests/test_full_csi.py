import gc
import math
import weakref
from functools import partial

import numpy as np
import pytest

from secthru import LinkBudget, Tolerances, make_qos, solve_full
from secthru import _region, full_csi
from secthru.full_csi import mean_power_full, power_grid, transmit_region_expectation
from secthru._region import CALIBRATION_RUNGS, NodePowers, throughput_readout
from secthru.numerics import calibrate
from oracles import (brute_power_full, closed_form_power_beta1, kkt_lhs_full, secrecy_mgf_term,
                     simpson)

TOL = Tolerances()


def closed_form_mean_rate(link, law, tol):
    """Mean secrecy rate (bits/s/Hz) of the theta = 0 policy assembled directly:
    the closed-form power (power_grid at beta = 0) calibrated on its nats
    multiplier, coarse stages on the rungs of the solver's ladder, then E{log2 r}.
    """
    def expect(lam, integrand, floor, t, panels=None):
        return transmit_region_expectation(lam, 0.0, link, law, law, t, integrand, floor,
                                           panels)

    def mean_power(panels):
        return lambda lam, t: expect(lam, lambda mu, zm, ze: mu, max(link.avg_snr, 1e-6), t,
                                     panels).value

    lam, _ = calibrate(mean_power(None), link.avg_snr,
                       math.log(law.tail_cutoff(tol.quad_trunc_mass)), tol,
                       [mean_power(n) for n in CALIBRATION_RUNGS])
    rate = expect(lam, lambda mu, zm, ze: (np.log1p(mu * zm) - np.log1p(link.gamma * mu * ze))
                  / math.log(2.0), 0.01, tol)
    return max(0.0, rate.value)


def pointwise_power(z_m, z_e, gamma, beta, lam):
    """power_grid at one state."""
    return float(power_grid([z_m], [z_e], gamma, beta, lam, TOL)[0])


class TestPointwisePower:
    def test_zero_gain_state(self):
        # z_m - gamma*z_e = 0 <= lam/beta: silent
        assert pointwise_power(1.0, 1.0, 1.0, beta=1.0, lam=0.1) == 0.0

    def test_beta1_closed_form_spec_point(self):
        mu = pointwise_power(2.0, 0.5, 1.0, beta=1.0, lam=0.5)
        assert mu == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0, abs=1e-10)

    def test_brute_force_spec_point(self):
        beta = make_qos(0.01).beta  # 2.8854
        mu = pointwise_power(2.0, 0.5, 1.0, beta=beta, lam=1.0)
        assert mu == pytest.approx(brute_power_full(2.0, 0.5, 1.0, beta, 1.0), abs=1e-3)

    def test_beta1_closed_form_random_states(self, link):
        rng = np.random.default_rng(5)
        z_m = rng.exponential(1.0, 200)
        z_e = rng.exponential(1.0, 200)
        lam = 0.4
        mu = power_grid(z_m, z_e, 1.0, 1.0, lam, TOL)
        assert np.max(np.abs(mu - closed_form_power_beta1(z_m, z_e, 1.0, lam))) < 1e-8

    def test_kkt_residual(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            z_m, z_e = rng.exponential(1.0, 2)
            beta = rng.uniform(0.2, 6.0)
            lam = rng.uniform(0.02, 1.5)
            mu = pointwise_power(z_m, z_e, 1.0, beta, lam)
            if mu > 0:
                resid = abs(float(kkt_lhs_full(mu, z_m, z_e, 1.0, beta)) - lam)
                worst = max(worst, resid / lam)
        assert worst < 1e-8

    def test_threshold_is_exact(self, link):
        lam, beta, gamma = 0.6, 1.2, 1.0
        rng = np.random.default_rng(2)
        z_e = rng.exponential(1.0, 500)
        z_m = rng.exponential(1.0, 500)
        mu = power_grid(z_m, z_e, gamma, beta, lam, TOL)
        active = (z_m - gamma * z_e) > lam / beta
        assert np.array_equal(mu > 0.0, active)  # exact zeros off the transmit set
        near = gamma * z_e + lam / beta
        assert np.all(power_grid(near * (1.0 - 1e-9), z_e, gamma, beta, lam, TOL)
                      [near * (1.0 - 1e-9) - gamma * z_e <= lam / beta] == 0.0)
        assert np.all(power_grid(near + 1e-3, z_e, gamma, beta, lam, TOL) > 0.0)

    def test_objective_convexity_spot_check(self):
        # second differences of the per-state objective on the transmit region
        mus = np.linspace(0.0, 5.0, 201)
        for z_m, z_e, gamma, beta in [(2.0, 0.5, 1.0, 1.0), (3.0, 0.4, 2.0, 4.0), (1.5, 0.1, 0.5, 0.3)]:
            if z_m <= gamma * z_e:
                continue
            f = secrecy_mgf_term(mus, z_m, z_e, gamma, beta)
            assert np.all(np.diff(f, 2) >= -1e-12)


class TestMeanPower:
    def test_large_multiplier_silences(self, law, link):
        assert mean_power_full(1e6, 1.0, link, law, law) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_lambda(self, law, link, fast_tol):
        values = [mean_power_full(lam, 1.0, link, law, law, fast_tol)
                  for lam in (0.05, 0.1, 0.3, 0.8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monte_carlo_cross_check(self, law, link):
        # beta = 1 closed form sampled over 1e7 states
        lam = 0.5
        quad = mean_power_full(lam, 1.0, link, law, law)
        rng = np.random.default_rng(99)
        n = 10_000_000
        z_m = rng.exponential(1.0, n)
        z_e = rng.exponential(1.0, n)
        mu = closed_form_power_beta1(z_m, z_e, 1.0, lam)
        se = mu.std() / math.sqrt(n)
        assert abs(quad - mu.mean()) < 3.0 * se


class TestCalibration:
    def test_hits_budget(self, law, link, fast_tol, qos_beta1):
        nu = solve_full(qos_beta1, link, law, law, fast_tol).nu
        mean = mean_power_full(nu, 1.0, link, law, law, fast_tol)
        assert abs(mean - link.avg_snr) <= fast_tol.power_rel_tol * link.avg_snr

    def test_monte_carlo_policy_spends_budget(self, law, link, fast_tol, qos_beta1):
        lam = solve_full(qos_beta1, link, law, law, fast_tol).lam
        rng = np.random.default_rng(3)
        n = 10_000_000
        z_m = rng.exponential(1.0, n)
        z_e = rng.exponential(1.0, n)
        mu = closed_form_power_beta1(z_m, z_e, 1.0, lam)
        se = mu.std() / math.sqrt(n)
        assert abs(mu.mean() - 1.0) < 3.0 * se + 1e-4

    def test_zero_budget_degenerates(self, law, qos_beta1):
        sol = solve_full(qos_beta1, LinkBudget(0.0, 1.0), law, law)
        assert math.isinf(sol.nu) and math.isinf(sol.lam)

    def test_mean_power_evaluations(self, law, link, monkeypatch):
        # theta = 0.1 at 0 dB; the solve looks mean_power_full up through its
        # module, so patching the attribute sees every evaluation
        calls = []

        def counted(nu, *args):
            calls.append(nu)
            return mean_power_full(nu, *args)

        monkeypatch.setattr(full_csi, "mean_power_full", counted)
        qos = make_qos(0.1)
        sol = solve_full(qos, link, law, law, TOL)
        assert sol.nu in calls  # the calibrator works on nu = lam/beta
        assert sol.lam == qos.beta * sol.nu
        assert len(calls) <= 12
        solved = len(calls)  # the readout ran in the solve; the policy adds no evaluation
        sol.policy().state_power(np.array([1.0, 3.0]), np.array([0.2, 0.5]))
        assert len(calls) == solved


class TestSolve:
    """solve_full against the public entry points, and the node store's lifetime."""

    @pytest.mark.parametrize("theta", [0.0, 0.01])
    def test_matches_the_public_entry_points(self, law, link, fast_tol, theta):
        # the names bench/ calls the solve and the policy build by
        from secthru.full_csi import build_policy_full, throughput_full

        qos = make_qos(theta)
        sol = solve_full(qos, link, law, law, fast_tol)
        assert throughput_full is solve_full
        again = solve_full(qos, link, law, law, fast_tol)
        assert (sol.throughput_bits_s_hz, sol.lam, sol.power_residual, sol.quad_error) == (
            again.throughput_bits_s_hz, again.lam, again.power_residual, again.quad_error)
        assert (sol.csi_mode, sol.beta, sol.threshold) == ("full", qos.beta, sol.nu)
        mine, public = sol.policy(), build_policy_full(qos, link, law, law, fast_tol)
        assert mine.csi_mode == public.csi_mode == "full"
        z = np.linspace(0.0, 4.0, 21)
        assert np.array_equal(mine.state_power(z[None, :], z[:, None]),
                              public.state_power(z[None, :], z[:, None]))

    def test_node_store_dropped_on_return(self, law, link, monkeypatch):
        stores = []

        class Recorded(NodePowers):
            def __init__(self):
                super().__init__()
                stores.append(weakref.ref(self))

        monkeypatch.setattr(_region, "NodePowers", Recorded)
        sol = solve_full(make_qos(0.1), link, law, law, TOL)
        gc.collect()
        assert len(stores) == 1
        assert stores[0]() is None  # no node grid outlives the solve
        assert sol.throughput_bits_s_hz > 0.0  # while the solution lives


class TestThroughput:
    def test_zero_snr(self, law):
        res = solve_full(make_qos(0.01), LinkBudget(0.0, 1.0), law, law)
        assert res.throughput_bits_s_hz == 0.0

    def test_dominated_by_eavesdropper(self, law, fast_tol):
        res = solve_full(make_qos(0.01), LinkBudget(1.0, 1e6), law, law, fast_tol)
        assert res.throughput_bits_s_hz <= 1e-3

    def test_theta_to_zero_continuity(self, law, link, fast_tol):
        res = solve_full(make_qos(1e-6), link, law, law, fast_tol)
        erg = solve_full(make_qos(0.0), link, law, law, fast_tol).throughput_bits_s_hz
        assert abs(res.throughput_bits_s_hz - erg) <= 1e-3

    def test_theta_zero_routes_to_benchmark(self, law, link, fast_tol):
        res = solve_full(make_qos(0.0), link, law, law, fast_tol)
        erg = closed_form_mean_rate(link, law, fast_tol)
        assert res.throughput_bits_s_hz == pytest.approx(erg, abs=1e-12)

    def test_matches_assembly_with_idle_mass(self, law, link):
        # -ln E{r^-beta}/(beta ln 2) from a 2001 x 2001 Simpson rule over the whole
        # truncated state square, idle states at r^-beta = 1, against the readout,
        # which integrates only 1 - r^-beta over the transmit region
        qos = make_qos(0.01)
        sol = solve_full(qos, link, law, law, TOL)
        z = np.linspace(0.0, law.tail_cutoff(TOL.quad_trunc_mass), 2001)
        zm, ze = z[None, :], z[:, None]
        mu = power_grid(zm, ze, link.gamma, qos.beta, sol.lam, TOL)
        r_beta = np.exp(-qos.beta * (np.log1p(mu * zm) - np.log1p(link.gamma * mu * ze)))
        h = z[1] - z[0]
        inner = np.array([simpson(row, h) for row in r_beta * law.density(zm)])
        value = -math.log(simpson(inner * law.density(z), h)) / (qos.beta * math.log(2.0))
        assert value == pytest.approx(sol.throughput_bits_s_hz, rel=1e-3)

    def test_diagnostics_populated(self, law, link, fast_tol):
        res = solve_full(make_qos(0.01), link, law, law, fast_tol)
        assert res.lam > 0.0
        assert res.power_residual <= fast_tol.power_rel_tol * link.avg_snr
        assert res.quad_error < 1e-4


ROWS = [(theta, snr_db) for theta in (0.01, 0.1) for snr_db in (0.0, 10.0)]


def row_link(snr_db):
    return LinkBudget(avg_snr=10.0 ** (snr_db / 10.0), gamma=1.0)


class TestNodeReuse:
    """One solve solves the powers of each (multiplier, node set) once."""

    @pytest.mark.parametrize("theta, snr_db", ROWS)
    def test_no_node_set_solved_twice(self, law, theta, snr_db, monkeypatch):
        solved, lanes = [], _region.power_lanes

        def counted(z_m, coef, *args):
            solved.append((args[2], z_m.size))  # (nu, lanes)
            return lanes(z_m, coef, *args)

        monkeypatch.setattr(full_csi, "power_lanes", counted)
        solve_full(make_qos(theta), row_link(snr_db), law, law, TOL)
        assert solved
        assert len(set(solved)) == len(solved)

    @pytest.mark.parametrize("theta, snr_db", ROWS)
    def test_readout_equals_one_without_store(self, law, theta, snr_db):
        qos, link = make_qos(theta), row_link(snr_db)
        sol = solve_full(qos, link, law, law, TOL)
        fresh = throughput_readout(qos.beta, link.gamma, partial(
            transmit_region_expectation, sol.nu, qos.beta, link, law, law, TOL))
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
        solve_full(make_qos(0.1), link, law, law, TOL)
        assert len(stores) == 1
        (store,) = stores
        assert len({nu for nu, _ in asked}) > 1  # the calibration moved nu
        last = asked[-1][0]
        assert store.nu == last
        assert set(store.grids) == {n for nu, n in asked if nu == last}
        for n, mu in store.grids.items():
            assert mu.shape == (16 * n, 16 * n)  # the 16-point rule on n panels per axis


class TestPolicySurface:
    def test_zero_set_matches_threshold(self, law, link, fast_tol):
        sol = solve_full(make_qos(0.01), link, law, law, fast_tol)
        z = np.linspace(0.0, 4.0, 21)
        surface = sol.policy().state_power(z[None, :], z[:, None])
        ze_grid, zm_grid = np.meshgrid(z, z, indexing="ij")
        silent = zm_grid - ze_grid <= sol.threshold
        assert np.all(surface[silent] == 0.0)
        assert np.all(surface[~silent] > 0.0)

    def test_empty_grid(self, law, link, fast_tol):
        policy = solve_full(make_qos(0.01), link, law, law, fast_tol).policy()
        z = np.array([])
        assert policy.state_power(z[None, :], z[:, None]).shape == (0, 0)


class TestPolicyObject:
    def test_threshold_and_zero_rule(self, law, link, fast_tol):
        sol = solve_full(make_qos(0.01), link, law, law, fast_tol)
        policy = sol.policy()
        assert policy.csi_mode == "full"
        assert sol.threshold == pytest.approx(sol.lam / sol.beta)
        z_e = np.array([0.2, 1.0, 2.5])
        below = policy.state_power(z_e + sol.threshold * 0.99, z_e)
        above = policy.state_power(z_e + sol.threshold * 1.01, z_e)
        assert np.all(below == 0.0)
        assert np.all(above > 0.0)

    def test_zero_budget_policy(self, law):
        policy = solve_full(make_qos(0.01), LinkBudget(0.0, 1.0), law, law).policy()
        assert np.all(policy.state_power(np.array([1.0, 5.0]), np.array([0.1, 0.2])) == 0.0)
