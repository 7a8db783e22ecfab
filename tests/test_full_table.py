"""The full-CSI simulation table (full_csi.full_policy_table), the map that
Solution.policy() gives queue simulation at beta > 0, against the exact map
power_grid: within 1e-4*max(1, mu) at random states, zero exactly where
power_grid is, and power_grid itself wherever the table does not serve.
"""

import itertools
import math

import numpy as np
import pytest

from secthru import FadingLaw, LinkBudget, Tolerances, make_qos, solve_full
from secthru.full_csi import full_policy_table, full_table_nodes, power_grid

TOL = Tolerances()
LAW = FadingLaw()
ZM_HI = LAW.tail_cutoff(TOL.quad_trunc_mass)
CRITERION_7 = (0.01, 0.0, 1.0)
# the corners of the realistic box in theta, SNR (dB) and gamma
CORNERS = list(itertools.product((1e-3, 1.0), (-10.0, 30.0), (0.3, 3.0)))
POINTS = [CRITERION_7] + CORNERS


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def solved():
    """{(theta, snr_db, gamma): (Solution, its state power map)}, solved once."""
    out = {}
    for theta, snr_db, gamma in POINTS:
        link = LinkBudget(avg_snr=10.0 ** (snr_db / 10.0), gamma=gamma)
        sol = solve_full(make_qos(theta), link, LAW, LAW, TOL)
        out[(theta, snr_db, gamma)] = sol, sol.policy().state_power
    return out


def states(seed, n=200_000):
    return np.random.default_rng(seed).exponential(1.0, (2, n))


@pytest.mark.parametrize("point", POINTS)
def test_table_is_within_the_bound_of_power_grid(solved, point):
    sol, state_power = solved[point]
    z_m, z_e = states(POINTS.index(point))
    mu = state_power(z_m, z_e)
    exact = power_grid(z_m, z_e, point[2], sol.beta, sol.lam, TOL)
    assert np.max(np.abs(mu - exact) / np.maximum(1.0, exact)) <= 1e-4
    # the zero set is power_grid's, bit for bit
    assert np.array_equal(mu == 0.0, exact == 0.0)
    assert np.array_equal(mu == 0.0, z_m - point[2] * z_e <= sol.nu)


def test_every_cell_serves_at_the_criterion_7_point(solved):
    sol, _ = solved[CRITERION_7]
    _, fail = full_table_nodes(sol.beta, sol.nu, math.log(ZM_HI / sol.nu), TOL)
    assert not fail.any()


@pytest.mark.parametrize("point", [CRITERION_7, (1.0, 30.0, 3.0)])
def test_states_beyond_the_l_range_are_power_grid(solved, point):
    # z_m - gamma*z_e above the truncation point of the law: past the last node
    sol, state_power = solved[point]
    gamma = point[2]
    z_e = np.array([0.0, 0.5, 2.0, 0.1])
    z_m = gamma * z_e + ZM_HI * np.array([1.0, 1.5, 3.0, 40.0])
    assert np.array_equal(bits(state_power(z_m, z_e)),
                          bits(power_grid(z_m, z_e, gamma, sol.beta, sol.lam, TOL)))


def test_states_in_failed_cells_are_power_grid(solved):
    # theta 1, 30 dB: the s -> 1 layer of width ~1/(beta+1) fails its check
    point = (1.0, 30.0, 3.0)
    sol, state_power = solved[point]
    l_hi = math.log(ZM_HI / sol.nu)
    fail = full_table_nodes(sol.beta, sol.nu, l_hi, TOL)[1]
    failed = np.argwhere(fail)
    assert failed.size
    # the centre of each failed cell
    s = ((failed[:, 0] + 0.5) / fail.shape[0]) ** 2
    z_m = sol.nu * np.exp((failed[:, 1] + 0.5) * l_hi / fail.shape[1]) / (1.0 - s)
    z_e = s * z_m / point[2]
    assert np.array_equal(bits(state_power(z_m, z_e)),
                          bits(power_grid(z_m, z_e, point[2], sol.beta, sol.lam, TOL)))


@pytest.mark.parametrize("point", POINTS)
def test_weak_eavesdropper_is_the_closed_form(solved, point):
    # at z_e = 0 the lane equation is (1 + mu*z)^-(beta+1) = nu/z: the
    # QoS-driven power adaptation mu = ((z/nu)^(1/(beta+1)) - 1)/z
    sol, state_power = solved[point]
    z = np.concatenate([np.random.default_rng(3).exponential(1.0, 50_000),
                        sol.nu * np.array([1.0 + 1e-9, 1.001, 2.0, 1e3])])
    z = z[(z > sol.nu) & (z < ZM_HI)]
    closed = np.expm1(np.log(z / sol.nu) / (sol.beta + 1.0)) / z
    z_e = np.zeros_like(z)
    for mu in (power_grid(z, z_e, point[2], sol.beta, sol.lam, TOL), state_power(z, z_e)):
        assert np.max(np.abs(mu - closed) / np.maximum(1.0, closed)) <= 1e-10


def test_each_state_is_served_alone(solved):
    # a state's power does not depend on the others in the call, fallbacks too
    sol, state_power = solved[(1.0, 30.0, 3.0)]
    z_m, z_e = states(17, 40_000)
    whole = state_power(z_m, z_e)
    parts = np.concatenate([state_power(z_m[a:a + 7_000], z_e[a:a + 7_000])
                            for a in range(0, z_m.size, 7_000)])
    assert np.array_equal(bits(whole), bits(parts))


def test_no_table_without_a_transmit_region():
    # at nu beyond the truncation point the evaluator is power_grid
    state_power = full_policy_table(2.9, 2.0 * ZM_HI, 1.0, LAW, TOL)
    z = np.array([1.0, 30.0, 100.0])
    assert np.array_equal(state_power(z, np.zeros(3)),
                          power_grid(z, np.zeros(3), 1.0, 2.9, 2.9 * 2.0 * ZM_HI, TOL))
