"""The main-CSI simulation table's evaluator: bitwise np.interp on its nodes,
with the node interval found by a bucket index instead of a binary search.
"""

import numpy as np
import pytest

from secthru import FadingLaw, LinkBudget, Tolerances, make_qos, solve_main
from secthru.main_csi import main_policy_table, main_table_nodes, table_lookup

TOL = Tolerances()


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("gamma, mean_e", [(1.0, 1.0), (3.0, 1.0), (1.0, 0.1), (1.0, 10.0)])
def test_policy_table_is_bitwise_the_interpolated_nodes(gamma, mean_e):
    # the criterion-7 point (theta 0.01, 0 dB, Exp(1) gains) and its variants
    qos, link = make_qos(0.01), LinkBudget(avg_snr=1.0, gamma=gamma)
    law_m, law_e = FadingLaw(), FadingLaw(mean_gain=mean_e)
    sol = solve_main(qos, link, law_m, law_e, TOL)
    args = (qos.beta, sol.nu, sol.threshold, gamma, law_m, law_e, TOL, sol.panels)
    grid, mu = main_table_nodes(*args)
    state_power = main_policy_table(*args)
    alpha = sol.threshold
    rng = np.random.default_rng(int(gamma * 10 + mean_e * 100))
    z = np.concatenate([rng.exponential(1.0, 200_000), grid,
                        [alpha, np.nextafter(alpha, np.inf), 0.0, grid[-1], 2.0 * grid[-1]]])
    expected = np.where(z <= alpha, 0.0, np.interp(z, grid, mu))
    assert np.array_equal(bits(state_power(z)), bits(expected))


@pytest.mark.parametrize("width, bunched", [(0.3, 20), (1e-3, 300)])
def test_lookup_is_np_interp_on_a_clustered_grid(width, bunched):
    # nodes bunched within one bucket need as many advance steps as they
    # number; queries cover both ends, the nodes, their neighbours and
    # non-finite values
    rng = np.random.default_rng(7)
    corner = 0.37
    offsets = np.unique(np.concatenate([np.geomspace(1e-7, 50.0, 200),
                                        2.0 + width * rng.random(bunched)]))
    grid = corner + np.concatenate([[0.0], offsets])
    values = np.cumsum(rng.random(grid.size))
    z = np.concatenate([rng.exponential(2.0, 100_000), grid, np.nextafter(grid, np.inf),
                        np.nextafter(grid, -np.inf), corner + 2.0 + width * rng.random(10_000),
                        [-1.0, 0.0, 1e300, np.inf, -np.inf]])
    interp = table_lookup(grid, values)
    assert np.array_equal(bits(interp(z)), bits(np.interp(z, grid, values)))
    assert np.isnan(interp(np.array([np.nan]))[0])


def test_lookup_leaves_its_input_alone():
    grid = 1.0 + np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 64)])
    z = np.linspace(0.5, 12.0, 1000)
    before = z.copy()
    table_lookup(grid, np.sqrt(grid))(z)
    assert np.array_equal(z, before)


def test_lookup_keeps_the_shape_of_its_input():
    grid = 1.0 + np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 64)])
    values = np.sqrt(grid)
    interp = table_lookup(grid, values)
    for z in (2.5, np.array(2.5), np.linspace(0.5, 12.0, 12).reshape(3, 4)):
        got = interp(z)
        assert np.shape(got) == np.shape(z)
        assert np.array_equal(bits(got), bits(np.interp(z, grid, values)))
