"""The stringent-QoS limit of both CSI modes.

r^-beta >= 0 everywhere and r = 1 wherever z_m <= gamma*z_e, so
E{r^-beta} >= P(z_m <= gamma*z_e) = gamma*m_e/(m_m + gamma*m_e), and with
C = -log2 E{r^-beta}/beta every policy, full or main CSI, has

    beta*C <= log2(1 + m_m/(gamma*m_e)).

The bound holds on every solved row of a box wider than the stress box, and a
solve at a very large beta either stays under it or raises a typed error.
"""

import itertools
import math

import pytest

from secthru import NumericsError, full_csi, main_csi
from secthru.model import FadingLaw, LinkBudget, make_qos

SOLVERS = {"full": full_csi.solve_full, "main": main_csi.solve_main}
BOX = list(itertools.product(SOLVERS, (0.01, 1.0), (-10.0, 30.0), (0.3, 1.0, 3.0),
                             (0.1, 1.0, 10.0)))
# frame durations of beta = theta*T*B/ln 2 = 1.44e6 and 1.4e13 at theta 0.01, B 1e5
LARGE_BETA_FRAMES = (1e3, 1e10)


def bound(gamma, mean_e, mean_m=1.0):
    """log2(1 + m_m/(gamma*m_e)): beta*C of any policy stays at or below it."""
    return math.log2(1.0 + mean_m / (gamma * mean_e))


def solve(mode, qos, snr_db, gamma, mean_e):
    link = LinkBudget(avg_snr=10.0 ** (snr_db / 10.0), gamma=gamma)
    return SOLVERS[mode](qos, link, FadingLaw(), FadingLaw(mean_gain=mean_e))


def test_stringent_qos_bound_holds_on_every_row():
    for mode, theta, snr_db, gamma, mean_e in BOX:
        qos = make_qos(theta)
        sol = solve(mode, qos, snr_db, gamma, mean_e)
        assert qos.beta * sol.throughput_bits_s_hz <= bound(gamma, mean_e), (
            mode, theta, snr_db, gamma, mean_e)


@pytest.mark.parametrize("frame_t", LARGE_BETA_FRAMES)
@pytest.mark.parametrize("mode", SOLVERS)
def test_large_beta_meets_the_bound_or_raises(mode, frame_t):
    # near the bound C carries only about 1/beta: no solver resolves beta 1.4e13,
    # and main CSI does not resolve 1.44e6 either; they must say so, not return junk
    qos = make_qos(0.01, frame_t)
    try:
        sol = solve(mode, qos, 0.0, 1.0, 1.0)
    except NumericsError:
        return
    assert 0.0 <= qos.beta * sol.throughput_bits_s_hz <= bound(1.0, 1.0)
