"""Power control and secure throughput when the transmitter sees both gains.

The optimal policy solves, state by state, the stationarity condition

    beta * r(mu)^(-beta) * (z_m - gamma*z_e) / ((1+mu*z_m)(1+gamma*mu*z_e)) = lam,
    r(mu) = (1 + mu*z_m) / (1 + gamma*mu*z_e),

whose left side decreases strictly from beta*(z_m - gamma*z_e) to 0, so the
state transmits exactly when z_m - gamma*z_e > nu and the root is unique.
Divided by beta, the condition holds for every beta >= 0 with the normalized
multiplier nu = lam/beta; at beta = 0 (theta = 0, no QoS constraint) it is the
first-order condition of the mean secrecy rate, nu is the rate multiplier in
nats and the power is closed-form (ergodic.ergodic_power_full). nu is
calibrated so the policy spends the average-SNR budget with equality, and the
throughput is -ln E{r^(-beta)} / (theta*T*B), where r = 1 wherever no power
is allocated, or E{log2 r} at theta = 0.
"""

from functools import partial

import numpy as np

from ._region import NodePowers, node_powers, power_lanes, quadrature, solve
from .ergodic import ergodic_power_full
from .model import (FadingLaw, LinkBudget, PowerPolicy, QosSpec, Solution, ValidationError,
                    lam_from_nu)
from .numerics import DEFAULT_TOL, QuadResult, Tolerances, graded_nodes


def kkt_lhs_full(mu, z_m, z_e, gamma: float, beta: float):
    """Marginal objective gain of power at state (z_m, z_e), matched to lam at the optimum."""
    mu = np.asarray(mu, dtype=float)
    z_m = np.asarray(z_m, dtype=float)
    z_e = np.asarray(z_e, dtype=float)
    log_ratio = np.log1p(mu * z_m) - np.log1p(gamma * mu * z_e)
    denom = (1.0 + mu * z_m) * (1.0 + gamma * mu * z_e)
    return beta * np.exp(-beta * log_ratio) * (z_m - gamma * z_e) / denom


def power_grid(z_m, z_e, gamma: float, beta: float, lam: float,
               tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Vectorized optimal power over broadcast state arrays.

    Exact zeros on z_m - gamma*z_e <= lam/beta; elsewhere the unique positive
    root of the stationarity condition, from the lane kernel: one term
    (z_m - gamma*z_e)(1+mu*z_m)^-(beta+1)(1+gamma*mu*z_e)^(beta-1) = lam/beta.
    At beta = 0, lam is the rate multiplier in nats and the root is the
    closed form ergodic_power_full. Each state's power depends on that state
    alone.
    """
    if beta == 0.0:
        return ergodic_power_full(z_m, z_e, gamma, lam)
    z_m, z_e = np.broadcast_arrays(np.asarray(z_m, dtype=float), np.asarray(z_e, dtype=float))
    out = np.zeros(z_m.shape)
    nu = lam / beta
    gze = gamma * z_e
    coef = z_m - gze
    active = np.flatnonzero(coef > nu)
    if active.size == 0:
        return out
    zm, gze, coef = (np.take(v, active) for v in (z_m, gze, coef))
    np.put(out, active, power_lanes(zm, coef, np.divide(gze, zm, out=gze), beta, nu, tol))
    return out


def transmit_region_expectation(
    nu: float,
    beta: float,
    link: LinkBudget,
    law_m: FadingLaw,
    law_e: FadingLaw,
    tol: Tolerances,
    integrand,
    floor: float,
    panels: int | None = None,
    nodes: NodePowers | None = None,
) -> QuadResult:
    """Integral of integrand(mu, z_m, z_e) against the state law under the
    policy with normalized multiplier nu, over its transmit region
    z_m > gamma*z_e + nu.

    mu is power_grid on the active region. panels fixes the panel count per
    axis (see _region.quadrature); by default both axes refine together.
    Given nodes (a NodePowers of one solve at these beta, link, laws,
    root_tol and max_iter), each rung's powers are read from it and solved
    only on a miss. The power turns on within ~nu of the threshold, so both
    axes, gamma*z_e and each row's z_m - gamma*z_e - nu, are graded at
    scale nu (numerics.graded_nodes).
    """
    gamma, lam = link.gamma, lam_from_nu(beta, nu)
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    ze_cap = min(law_e.tail_cutoff(tol.quad_trunc_mass), (zm_hi - nu) / gamma)
    if not ze_cap > 0.0:
        return QuadResult(0.0, 0.0, 0)

    def at(n: int) -> float:
        ze, we = graded_nodes(nu / gamma, ze_cap, n)  # gamma*z_e at scale nu
        dm, wm = graded_nodes(nu, zm_hi - gamma * ze - nu, n)
        zm = (gamma * ze + nu)[:, None] + dm
        zeg = np.broadcast_to(ze[:, None], zm.shape)
        mu = node_powers(nodes, nu, n, lambda: power_grid(zm, zeg, gamma, beta, lam, tol))
        vals = integrand(mu, zm, zeg) * law_m.density(zm)
        return float(we @ ((vals * wm).sum(axis=1) * law_e.density(ze)))

    return quadrature(at, tol, floor, panels)


def mean_power_full(nu: float, beta: float, link: LinkBudget,
                    law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL, panels: int | None = None,
                    nodes: NodePowers | None = None) -> float:
    """Expected transmit SNR of the policy with normalized multiplier nu,
    refined to tol, or on a fixed number of panels per axis; nodes is the
    solve's store of node powers, if any (see transmit_region_expectation).
    """
    if not (nu > 0 and beta >= 0):
        raise ValidationError("nu must be positive and beta nonnegative")
    return transmit_region_expectation(nu, beta, link, law_m, law_e, tol,
                                       lambda mu, zm, ze: mu, max(link.avg_snr, 1e-6), panels,
                                       nodes).value


def solve_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
               tol: Tolerances = DEFAULT_TOL) -> Solution:
    """Calibrate the full-CSI policy and read out its effective secure throughput
    (_region.solve). The threshold is nu, and the policy is power_grid at the
    calibrated multiplier.
    """
    beta, gamma = qos.beta, link.gamma

    def policy_at(nu, nodes):
        lam = lam_from_nu(beta, nu)
        return (nu, partial(transmit_region_expectation, nu, beta, link, law_m, law_e, tol,
                            nodes=nodes),
                lambda panels: lambda z_m, z_e: power_grid(z_m, z_e, gamma, beta, lam, tol))

    return solve("full", mean_power_full, policy_at, qos, link, law_m, law_e, tol)


throughput_full = solve_full  # the name the benchmark calls the solve by


def build_policy_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                      tol: Tolerances = DEFAULT_TOL) -> PowerPolicy:
    """The calibrated full-CSI policy, for simulation or export (solve_full)."""
    return solve_full(qos, link, law_m, law_e, tol).policy()
