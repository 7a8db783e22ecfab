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
throughput is -ln E{r^(-beta)} / (theta*T*B) with the integrand equal to 1
wherever no power is allocated, or E{log2 r} at theta = 0.
"""

import numpy as np

from ._region import (
    NodePowers,
    calibrate_policy,
    power_lanes,
    reported_lam,
    solution,
    transmit_region_expectation,
)
from .ergodic import ergodic_power_full
from .model import (
    FadingLaw,
    LinkBudget,
    PowerPolicy,
    QosSpec,
    Solution,
    ThroughputResult,
    ValidationError,
)
from .numerics import DEFAULT_TOL, Tolerances


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
    active = (z_m - gamma * z_e) > nu
    if not np.any(active):
        return out
    zm = z_m[active]
    gze = gamma * z_e[active]
    out[active] = power_lanes(zm, zm - gze, gze / zm, beta, nu, tol)
    return out


def mean_power_full(nu: float, beta: float, link: LinkBudget,
                    law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL, panels: int | None = None,
                    nodes: NodePowers | None = None) -> float:
    """Expected transmit SNR of the policy with normalized multiplier nu,
    refined to tol, or on a fixed number of panels per axis; nodes is the
    solve's store of node powers, if any (see _policy_expectation).
    """
    if not (nu > 0 and beta >= 0):
        raise ValidationError("nu must be positive and beta nonnegative")
    expectation = _policy_expectation(nu, beta, link, law_m, law_e, tol, panels, nodes)
    return expectation(lambda mu, zm, ze: mu, max(link.avg_snr, 1e-6), False).value


def _policy_expectation(nu, beta, link, law_m, law_e, tol, panels=None, nodes=None):
    """expectation(integrand, floor, include_idle_mass) under the policy with
    multiplier nu, over its transmit region z_m > gamma*z_e + nu. Given nodes
    (a NodePowers of one solve at these beta, link, laws, root_tol and
    max_iter), each rung's powers are read from it and solved only on a miss.
    """
    lam = reported_lam(beta, nu)
    return lambda integrand, floor, idle: transmit_region_expectation(
        power_fn=lambda zm, ze: power_grid(zm, ze, link.gamma, beta, lam, tol),
        integrand=integrand,
        offset=nu,
        gamma=link.gamma,
        law_m=law_m,
        law_e=law_e,
        tol=tol,
        floor=floor,
        include_idle_mass=idle,
        panels=panels,
        nodes=nodes,
    )


def solve_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
               tol: Tolerances = DEFAULT_TOL) -> Solution:
    """Calibrate the full-CSI policy and read out its effective secure throughput.

    One calibration (_region.calibrate_policy) and a readout on its
    NodePowers store (_region.solution). The threshold is nu, and the policy
    is power_grid at the calibrated multiplier.
    """
    beta, gamma = qos.beta, link.gamma
    nodes = NodePowers()
    nu, residual = calibrate_policy(mean_power_full, beta, link, law_m, law_e, tol, nodes)
    lam = reported_lam(beta, nu)
    return solution("full", qos, gamma, nu, nu, residual,
                    _policy_expectation(nu, beta, link, law_m, law_e, tol, None, nodes),
                    lambda: lambda z_m, z_e: power_grid(z_m, z_e, gamma, beta, lam, tol))


def throughput_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL) -> ThroughputResult:
    """Effective secure throughput under the calibrated full-CSI policy (solve_full)."""
    return solve_full(qos, link, law_m, law_e, tol).throughput


def build_policy_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                      tol: Tolerances = DEFAULT_TOL) -> PowerPolicy:
    """The calibrated full-CSI policy, for simulation or export (solve_full)."""
    return solve_full(qos, link, law_m, law_e, tol).policy()
