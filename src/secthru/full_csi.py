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

import math

import numpy as np

from ._region import (
    NodePowers,
    power_lanes,
    reported_lam,
    throughput_readout,
    transmit_region_expectation,
)
from .ergodic import ergodic_power_full
from .model import (
    FadingLaw,
    LinkBudget,
    PowerPolicy,
    QosSpec,
    ThroughputResult,
    ValidationError,
)
from .numerics import DEFAULT_TOL, FIRST_RUNG, Tolerances, calibrate


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


def calibrate_lambda_full(link: LinkBudget, beta: float, law_m: FadingLaw, law_e: FadingLaw,
                          tol: Tolerances = DEFAULT_TOL) -> float:
    """Multiplier lam* that spends the average-SNR budget with equality.

    Brent root finding on ln(nu) (numerics.calibrate): mean power is strictly
    decreasing in nu. Returns math.inf for a zero budget (the all-zero policy).
    """
    return reported_lam(beta, _calibrate_full(link, beta, law_m, law_e, tol)[0])


def _calibrate_full(link, beta, law_m, law_e, tol, nodes=None):
    """(nu, residual); nu = math.inf for a zero budget.

    The mean power on the quadrature's first rung is the coarse evaluator of
    numerics.calibrate, and the refined mean power polishes its root. Both
    evaluators share one NodePowers store, nodes or a new one, so the refined
    stage's first probe, which sits at the coarse root, reads the first rung
    the coarse stage solved there. The caller may pass nodes on to the
    readout at the returned nu.
    """
    if not beta >= 0:
        raise ValidationError("beta must be nonnegative")
    nodes = NodePowers() if nodes is None else nodes
    # at nu = zm_hi the threshold is beyond the truncated support: zero power
    u_hi = math.log(law_m.tail_cutoff(tol.quad_trunc_mass))
    # positional, so that wrappers of mean_power_full see every argument
    return calibrate(lambda nu, t: mean_power_full(nu, beta, link, law_m, law_e, t, None, nodes),
                     link.avg_snr, u_hi, tol,
                     lambda nu, t: mean_power_full(nu, beta, link, law_m, law_e, t, FIRST_RUNG,
                                                   nodes))


def throughput_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL) -> ThroughputResult:
    """Effective secure throughput under the calibrated full-CSI policy.

    At theta == 0 this is the maximum mean secrecy rate (throughput_readout).
    The readout shares the calibration's NodePowers store, so the rungs the
    accepted refined probe solved at nu are not solved again.
    """
    beta = qos.beta
    nodes = NodePowers()
    nu, residual = _calibrate_full(link, beta, law_m, law_e, tol, nodes)
    value, quad_error = throughput_readout(
        beta, link.gamma, _policy_expectation(nu, beta, link, law_m, law_e, tol, None, nodes))
    return ThroughputResult(
        throughput_bits_s_hz=value,
        throughput_bits_s=value * qos.bandwidth_b,
        lam=reported_lam(beta, nu),
        power_residual=residual,
        quad_error=quad_error,
        theta=qos.theta,
    )


def policy_surface_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                        ze_values: np.ndarray, zm_values: np.ndarray,
                        tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Calibrated power on a rectangular grid: surface[i, j] = mu(zm_values[j], ze_values[i]).

    Exact zeros on the no-transmit region. theta == 0 produces the
    unconstrained benchmark surface.
    """
    ze_values = np.asarray(ze_values, dtype=float)
    zm_values = np.asarray(zm_values, dtype=float)
    if ze_values.size == 0 or zm_values.size == 0:
        return np.zeros((ze_values.size, zm_values.size))
    lam = calibrate_lambda_full(link, qos.beta, law_m, law_e, tol)
    return power_grid(zm_values[None, :], ze_values[:, None], link.gamma, qos.beta, lam, tol)


def build_policy_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                      tol: Tolerances = DEFAULT_TOL) -> PowerPolicy:
    """Calibrate and package the full-CSI policy for simulation or export."""
    beta = qos.beta
    gamma = link.gamma
    nu, _ = _calibrate_full(link, beta, law_m, law_e, tol)
    lam = reported_lam(beta, nu)
    return PowerPolicy(
        csi_mode="full",
        lam=lam,
        beta=beta,
        threshold=nu,
        state_power=lambda z_m, z_e: power_grid(z_m, z_e, gamma, beta, lam, tol),
    )
