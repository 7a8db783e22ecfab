"""Power control and secure throughput when the transmitter sees both gains.

The optimal policy solves, state by state, the stationarity condition

    beta * r(mu)^(-beta) * (z_m - gamma*z_e) / ((1+mu*z_m)(1+gamma*mu*z_e)) = lam,
    r(mu) = (1 + mu*z_m) / (1 + gamma*mu*z_e),

whose left side decreases strictly from beta*(z_m - gamma*z_e) to 0, so the
state transmits exactly when z_m - gamma*z_e > lam/beta and the root is unique.
lam is calibrated so the policy spends the average-SNR budget with equality,
and the throughput is -ln E{r^(-beta)} / (theta*T*B) with the integrand equal
to 1 wherever no power is allocated.
"""

import math

import numpy as np

from . import ergodic
from ._region import power_lanes, transmit_region_expectation
from .model import (
    LN2,
    FadingLaw,
    LinkBudget,
    PowerPolicy,
    QosSpec,
    ThroughputResult,
    ValidationError,
)
from .numerics import DEFAULT_TOL, Tolerances, calibrate


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
    Each state's power depends on that state alone.
    """
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


def pointwise_power(z_m: float, z_e: float, link: LinkBudget, beta: float, lam: float,
                    tol: Tolerances = DEFAULT_TOL) -> float:
    """Optimal transmit SNR at a single state; 0 on or below the threshold."""
    if not beta > 0:
        raise ValidationError("beta must be positive")
    if not lam > 0:
        raise ValidationError("lam must be positive")
    mu = power_grid(np.atleast_1d(float(z_m)), np.atleast_1d(float(z_e)),
                    link.gamma, beta, lam, tol)
    return float(mu[0])


def mean_power_full(lam: float, beta: float, link: LinkBudget,
                    law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL) -> float:
    """Expected transmit SNR of the policy with multiplier lam."""
    if not beta > 0:
        raise ValidationError("beta must be positive")
    if math.isinf(lam):
        return 0.0
    if not lam > 0:
        raise ValidationError("lam must be positive")
    res = transmit_region_expectation(
        power_fn=lambda zm, ze: power_grid(zm, ze, link.gamma, beta, lam, tol),
        integrand=lambda mu, zm, ze: mu,
        offset=lam / beta,
        gamma=link.gamma,
        law_m=law_m,
        law_e=law_e,
        tol=tol,
        floor=max(link.avg_snr, 1e-6),
        include_idle_mass=False,
    )
    return res.value


def calibrate_lambda_full(link: LinkBudget, beta: float, law_m: FadingLaw, law_e: FadingLaw,
                          tol: Tolerances = DEFAULT_TOL) -> float:
    """Multiplier lam* that spends the average-SNR budget with equality.

    Brent root finding on ln(lam) (numerics.calibrate): mean power is strictly
    decreasing in lam. Returns math.inf for a zero budget (the all-zero policy
    never consults lam).
    """
    lam, _ = _calibrate_full(link, beta, law_m, law_e, tol)
    return lam


def _calibrate_full(link, beta, law_m, law_e, tol):
    if not beta > 0:
        raise ValidationError("beta must be positive")
    # at ln(beta * zm_hi) the threshold is beyond the truncated support: zero power
    u_hi = math.log(beta * law_m.tail_cutoff(tol.quad_trunc_mass))
    return calibrate(lambda lam, t: mean_power_full(lam, beta, link, law_m, law_e, t),
                     link.avg_snr, u_hi, tol)


def throughput_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL) -> ThroughputResult:
    """Effective secure throughput under the calibrated full-CSI policy.

    theta == 0 is routed to the unconstrained benchmark, which maximizes the
    mean secrecy rate instead of a degenerate exponent-0 objective.
    """
    if qos.theta == 0.0:
        return ergodic.solve_full(qos, link, law_m, law_e, tol)[1]
    if link.avg_snr == 0.0:
        return ThroughputResult(0.0, 0.0, math.inf, 0.0, 0.0, qos.theta)

    beta = qos.beta
    lam, residual = _calibrate_full(link, beta, law_m, law_e, tol)
    res = transmit_region_expectation(
        power_fn=lambda zm, ze: power_grid(zm, ze, link.gamma, beta, lam, tol),
        integrand=lambda mu, zm, ze: np.exp(
            -beta * (np.log1p(mu * zm) - np.log1p(link.gamma * mu * ze))
        ),
        offset=lam / beta,
        gamma=link.gamma,
        law_m=law_m,
        law_e=law_e,
        tol=tol,
        floor=1.0,
        include_idle_mass=True,
    )
    value = max(0.0, -math.log(res.value) / (beta * LN2))
    quad_error = res.error / (max(res.value, 1e-12) * beta * LN2)
    return ThroughputResult(
        throughput_bits_s_hz=value,
        throughput_bits_s=value * qos.bandwidth_b,
        lam=lam,
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
    ze = ze_values[:, None]
    zm = zm_values[None, :]
    if qos.theta == 0.0:
        policy, _ = ergodic.solve_full(qos, link, law_m, law_e, tol)
        return np.asarray(policy.state_power(zm, ze))
    if link.avg_snr == 0.0:
        return np.zeros((ze_values.size, zm_values.size))
    lam = calibrate_lambda_full(link, qos.beta, law_m, law_e, tol)
    return power_grid(zm, ze, link.gamma, qos.beta, lam, tol)


def build_policy_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                      tol: Tolerances = DEFAULT_TOL) -> PowerPolicy:
    """Calibrate and package the full-CSI policy for simulation or export."""
    if qos.theta == 0.0:
        return ergodic.solve_full(qos, link, law_m, law_e, tol)[0]
    if link.avg_snr == 0.0:
        lam = math.inf
    else:
        lam = calibrate_lambda_full(link, qos.beta, law_m, law_e, tol)
    beta = qos.beta
    gamma = link.gamma

    def state_power(z_m, z_e):
        if math.isinf(lam):
            zm, _ = np.broadcast_arrays(np.asarray(z_m, float), np.asarray(z_e, float))
            return np.zeros(zm.shape)
        return power_grid(z_m, z_e, gamma, beta, lam, tol)

    return PowerPolicy(
        csi_mode="full",
        lam=lam,
        beta=beta,
        threshold=lam / beta if not math.isinf(lam) else math.inf,
        state_power=state_power,
    )
