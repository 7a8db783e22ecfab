"""Unconstrained (theta = 0) benchmark: maximize the mean secrecy rate.

With no buffer constraint the per-state problem is concave with the
first-order condition

    (z_m - gamma*z_e) / ((1 + mu*z_m)(1 + gamma*mu*z_e)) = lambda_nats,

a quadratic in mu, so the policy is closed-form. The multiplier carries
nats per unit power; rates convert to bits only at the reporting boundary.
This module supplies the opportunistic baseline surface and the theta -> 0
continuity oracle for both CSI modes.
"""

import math

import numpy as np

from ._region import (
    idle_marginal_gain,
    main_policy_table,
    main_region_expectation,
    transmit_region_expectation,
)
from .model import (
    LN2,
    FadingLaw,
    LinkBudget,
    PowerPolicy,
    QosSpec,
    ThroughputResult,
    ValidationError,
    make_qos,
)
from .numerics import DEFAULT_TOL, Tolerances, calibrate, find_root

# spec used when callers ask for the benchmark without building a QosSpec
_UNIT_QOS = make_qos(0.0)


def ergodic_power_full(z_m, z_e, link: LinkBudget, lambda_nats: float) -> np.ndarray:
    """Closed-form optimal power: positive root of the first-order quadratic.

    Zero when z_m - gamma*z_e <= lambda_nats (the rate slope at mu=0 cannot
    pay for the power). z_e = 0 degenerates to water-filling
    mu = 1/lambda_nats - 1/z_m.
    """
    if not lambda_nats > 0:
        raise ValidationError("lambda_nats must be positive")
    gamma = link.gamma
    z_m, z_e = np.broadcast_arrays(np.asarray(z_m, dtype=float), np.asarray(z_e, dtype=float))
    diff = z_m - gamma * z_e
    active = diff > lambda_nats
    a = gamma * z_m * z_e * lambda_nats
    b = lambda_nats * (z_m + gamma * z_e)
    c = lambda_nats - diff
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.clip(b * b - 4.0 * a * c, 0.0, None)
        quad = (-b + np.sqrt(disc)) / (2.0 * a)
        lin = -c / b
        mu = np.where(a > 0.0, quad, lin)
    return np.where(active, mu, 0.0)


def _mean_power_full(lambda_nats, link, law_m, law_e, tol):
    res = transmit_region_expectation(
        power_fn=lambda zm, ze: ergodic_power_full(zm, ze, link, lambda_nats),
        integrand=lambda mu, zm, ze: mu,
        offset=lambda_nats,
        gamma=link.gamma,
        law_m=law_m,
        law_e=law_e,
        tol=tol,
        floor=max(link.avg_snr, 1e-6),
        include_idle_mass=False,
    )
    return res.value


def solve_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
               tol: Tolerances = DEFAULT_TOL):
    """Calibrated unconstrained full-CSI policy and its mean secrecy rate."""
    if link.avg_snr == 0.0:
        policy = PowerPolicy(
            csi_mode="full", lam=math.inf, beta=0.0, threshold=math.inf,
            state_power=lambda z_m, z_e: np.zeros(np.broadcast(
                np.asarray(z_m, float), np.asarray(z_e, float)).shape),
        )
        return policy, ThroughputResult(0.0, 0.0, math.inf, 0.0, 0.0, 0.0)

    lam, residual = calibrate(lambda lam, t: _mean_power_full(lam, link, law_m, law_e, t),
                              link.avg_snr, math.log(law_m.tail_cutoff(tol.quad_trunc_mass)), tol)
    rate = transmit_region_expectation(
        power_fn=lambda zm, ze: ergodic_power_full(zm, ze, link, lam),
        integrand=lambda mu, zm, ze: (
            np.log1p(mu * zm) - np.log1p(link.gamma * mu * ze)
        ) / LN2,
        offset=lam,
        gamma=link.gamma,
        law_m=law_m,
        law_e=law_e,
        tol=tol,
        floor=0.01,
        include_idle_mass=False,
    )
    policy = PowerPolicy(
        csi_mode="full", lam=lam, beta=0.0, threshold=lam,
        state_power=lambda z_m, z_e: ergodic_power_full(z_m, z_e, link, lam),
    )
    value = max(0.0, rate.value)
    result = ThroughputResult(value, value * qos.bandwidth_b, lam, residual, rate.error, 0.0)
    return policy, result


def ergodic_throughput_full(link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                            tol: Tolerances = DEFAULT_TOL) -> float:
    """Maximum mean secrecy rate (bits/s/Hz) with full CSI and no QoS constraint."""
    return solve_full(_UNIT_QOS, link, law_m, law_e, tol)[1].throughput_bits_s_hz


def _alpha_ergodic(lambda_nats, gamma, law_m, law_e, tol):
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    gain0 = lambda z: idle_marginal_gain(z, gamma, law_e, tol) - lambda_nats
    if gain0(zm_hi) <= 0.0:
        return math.inf
    return find_root(gain0, 0.0, zm_hi, tol)


def _mean_power_main(lambda_nats, link, law_m, law_e, tol):
    res = main_region_expectation(
        beta=0.0,
        integrand=None,
        nu=lambda_nats,
        gamma=link.gamma,
        law_m=law_m,
        law_e=law_e,
        tol=tol,
        alpha=_alpha_ergodic(lambda_nats, link.gamma, law_m, law_e, tol),
        floor=max(link.avg_snr, 1e-6),
        include_idle_mass=False,
    )
    return res.value


def _calibrate_main(link, law_m, law_e, tol):
    """Multiplier, cutoff and power residual of the calibrated policy.

    A zero budget gives lam = alpha = math.inf: the all-zero policy.
    """
    lam, residual = calibrate(lambda lam, t: _mean_power_main(lam, link, law_m, law_e, t),
                              link.avg_snr, math.log(law_m.tail_cutoff(tol.quad_trunc_mass)), tol)
    return lam, _alpha_ergodic(lam, link.gamma, law_m, law_e, tol), residual


def solve_main(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
               tol: Tolerances = DEFAULT_TOL) -> ThroughputResult:
    """Mean secrecy rate of the calibrated unconstrained main-CSI policy.

    The per-z_m first-order condition averages the full-CSI one over the
    eavesdropper law on z_e < z_m/gamma; each quadrature node is solved by
    the lane kernel. The simulation table is built only by policy_main.
    """
    lam, alpha, residual = _calibrate_main(link, law_m, law_e, tol)
    gamma = link.gamma
    rate = main_region_expectation(
        beta=0.0,
        integrand=lambda mu, zm, ze: (np.log1p(mu * zm) - np.log1p(gamma * mu * ze)) / LN2,
        nu=lam,
        gamma=gamma,
        law_m=law_m,
        law_e=law_e,
        tol=tol,
        alpha=alpha,
        floor=0.01,
        include_idle_mass=False,
    )
    value = max(0.0, rate.value)
    return ThroughputResult(value, value * qos.bandwidth_b, lam, residual, rate.error, 0.0)


def policy_main(link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                tol: Tolerances = DEFAULT_TOL) -> PowerPolicy:
    """Calibrated unconstrained main-CSI policy, tabulated for simulation
    (see _region.main_policy_table).
    """
    lam, alpha, _ = _calibrate_main(link, law_m, law_e, tol)
    state_power = main_policy_table(0.0, lam, alpha, link.gamma, law_m, law_e, tol)
    return PowerPolicy(csi_mode="main", lam=lam, beta=0.0, threshold=alpha,
                       state_power=state_power)


def ergodic_throughput_main(link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                            tol: Tolerances = DEFAULT_TOL) -> float:
    """Maximum mean secrecy rate (bits/s/Hz) with main CSI only, no QoS constraint."""
    return solve_main(_UNIT_QOS, link, law_m, law_e, tol).throughput_bits_s_hz
