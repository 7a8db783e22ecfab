"""Power control and secure throughput when only the main-channel gain is known.

Power depends on z_m alone, so the stationarity condition averages the state
marginal gain over the eavesdropper law on z_e < z_m/gamma:

    beta * Int_0^{z_m/gamma} r(mu)^(-beta-1) (z_m - gamma*z_e)
           / (1 + gamma*mu*z_e)^2 p_E(z_e) dz_e  =  lam,

with r(mu) = (1 + mu*z_m)/(1 + gamma*mu*z_e). The left side decreases strictly
in mu and increases strictly in z_m at mu = 0, so the policy transmits exactly
above a cutoff gain alpha and each active z_m has a unique root.

Divided by beta, the condition holds for every beta >= 0 with the normalized
multiplier nu = lam/beta: at beta = 0 (theta = 0, no QoS constraint) it is the
first-order condition of the mean secrecy rate and nu is the rate multiplier
in nats. The cutoff solves Int_0^{alpha/gamma} (alpha - gamma*z_e) p_E dz_e = nu
for every beta, and nu is calibrated so the policy spends the average-SNR
budget with equality.
"""

import math

import numpy as np

from ._region import (
    idle_marginal_gain,
    main_policy_table,
    main_region_expectation,
    reported_lam,
    throughput_readout,
)
from .model import (
    FadingLaw,
    LinkBudget,
    PowerPolicy,
    QosSpec,
    ThroughputResult,
    ValidationError,
)
from .numerics import (
    DEFAULT_TOL,
    NumericsError,
    Tolerances,
    _brent,
    calibrate,
    find_root,
    integrate_density,
)


def _marginal_weight(mu, zm, ze, gamma, beta):
    log_ratio = np.log1p(mu * zm) - np.log1p(gamma * mu * ze)
    return (
        beta
        * np.exp(-(beta + 1.0) * log_ratio)
        * (zm - gamma * ze)
        / (1.0 + gamma * mu * ze) ** 2
    )


def kkt_lhs_main(z_m: float, mu: float, beta: float, link: LinkBudget, law_e: FadingLaw,
                 tol: Tolerances = DEFAULT_TOL) -> float:
    """Marginal gain of power at main-channel gain z_m, averaged over z_e."""
    if not beta > 0:
        raise ValidationError("beta must be positive")
    if mu < 0:
        raise ValidationError("mu must be nonnegative")
    gamma = link.gamma
    if not z_m > 0.0:
        return 0.0
    hi = min(z_m / gamma, law_e.tail_cutoff(tol.quad_trunc_mass))
    res = integrate_density(
        lambda ze: _marginal_weight(mu, z_m, ze, gamma, beta),
        law_e, tol, hi=hi, floor=1e-6,
    )
    return res.value


def power_main(z_m: float, beta: float, lam: float, link: LinkBudget, law_e: FadingLaw,
               tol: Tolerances = DEFAULT_TOL) -> float:
    """Optimal power at gain z_m: 0 when the zero-power gain is <= lam, else the unique root.

    The root is bracketed as in the lane kernel (_region.power_lanes): in
    x = ln(1 + mu*z_m) it lies in [L/max(2, beta+1), L/min(2, beta+1)] with
    L = ln(gain(0)/lam), widened by 1e-6*L at each end because the bracket
    has zero width at beta = 1.
    """
    if not beta > 0:
        raise ValidationError("beta must be positive")
    if not lam > 0:
        raise ValidationError("lam must be positive")
    gain0 = kkt_lhs_main(z_m, 0.0, beta, link, law_e, tol)
    if gain0 <= lam:
        return 0.0
    big_l = math.log(gain0 / lam)
    x_lo = max(0.0, big_l / max(2.0, beta + 1.0) - 1e-6 * big_l)
    x_hi = big_l / min(2.0, beta + 1.0) + 1e-6 * big_l
    f = lambda mu: kkt_lhs_main(z_m, mu, beta, link, law_e, tol) - lam
    return find_root(f, math.expm1(x_lo) / z_m, math.expm1(x_hi) / z_m, tol)


def alpha_threshold(nu: float, link: LinkBudget, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL,
                    law_m: FadingLaw | None = None) -> float:
    """Cutoff gain below which the main-CSI policy with multiplier nu is silent.

    The root of the zero-power marginal gain against nu, for every beta >= 0.
    Integration by parts turns the gain into
    gamma * Int_0^{alpha/gamma} P(z_E <= t) dt, which idle_marginal_gain reads
    in closed form from law_e.integrated_cdf, so no gain costs a quadrature.
    Each gain is evaluated once: the monotonicity probes at z_hi/4, z_hi/2
    and z_hi are not repeated, and Brent starts from the value at z_hi; a
    gain that does not increase over the probes raises NumericsError.
    Returns math.inf when nu is beyond any gain achievable on the truncated
    support (nu = math.inf included).
    """
    if nu < 0:
        raise ValidationError("nu must be nonnegative")
    gamma = link.gamma
    search_law = law_m if law_m is not None else law_e
    z_hi = search_law.tail_cutoff(tol.quad_trunc_mass)

    gain0 = lambda z: idle_marginal_gain(z, gamma, law_e, tol)
    # the zero-power gain must be increasing in z_m for the root to be a cutoff
    probes = gain0(z_hi * 0.25), gain0(z_hi * 0.5), gain0(z_hi)
    if not (probes[0] < probes[1] < probes[2]):
        raise NumericsError("zero-power marginal gain is not increasing in z_m")
    if probes[2] <= nu:
        return math.inf
    root, _ = _brent(lambda z: gain0(z) - nu, 0.0, gain0(0.0) - nu, z_hi, probes[2] - nu, tol, 0.0)
    return root


def mean_power_main(nu: float, beta: float, link: LinkBudget,
                    law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL) -> float:
    """Expected transmit SNR of the main-CSI policy with normalized multiplier nu."""
    alpha = alpha_threshold(nu, link, law_e, tol, law_m=law_m)
    expectation = _policy_expectation(nu, alpha, beta, link, law_m, law_e, tol)
    return expectation(None, max(link.avg_snr, 1e-6), False).value


def _policy_expectation(nu, alpha, beta, link, law_m, law_e, tol):
    """expectation(integrand, floor, include_idle_mass) under the policy with
    multiplier nu and cutoff alpha (integrand None: the power itself).
    """
    return lambda integrand, floor, idle: main_region_expectation(
        beta=beta,
        integrand=integrand,
        nu=nu,
        gamma=link.gamma,
        law_m=law_m,
        law_e=law_e,
        tol=tol,
        alpha=alpha,
        floor=floor,
        include_idle_mass=idle,
    )


def calibrate_lambda_main(link: LinkBudget, beta: float, law_m: FadingLaw, law_e: FadingLaw,
                          tol: Tolerances = DEFAULT_TOL) -> float:
    """Multiplier spending the average-SNR budget with equality (math.inf at zero budget)."""
    return reported_lam(beta, _calibrate_main(link, beta, law_m, law_e, tol)[0])


def _calibrate_main(link, beta, law_m, law_e, tol):
    """(nu, cutoff alpha, residual); nu = alpha = math.inf for a zero budget.

    Each mean-power evaluation records the cutoff it solved, and the one at
    the accepted nu is returned: the cutoff is not solved again. It does not
    depend on the relaxed quad_rel_tol the calibration evaluates with, since
    the zero-power gain is in closed form (idle_marginal_gain).
    """
    if not beta >= 0:
        raise ValidationError("beta must be nonnegative")
    cutoffs = {}

    def mean_power(nu, t):
        cutoffs[nu] = alpha = alpha_threshold(nu, link, law_e, t, law_m=law_m)
        expectation = _policy_expectation(nu, alpha, beta, link, law_m, law_e, t)
        return expectation(None, max(link.avg_snr, 1e-6), False).value

    u_hi = math.log(law_m.tail_cutoff(tol.quad_trunc_mass))
    nu, residual = calibrate(mean_power, link.avg_snr, u_hi, tol)
    return nu, cutoffs.get(nu, math.inf), residual


def throughput_main(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL) -> ThroughputResult:
    """Effective secure throughput under the calibrated main-CSI policy.

    At theta == 0 this is the maximum mean secrecy rate (throughput_readout).
    The simulation table is built only by build_policy_main.
    """
    beta = qos.beta
    nu, alpha, residual = _calibrate_main(link, beta, law_m, law_e, tol)
    value, quad_error = throughput_readout(
        beta, link.gamma, _policy_expectation(nu, alpha, beta, link, law_m, law_e, tol))
    return ThroughputResult(
        throughput_bits_s_hz=value,
        throughput_bits_s=value * qos.bandwidth_b,
        lam=reported_lam(beta, nu),
        power_residual=residual,
        quad_error=quad_error,
        theta=qos.theta,
    )


def build_policy_main(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                      tol: Tolerances = DEFAULT_TOL) -> PowerPolicy:
    """Calibrate and package the main-CSI policy (tabulated evaluator)."""
    beta = qos.beta
    nu, alpha, _ = _calibrate_main(link, beta, law_m, law_e, tol)
    state_power = main_policy_table(beta, nu, alpha, link.gamma, law_m, law_e, tol)
    return PowerPolicy(csi_mode="main", lam=reported_lam(beta, nu), beta=beta, threshold=alpha,
                       state_power=state_power)
