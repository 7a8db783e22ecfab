"""Power control and secure throughput when only the main-channel gain is known.

Power depends on z_m alone, so the stationarity condition averages the state
marginal gain over the eavesdropper law on z_e < z_m/gamma:

    beta * Int_0^{z_m/gamma} r(mu)^(-beta-1) (z_m - gamma*z_e)
           / (1 + gamma*mu*z_e)^2 p_E(z_e) dz_e  =  lam,

with r(mu) = (1 + mu*z_m)/(1 + gamma*mu*z_e). The left side decreases strictly
in mu and increases strictly in z_m at mu = 0, so the policy transmits exactly
above a cutoff gain alpha and each active z_m has a unique root.
"""

import math

import numpy as np

from . import ergodic
from ._region import idle_marginal_gain, main_policy_table, main_region_expectation
from .model import (
    LN2,
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
    calibrate,
    expand_bracket,
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
    """Optimal power at gain z_m: 0 when the zero-power gain is <= lam, else the unique root."""
    if not beta > 0:
        raise ValidationError("beta must be positive")
    if not lam > 0:
        raise ValidationError("lam must be positive")
    if kkt_lhs_main(z_m, 0.0, beta, link, law_e, tol) <= lam:
        return 0.0
    f = lambda mu: kkt_lhs_main(z_m, mu, beta, link, law_e, tol) - lam
    lo, hi = expand_bracket(f, 0.0, 1.0)
    return find_root(f, lo, hi, tol)


def alpha_threshold(beta: float, lam: float, link: LinkBudget, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL,
                    law_m: FadingLaw | None = None) -> float:
    """Cutoff gain below which the main-CSI policy is silent.

    The root of the zero-power marginal gain against lam. (At gamma = 1,
    integration by parts turns it into Int_0^alpha P(z_E <= t) dt = lam/beta.)
    Returns math.inf when lam is beyond any gain achievable on the truncated
    support.
    """
    if not beta > 0:
        raise ValidationError("beta must be positive")
    if lam < 0:
        raise ValidationError("lam must be nonnegative")
    if lam == 0.0:
        return 0.0
    gamma = link.gamma
    search_law = law_m if law_m is not None else law_e
    z_hi = search_law.tail_cutoff(tol.quad_trunc_mass)

    gain0 = lambda z: beta * idle_marginal_gain(z, gamma, law_e, tol) - lam
    # the zero-power gain must be increasing in z_m for the root to be a cutoff
    probes = gain0(z_hi * 0.25), gain0(z_hi * 0.5), gain0(z_hi)
    if not (probes[0] < probes[1] < probes[2]):
        raise NumericsError("zero-power marginal gain is not increasing in z_m")
    if probes[2] <= 0.0:
        return math.inf
    return find_root(gain0, 0.0, z_hi, tol)


def mean_power_main(lam: float, beta: float, link: LinkBudget,
                    law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL) -> float:
    """Expected transmit SNR of the main-CSI policy with multiplier lam."""
    if math.isinf(lam):
        return 0.0
    gamma = link.gamma
    alpha = alpha_threshold(beta, lam, link, law_e, tol, law_m=law_m)
    res = main_region_expectation(
        beta=beta,
        integrand=None,
        nu=lam / beta,
        gamma=gamma,
        law_m=law_m,
        law_e=law_e,
        tol=tol,
        alpha=alpha,
        floor=max(link.avg_snr, 1e-6),
        include_idle_mass=False,
    )
    return res.value


def calibrate_lambda_main(link: LinkBudget, beta: float, law_m: FadingLaw, law_e: FadingLaw,
                          tol: Tolerances = DEFAULT_TOL) -> float:
    """Multiplier spending the average-SNR budget with equality (math.inf at zero budget)."""
    lam, _ = _calibrate_main(link, beta, law_m, law_e, tol)
    return lam


def _calibrate_main(link, beta, law_m, law_e, tol):
    if not beta > 0:
        raise ValidationError("beta must be positive")
    u_hi = math.log(beta * law_m.tail_cutoff(tol.quad_trunc_mass))
    return calibrate(lambda lam, t: mean_power_main(lam, beta, link, law_m, law_e, t),
                     link.avg_snr, u_hi, tol)


def throughput_main(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL) -> ThroughputResult:
    """Effective secure throughput under the calibrated main-CSI policy."""
    if qos.theta == 0.0:
        return ergodic.solve_main(qos, link, law_m, law_e, tol)
    if link.avg_snr == 0.0:
        return ThroughputResult(0.0, 0.0, math.inf, 0.0, 0.0, qos.theta)

    beta = qos.beta
    gamma = link.gamma
    lam, residual = _calibrate_main(link, beta, law_m, law_e, tol)
    alpha = alpha_threshold(beta, lam, link, law_e, tol, law_m=law_m)
    res = main_region_expectation(
        beta=beta,
        integrand=lambda mu, zm, ze: np.exp(
            -beta * (np.log1p(mu * zm) - np.log1p(gamma * mu * ze))
        ),
        nu=lam / beta,
        gamma=gamma,
        law_m=law_m,
        law_e=law_e,
        tol=tol,
        alpha=alpha,
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


def build_policy_main(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                      tol: Tolerances = DEFAULT_TOL) -> PowerPolicy:
    """Calibrate and package the main-CSI policy (tabulated evaluator)."""
    if qos.theta == 0.0:
        return ergodic.policy_main(link, law_m, law_e, tol)
    if link.avg_snr == 0.0:
        return PowerPolicy(
            csi_mode="main", lam=math.inf, beta=qos.beta, threshold=math.inf,
            state_power=lambda z_m: np.zeros(np.asarray(z_m, float).shape),
        )
    beta = qos.beta
    gamma = link.gamma
    lam = calibrate_lambda_main(link, beta, law_m, law_e, tol)
    alpha = alpha_threshold(beta, lam, link, law_e, tol, law_m=law_m)
    state_power = main_policy_table(beta, lam / beta, alpha, gamma, law_m, law_e, tol)
    return PowerPolicy(csi_mode="main", lam=lam, beta=beta, threshold=alpha,
                       state_power=state_power)

