"""Power control and secure throughput when only the main-channel gain is known.

Power depends on z_m alone, so the stationarity condition averages the state
marginal gain over the eavesdropper law on z_e < z_m/gamma:

    beta * Int_0^{z_m/gamma} r(mu)^(-beta-1) (z_m - gamma*z_e)
           / (1 + gamma*mu*z_e)^2 p_E(z_e) dz_e  =  lam,

with r(mu) = (1 + mu*z_m)/(1 + gamma*mu*z_e). The left side decreases strictly
in mu and increases strictly in z_m at mu = 0, so the policy transmits exactly
above a cutoff gain alpha and each active z_m has a unique root. The power
map has one evaluator, _region.main_power: the lane kernel on a Gauss-Legendre
rule for the inner integral. The throughput and mean-power quadratures call it
at their own nodes, and the simulation policy interpolates a table of it.

Divided by beta, the condition holds for every beta >= 0 with the normalized
multiplier nu = lam/beta: at beta = 0 (theta = 0, no QoS constraint) it is the
first-order condition of the mean secrecy rate and nu is the rate multiplier
in nats. The cutoff solves Int_0^{alpha/gamma} (alpha - gamma*z_e) p_E dz_e = nu
for every beta, and nu is calibrated so the policy spends the average-SNR
budget with equality.
"""

import math

from ._region import (
    NodePowers,
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
from .numerics import DEFAULT_TOL, FIRST_RUNG, NumericsError, Tolerances, _brent, calibrate


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
                    tol: Tolerances = DEFAULT_TOL, panels: int | None = None,
                    nodes: NodePowers | None = None) -> float:
    """Expected transmit SNR of the main-CSI policy with normalized multiplier
    nu, refined to tol, or on a fixed number of outer and inner panels; nodes
    is the solve's store of node powers, if any (see _policy_expectation).
    """
    alpha = alpha_threshold(nu, link, law_e, tol, law_m=law_m)
    expectation = _policy_expectation(nu, alpha, beta, link, law_m, law_e, tol, panels, nodes)
    return expectation(None, max(link.avg_snr, 1e-6), False).value


def _policy_expectation(nu, alpha, beta, link, law_m, law_e, tol, panels=None, nodes=None):
    """expectation(integrand, floor, include_idle_mass) under the policy with
    multiplier nu and cutoff alpha (integrand None: the power itself). Given
    nodes (a NodePowers of one solve at these beta, link, laws, root_tol and
    max_iter), each rung's main_power result is read from it and solved only
    on a miss.
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
        panels=panels,
        nodes=nodes,
    )


def calibrate_lambda_main(link: LinkBudget, beta: float, law_m: FadingLaw, law_e: FadingLaw,
                          tol: Tolerances = DEFAULT_TOL) -> float:
    """Multiplier spending the average-SNR budget with equality (math.inf at zero budget)."""
    return reported_lam(beta, _calibrate_main(link, beta, law_m, law_e, tol)[0])


def _calibrate_main(link, beta, law_m, law_e, tol, nodes=None):
    """(nu, cutoff alpha, residual); nu = alpha = math.inf for a zero budget.

    The mean power on the quadrature's first rung is the coarse evaluator of
    numerics.calibrate, and the refined mean power polishes its root. Both
    evaluators share one NodePowers store, nodes or a new one, so the refined
    stage's first probe, which sits at the coarse root, reads the first rung
    the coarse stage solved there. The caller may pass nodes on to the
    readout at the returned nu. The cutoff at the accepted nu is solved once
    more: its gain is in closed form (idle_marginal_gain), so that costs no
    quadrature.
    """
    if not beta >= 0:
        raise ValidationError("beta must be nonnegative")
    nodes = NodePowers() if nodes is None else nodes
    u_hi = math.log(law_m.tail_cutoff(tol.quad_trunc_mass))
    # positional, so that wrappers of mean_power_main see every argument
    nu, residual = calibrate(
        lambda nu, t: mean_power_main(nu, beta, link, law_m, law_e, t, None, nodes),
        link.avg_snr, u_hi, tol,
        lambda nu, t: mean_power_main(nu, beta, link, law_m, law_e, t, FIRST_RUNG, nodes))
    return nu, alpha_threshold(nu, link, law_e, tol, law_m=law_m), residual


def throughput_main(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL) -> ThroughputResult:
    """Effective secure throughput under the calibrated main-CSI policy.

    At theta == 0 this is the maximum mean secrecy rate (throughput_readout).
    The simulation table is built only by build_policy_main. The readout
    shares the calibration's NodePowers store, so the rungs the accepted
    refined probe solved at nu are not solved again.
    """
    beta = qos.beta
    nodes = NodePowers()
    nu, alpha, residual = _calibrate_main(link, beta, law_m, law_e, tol, nodes)
    value, quad_error = throughput_readout(
        beta, link.gamma,
        _policy_expectation(nu, alpha, beta, link, law_m, law_e, tol, None, nodes))
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
