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
    calibrate_policy,
    idle_marginal_gain,
    main_policy_table,
    main_region_expectation,
    solution,
)
from .model import (
    FadingLaw,
    LinkBudget,
    PowerPolicy,
    QosSpec,
    Solution,
    ThroughputResult,
    ValidationError,
)
from .numerics import DEFAULT_TOL, NumericsError, Tolerances, _brent


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


def solve_main(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
               tol: Tolerances = DEFAULT_TOL) -> Solution:
    """Calibrate the main-CSI policy and read out its effective secure throughput.

    As full_csi.solve_full. The threshold is the cutoff alpha at the
    accepted nu, solved once more at no quadrature cost (its gain is in
    closed form, idle_marginal_gain), and the policy interpolates
    main_policy_table, which is built only when the policy is asked for.
    """
    beta, gamma = qos.beta, link.gamma
    nodes = NodePowers()
    nu, residual = calibrate_policy(mean_power_main, beta, link, law_m, law_e, tol, nodes)
    alpha = alpha_threshold(nu, link, law_e, tol, law_m=law_m)
    return solution("main", qos, gamma, nu, alpha, residual,
                    _policy_expectation(nu, alpha, beta, link, law_m, law_e, tol, None, nodes),
                    lambda: main_policy_table(beta, nu, alpha, gamma, law_m, law_e, tol))


def throughput_main(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL) -> ThroughputResult:
    """Effective secure throughput under the calibrated main-CSI policy (solve_main)."""
    return solve_main(qos, link, law_m, law_e, tol).throughput


def build_policy_main(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                      tol: Tolerances = DEFAULT_TOL) -> PowerPolicy:
    """The calibrated main-CSI policy, its evaluator tabulated (solve_main)."""
    return solve_main(qos, link, law_m, law_e, tol).policy()
