"""Power control and secure throughput when only the main-channel gain is known.

Power depends on z_m alone, so the stationarity condition averages the state
marginal gain over the eavesdropper law on z_e < z_m/gamma:

    beta * Int_0^{z_m/gamma} r(mu)^(-beta-1) (z_m - gamma*z_e)
           / (1 + gamma*mu*z_e)^2 p_E(z_e) dz_e  =  lam,

with r(mu) = (1 + mu*z_m)/(1 + gamma*mu*z_e). The left side decreases strictly
in mu and increases strictly in z_m at mu = 0, so the policy transmits exactly
above a cutoff gain alpha and each active z_m has a unique root. The power
map has one evaluator, main_power: the lane kernel on a Gauss-Legendre rule
for the inner integral. The throughput and mean-power quadratures
(main_region_expectation) call it at their own nodes, and the simulation
policy interpolates a table of it (main_policy_table) on the inner panel
count at which the solve's throughput readout stopped, doubled while that
rule cannot resolve the eavesdropper law.

Divided by beta, the condition holds for every beta >= 0 with the normalized
multiplier nu = lam/beta: at beta = 0 (theta = 0, no QoS constraint) it is the
first-order condition of the mean secrecy rate and nu is the rate multiplier
in nats. The cutoff solves Int_0^{alpha/gamma} (alpha - gamma*z_e) p_E dz_e = nu
for every beta, by Newton's method on its closed form (alpha_threshold), and
nu is calibrated so the policy spends the average-SNR budget with equality.
"""

import math
from functools import partial

import numpy as np

from ._region import BLOCK_TERMS, NodePowers, node_powers, power_lanes, quadrature, solve
from .model import (SERIES_BELOW, FadingLaw, LinkBudget, PowerPolicy, QosSpec, Solution,
                    ValidationError, excess_series)
from .numerics import (DEFAULT_TOL, MAX_PANELS, NumericsError, QuadResult, Tolerances,
                       graded_nodes, panel_nodes)


def alpha_threshold(nu: float, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL) -> float:
    """Cutoff gain below which the main-CSI policy with multiplier nu is silent.

    The root of idle_marginal_gain(alpha) = nu, for every beta >= 0: in
    x = alpha/(gamma*m_e), for the eavesdropper mean m_e, the increasing and
    convex g(x) = x - 1 + e^-x = nu/(gamma*m_e) = c (_scaled_gain). Newton's
    method in floats from min(1 + c, sqrt(2c) + c), right of the root, falls
    onto it monotonically, and stops once a step is at most root_tol relative
    or no longer decreases x (the floating-point floor); NumericsError carries
    the last iterate after max_iter steps. Returns 0.0 at nu = 0, and math.inf
    when g at the truncation point of law_m is at most c (nu = math.inf too).
    """
    if not nu >= 0:
        raise ValidationError("nu must be nonnegative")
    scale = link.gamma * law_e.mean_gain
    c = nu / scale
    if _scaled_gain(law_m.tail_cutoff(tol.quad_trunc_mass) / scale) <= c:
        return math.inf
    if c == 0.0:
        return 0.0
    x = min(1.0 + c, math.sqrt(2.0 * c) + c)
    for _ in range(tol.max_iter):
        step = (_scaled_gain(x) - c) / -math.expm1(-x)
        if x - step >= x or step <= tol.root_tol * (x - step):
            return min(x, x - step) * scale
        x -= step
    raise NumericsError(f"cutoff not converged after {tol.max_iter} Newton steps", best=x * scale)


def _scaled_gain(x: float) -> float:
    """g(x) = x - 1 + e^-x at a float x >= 0, as FadingLaw.integrated_cdf reads it."""
    return excess_series(x) if x < SERIES_BELOW else x + math.expm1(-x)


def idle_marginal_gain(z_m, gamma: float, law_e: FadingLaw):
    """Integral of (z_m - gamma*t) over the eavesdropper law for t < z_m/gamma,
    at a gain or an array of gains (0 where z_m <= 0).

    This is the zero-power marginal gain of the main-CSI problem divided by
    beta, for every beta >= 0, strictly increasing in z_m, and the cutoff
    alpha_threshold solves it against nu. By parts it is gamma times
    law_e.integrated_cdf(z_m/gamma), in closed form over the whole region
    z_e < z_m/gamma that main_region_expectation's inner rule integrates.
    """
    return gamma * law_e.integrated_cdf(np.asarray(z_m, dtype=float) / gamma)


# the main-CSI simulation table: nodes before refinement, the interpolation
# bound relative to max(1, mu) and the refinement rounds before it gives up
_TABLE_START_POINTS = 513
_TABLE_REL_TOL = 1e-4
_TABLE_ROUNDS = 10
# the largest relative miss of the fixed inner rule's zero-power gain against
# idle_marginal_gain; inside the realistic range the rule meets it to ~1e-13
_INNER_RULE_REL_TOL = 1e-8


def main_power(zm, panels, beta, nu, gamma, law_e, tol):
    """Main-CSI power at gains zm > 0, on an inner rule of the given panel count.

    Each gain solves the lane equation of power_lanes with terms
    (z_m - gamma*z_e) p_E(z_e) over z_e < z_m/gamma, against the normalized
    multiplier nu. The inner rule is Gauss-Legendre in u with
    z_e = (z_m/gamma)*u^2, which resolves the layer of width ~1/mu near
    z_e = 0 that the integrands develop once the power is large. Returns
    (mu, ze, wpe, wu): the powers, the inner nodes under each gain, their
    density-times-jacobian weights, and the u weights, so that
    (f(z_e) * wpe) @ wu integrates f against p_E over each gain's region.
    """
    u, wu = panel_nodes(panels)
    span = zm / gamma
    ze = (u * u)[None, :] * span[:, None]
    wpe = law_e.density(ze) * span[:, None] * 2.0 * u[None, :]
    coef = wpe * wu * (zm[:, None] - gamma * ze)
    return power_lanes(zm, coef, u * u, beta, nu, tol), ze, wpe, wu


class InnerRuleError(NumericsError):
    """A fixed inner rule cannot resolve the eavesdropper law at some gain."""


def fixed_rule_power(zm, panels, beta, nu, gamma, law_e, tol, layer: str):
    """main_power on a fixed inner rule of the given panel count, which the
    simulation table and the release checks use, checked at every gain.

    A fixed rule cannot resolve an eavesdropper law far narrower than
    z_m/gamma: at eavesdropper mean 1e-9 and z_m = 2 the nodes of 64 panels
    miss nearly all of the density and the power would silently come out 0.
    So the rule's zero-power gain, ((z_m - gamma*z_e) * wpe) @ wu, is
    compared with the closed form idle_marginal_gain, and a relative miss
    above 1e-8 at any gain raises InnerRuleError naming layer, with the
    powers as best.
    """
    mu, ze, wpe, wu = main_power(zm, panels, beta, nu, gamma, law_e, tol)
    rule = ((zm[:, None] - gamma * ze) * wpe) @ wu
    exact = idle_marginal_gain(zm, gamma, law_e)
    miss = np.abs(rule - exact) > _INNER_RULE_REL_TOL * exact
    if miss.any():
        k = int(np.argmax(miss))
        raise InnerRuleError(
            f"{layer}: the {panels}-panel inner rule's zero-power gain at "
            f"z_m = {zm[k]:g} is {rule[k]:.6g} against {exact[k]:.6g} in closed form "
            f"({int(miss.sum())} of {zm.size} gains miss by more than "
            f"{_INNER_RULE_REL_TOL:g} relative)", best=mu)
    return mu


def main_table_nodes(beta, nu, alpha, gamma, law_m, law_e, tol, panels):
    """Nodes (z, mu) of the main-CSI power map, on an inner rule of the given
    panel count, whose linear interpolation is within 1e-4*max(1, mu) at
    every checked midpoint.

    The power is 0 up to the cutoff alpha and turns on steeply just above it,
    so the 513 starting nodes are alpha and alpha plus offsets placed
    geometrically from 1e-6*alpha to the truncation point of the main-channel
    law. Each round solves the power (fixed_rule_power, which raises
    InnerRuleError where its inner rule cannot resolve the eavesdropper law)
    at the midpoint of every interval under check and keeps it as a node;
    the halves of an interval whose interpolated midpoint missed the bound
    are checked in the next round. After _TABLE_ROUNDS rounds with a miss
    left, NumericsError carries the nodes so far. Requires alpha < the
    truncation point.
    """
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    anchor = max(alpha, zm_hi * 1e-14)
    # the inner grid is built one kernel block at a time, never for the whole table
    step = max(1, BLOCK_TERMS // panel_nodes(panels)[0].size)

    def solve(z):
        return np.concatenate([fixed_rule_power(zc, panels, beta, nu, gamma, law_e, tol,
                                                "main_policy_table")
                               for zc in np.split(z, range(step, z.size, step))])

    offsets = np.geomspace(1e-6 * anchor, zm_hi - alpha, _TABLE_START_POINTS - 1)
    z = alpha + np.concatenate([[0.0], offsets])
    mu = solve(z)
    check = np.arange(z.size - 1)  # intervals [z[k], z[k+1]] to check
    for _ in range(_TABLE_ROUNDS):
        z_mid = 0.5 * (z[check] + z[check + 1])
        mu_mid = solve(z_mid)
        linear = 0.5 * (mu[check] + mu[check + 1])
        miss = np.abs(mu_mid - linear) > _TABLE_REL_TOL * np.maximum(1.0, mu_mid)
        z, mu = np.insert(z, check + 1, z_mid), np.insert(mu, check + 1, mu_mid)
        if not miss.any():
            return z, mu
        # the j-th checked interval now starts at check[j] + j; check both its halves
        lower = (check + np.arange(check.size))[miss]
        check = np.column_stack([lower, lower + 1]).ravel()
    raise NumericsError(f"main_policy_table: {int(miss.sum())} intervals miss the "
                        f"interpolation bound after {_TABLE_ROUNDS} rounds", best=(z, mu))


def main_policy_table(beta, nu, alpha, gamma, law_m, law_e, tol, panels):
    """Interpolating evaluator of the main-CSI power map, for queue simulation.

    Queue simulation evaluates the policy on millions of gains; re-solving the
    inner integral per draw is wasteful, so the power is solved at the nodes
    of main_table_nodes, whose midpoint check bounds the interpolation error,
    and interpolated linearly between them. The nodes are solved on panels
    inner panels, the count at which the solve's readout stopped (at most
    numerics.MAX_PANELS); where that rule misses its zero-power check
    (InnerRuleError) the build starts over on twice as many, and at
    MAX_PANELS the error propagates. At and below alpha the policy is
    exactly 0; above the last node it is held at the last node's power.
    Between, the evaluator is bitwise np.interp on the nodes, with the node
    interval found by table_lookup instead of a binary search.
    """
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    if not (alpha < zm_hi):
        return lambda z_m: np.zeros(np.shape(z_m))
    while True:
        try:
            grid, mu_grid = main_table_nodes(beta, nu, alpha, gamma, law_m, law_e, tol, panels)
            break
        except InnerRuleError:
            if panels >= MAX_PANELS:
                raise
            panels = min(2 * panels, MAX_PANELS)
    interp = table_lookup(grid, mu_grid)

    def state_power(z_m):
        z_m = np.asarray(z_m, dtype=float)
        return np.where(z_m <= alpha, 0.0, interp(z_m))

    return state_power


# buckets per node of table_lookup's index, rounded to a power of two per octave
_BUCKETS_PER_NODE = 4


def table_lookup(grid, values):
    """np.interp(z, grid, values) as a function of z, bitwise, for an increasing
    grid of at least two nodes; fast where the nodes are spaced geometrically
    above grid[0], as main_table_nodes places them.

    np.interp binary-searches the grid for each query. Here the interval of z
    comes from a bucket index on z - grid[0]: the top bits of that float, its
    exponent and its first m mantissa bits, so 2^m buckets per octave, close to
    uniform in ln(z - grid[0]) and exactly monotone in z. m is chosen for about
    _BUCKETS_PER_NODE buckets per node over the grid's octaves. Each bucket
    holds the last node below it, and `steps` vectorized advances over
    grid[j+1] <= z, as many as the most nodes any bucket holds, land on
    np.interp's interval. The value is then np.interp's own formula,
    slope[j]*(z - grid[j]) + values[j] with the slopes precomputed as it
    does, on z clamped to [grid[0], grid[-1]], outside which np.interp
    returns the end values.
    """
    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    corner, top = grid[0], grid[-1]
    slope = np.append(np.diff(values) / np.diff(grid), 0.0)
    after = np.append(grid[1:], np.inf)  # grid[j + 1]; never passed from the last node
    octaves = max(1.0, math.log2((top - corner) / (grid[1] - corner)))
    shift = 52 - min(52, max(0, round(math.log2(_BUCKETS_PER_NODE * grid.size / octaves))))
    first, last = (int(np.subtract(g, corner).view(np.int64) >> shift) for g in (grid[1], top))

    def bucket(z):  # z >= corner: the bits of z - corner >= 0 rise with it
        key = np.subtract(z, corner).view(np.int64)
        key >>= shift
        key -= first
        return np.clip(key, 0, last - first, out=key)

    node_bucket, bins = bucket(grid), np.arange(last - first + 1)
    start = np.maximum(np.searchsorted(node_bucket, bins, side="left") - 1, 0)
    steps = int((np.searchsorted(node_bucket, bins, side="right") - 1 - start).max())

    def interp(z):
        shape = np.shape(z)
        z = np.clip(np.ravel(z), corner, top)
        j = start.take(bucket(z))
        for _ in range(steps):
            j += after.take(j) <= z
        z -= grid.take(j)
        z *= slope.take(j)
        z += values.take(j)
        return z.reshape(shape)

    return interp


def main_region_expectation(
    nu: float,
    alpha: float,
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
    """Integral against the state law over z_m > alpha, where the policy
    transmits, with a per-z_m power solve.

    Each z_m node takes its power from main_power on an inner rule with as
    many panels as the outer one, against the normalized multiplier nu
    (lam/beta, or the theta = 0 multiplier at beta = 0).
    integrand(mu, z_m, z_e) is then integrated on the same inner rule, over
    z_e < z_m/gamma where the secrecy rate is positive, so the region is the
    policy's transmit region; integrand=None integrates the power itself over
    every z_e (no inner integral). panels fixes the outer (and so the inner)
    panel count (see _region.quadrature); by default both refine together.
    Given nodes, each rung's main_power result (powers and inner rule) comes
    from that store under nu, and is solved only on a miss. The power turns
    on over a distance ~alpha above the cutoff, so z_m - alpha is graded at
    scale alpha (numerics.graded_nodes).
    """
    gamma = link.gamma
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    if not (alpha < zm_hi):
        return QuadResult(0.0, 0.0, 0)
    anchor = max(alpha, zm_hi * 1e-14)

    def at(n: int) -> float:
        dm, wm = graded_nodes(anchor, zm_hi - anchor, n)
        zm = anchor + dm
        mu, ze, wpe, wu = node_powers(
            nodes, nu, n, lambda: main_power(zm, n, beta, nu, gamma, law_e, tol))
        vals = mu if integrand is None else (integrand(mu[:, None], zm[:, None], ze) * wpe) @ wu
        return float(wm @ (vals * law_m.density(zm)))

    return quadrature(at, tol, floor, panels)


def mean_power_main(nu: float, beta: float, link: LinkBudget,
                    law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL, panels: int | None = None,
                    nodes: NodePowers | None = None) -> float:
    """Expected transmit SNR of the main-CSI policy with normalized multiplier
    nu, refined to tol, or on a fixed number of outer and inner panels; nodes
    is the solve's store of node powers, if any (see main_region_expectation).
    """
    if not (nu > 0 and beta >= 0):
        raise ValidationError("nu must be positive and beta nonnegative")
    alpha = alpha_threshold(nu, link, law_m, law_e, tol)
    return main_region_expectation(nu, alpha, beta, link, law_m, law_e, tol, None,
                                   max(link.avg_snr, 1e-6), panels, nodes).value


def solve_main(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
               tol: Tolerances = DEFAULT_TOL) -> Solution:
    """Calibrate the main-CSI policy and read out its effective secure throughput
    (_region.solve). The threshold is the cutoff alpha at the accepted nu,
    solved once more (a few Newton steps), and the policy interpolates
    main_policy_table, which is built only when the policy is asked for, on
    the readout's inner panel count.
    """
    beta, gamma = qos.beta, link.gamma

    def policy_at(nu, nodes):
        alpha = alpha_threshold(nu, link, law_m, law_e, tol)
        return (alpha, partial(main_region_expectation, nu, alpha, beta, link, law_m, law_e,
                               tol, nodes=nodes),
                partial(main_policy_table, beta, nu, alpha, gamma, law_m, law_e, tol))

    return solve("main", mean_power_main, policy_at, qos, link, law_m, law_e, tol)


throughput_main = solve_main  # the name the benchmark calls the solve by


def build_policy_main(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                      tol: Tolerances = DEFAULT_TOL) -> PowerPolicy:
    """The calibrated main-CSI policy, its evaluator tabulated (solve_main)."""
    return solve_main(qos, link, law_m, law_e, tol).policy()
