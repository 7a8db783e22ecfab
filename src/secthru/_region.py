"""Internal quadrature and power-solve machinery shared by the policy solvers.

The throughput and average-power integrals all live on the transmit region
z_m > gamma*z_e + nu (full CSI) or on z_m > alpha with an inner eavesdropper
integral (main CSI), for every beta >= 0. The helpers here tensorize those
regions so the per-state power solves vectorize through one lane kernel
(power_lanes), and both quadrature dimensions refine together through
numerics.refine_panels. The main-CSI power map has one evaluator, main_power
(the lane kernel on an inner Gauss-Legendre rule); the main-CSI quadrature
and the simulation table (main_policy_table) both call it. Only the
throughput readout (throughput_readout) and the reported multiplier
(reported_lam) depend on whether beta is 0. The calibration of a solve
(calibrate_policy) and its Solution record (solution) are wired here once
for both CSI modes.
"""

import math
from typing import Callable, Optional

import numpy as np

from .model import LN2, FadingLaw, Solution, ThroughputResult
from .numerics import (
    FIRST_RUNG,
    NumericsError,
    QuadResult,
    Tolerances,
    calibrate,
    panel_nodes,
    refine_panels,
)


def reported_lam(beta: float, nu: float) -> float:
    """The multiplier results report for normalized multiplier nu: lam = beta*nu,
    or at beta = 0 the rate multiplier nu itself (nats per unit power).
    """
    return beta * nu if beta > 0.0 else nu


def throughput_readout(beta: float, gamma: float, expectation) -> tuple:
    """Throughput in bits/s/Hz and its quadrature error under a calibrated policy.

    expectation(integrand, floor, include_idle_mass) -> QuadResult is the CSI
    mode's region expectation of integrand(mu, z_m, z_e). At beta = 0 the
    throughput is the mean secrecy rate E{ln r}/ln 2, whose integrand is 0
    off the transmit region; for beta > 0 it is -ln E{r^-beta}/(beta ln 2),
    whose integrand is 1 there, so the idle mass enters.
    """
    def log_ratio(mu, zm, ze):
        return np.log1p(mu * zm) - np.log1p(gamma * mu * ze)

    if beta == 0.0:
        res = expectation(lambda mu, zm, ze: log_ratio(mu, zm, ze) / LN2, 0.01, False)
        return max(0.0, res.value), res.error
    res = expectation(lambda mu, zm, ze: np.exp(-beta * log_ratio(mu, zm, ze)), 1.0, True)
    return (max(0.0, -math.log(res.value) / (beta * LN2)),
            res.error / (max(res.value, 1e-12) * beta * LN2))


def calibrate_policy(mean_power, beta, link, law_m, law_e, tol, nodes):
    """(nu, residual) of the multiplier that spends link.avg_snr with equality
    (nu = math.inf for a zero budget), at the beta of a QosSpec.

    mean_power(nu, beta, link, law_m, law_e, tol, panels, nodes) is the CSI
    mode's mean power: on the quadrature's first rung the coarse evaluator of
    numerics.calibrate, refined the one that polishes the coarse root. Both
    share the NodePowers store nodes, so the refined stage's first probe, at
    the coarse root, reads the first rung the coarse stage solved there, and
    the readout at the returned nu reads the rungs of the accepted probe.
    """
    # at nu = zm_hi the threshold is beyond the truncated support: zero power
    u_hi = math.log(law_m.tail_cutoff(tol.quad_trunc_mass))
    # positional, so that wrappers of mean_power see every argument
    return calibrate(lambda nu, t: mean_power(nu, beta, link, law_m, law_e, t, None, nodes),
                     link.avg_snr, u_hi, tol,
                     lambda nu, t: mean_power(nu, beta, link, law_m, law_e, t, FIRST_RUNG, nodes))


def solution(csi_mode, qos, gamma, nu, threshold, residual, expectation, build_state_power):
    """The Solution of a calibrated multiplier nu, its throughput read out now
    through expectation, the CSI mode's region expectation under the policy at
    nu (see throughput_readout) on the calibration's NodePowers store. That is
    not kept, and build_state_power must not hold the store: no node grid
    outlives the solve.
    """
    value, quad_error = throughput_readout(qos.beta, gamma, expectation)
    throughput = ThroughputResult(
        throughput_bits_s_hz=value,
        throughput_bits_s=value * qos.bandwidth_b,
        lam=reported_lam(qos.beta, nu),
        power_residual=residual,
        quad_error=quad_error,
        theta=qos.theta,
    )
    return Solution(csi_mode=csi_mode, beta=qos.beta, nu=nu, threshold=threshold,
                    throughput=throughput, build_state_power=build_state_power)


# lane-terms solved together: the kernel's temporaries stay near a megabyte
# however many states a caller passes
_BLOCK_TERMS = 1 << 14


def power_lanes(z_m, coef, ratio, beta: float, nu: float, tol: Tolerances) -> np.ndarray:
    """Optimal power of every lane: the root of G_i(mu) = nu, or 0 if G_i(0) <= nu.

        G_i(mu) = sum_j coef[i, j] (1 + mu*z_i)^-(beta+1) (1 + ratio[i, j]*mu*z_i)^(beta-1)

    with coef >= 0 and ratio = gamma*z_e/z_m in [0, 1); a 1-D coef is one term
    per lane. In x = ln(1 + mu*z_i) the slope of h = ln(G_i/nu) is a weighted
    mean of per-term slopes in [-max(2, beta+1), -min(2, beta+1)], so the root
    lies in [L/max(2, beta+1), L/min(2, beta+1)] with L = h(0). Each lane takes
    Newton steps on h from the tangent root at x = 0, bisects its running
    bracket whenever a step leaves it, and is frozen once its step in mu is
    below root_tol*max(1, mu). A non-finite iterate or max_iter steps raise
    NumericsError carrying the powers so far (NaN in blocks not reached).
    """
    ratio = np.broadcast_to(ratio, coef.shape)
    size = max(1, _BLOCK_TERMS // (coef.shape[1] if coef.ndim == 2 else 1))
    out = np.full(z_m.size, np.nan)
    for start in range(0, z_m.size, size):
        blk = slice(start, start + size)
        _newton_block(out, out[blk], z_m[blk], coef[blk], ratio[blk], beta, nu, tol)
    return out


def _log_gain(p, c, s, beta, nu):
    """ln(G/nu) + min(2, beta+1)*x and its x-derivative at p = mu*z_m = e^x - 1.

    A 2-D c holds each lane's terms; a 1-D c is one term per lane, passed
    already as ln(c/nu). Per term, for beta >= 1, ((1+q)/(1+p))^(beta-1) with
    q = s*p is written through (1+p)/(1+q) = 1 + (1-s)*p/(1+q), which keeps
    near-threshold lanes (s -> 1) and large beta free of cancellation.
    """
    if c.ndim == 2:
        p = p[:, None]
    q = s * p
    if beta >= 1.0:
        t = (1.0 - s) / (1.0 + q)
        e, k = -(beta - 1.0) * np.log1p(t * p), -(beta - 1.0) * t
    else:
        e, k = (beta - 1.0) * np.log1p(q), (beta - 1.0) * s * (1.0 + p) / (1.0 + q)
    if c.ndim == 1:
        return c + e, k
    w = c * np.exp(e)
    total = w.sum(axis=1)
    return np.log(total / nu), (w * k).sum(axis=1) / total


def _newton_block(out, mu, z, c, s, beta, nu, tol):
    """Solve one block of power_lanes into mu, a view of out."""
    b = min(2.0, beta + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # lanes with no gain drop out below
        if c.ndim == 1:
            c = np.log(c / nu)
        big_l, k = _log_gain(np.zeros(z.size), c, s, beta, nu)
    mu[:] = 0.0
    lane = np.flatnonzero(big_l > 0.0)
    if lane.size == 0:
        return
    z, c, s, big_l, k = (v[lane] for v in (z, c, s, big_l, k))
    lo, hi = big_l / max(2.0, beta + 1.0), big_l / b
    x = np.clip(big_l / (b - k), lo, hi)
    p = np.expm1(x)
    for _ in range(tol.max_iter):
        g, dg = _log_gain(p, c, s, beta, nu)  # h = g - b*x, dh/dx = dg - b
        step = (g - b * x) / (b - dg)
        if not np.all(np.isfinite(step)):
            mu[lane] = p / z
            raise NumericsError("power_lanes: non-finite iterate", best=out)
        above = g > b * x
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        x_new = x + step
        x_new = np.where((x_new < lo) | (x_new > hi), 0.5 * (lo + hi), x_new)
        p_new = np.expm1(x_new)
        mu_new = p_new / z
        done = np.abs(mu_new - p / z) <= tol.root_tol * np.maximum(1.0, mu_new)
        x, p = x_new, p_new
        if done.any():  # lanes mostly finish together: compact only when some did
            mu[lane[done]] = mu_new[done]
            keep = ~done
            lane, z, c, s, lo, hi, x, p = (v[keep] for v in (lane, z, c, s, lo, hi, x, p))
            if lane.size == 0:
                return
    mu[lane] = p / z
    raise NumericsError(f"power_lanes: {lane.size} lanes not converged after "
                        f"{tol.max_iter} steps", best=out)


class NodePowers:
    """The node powers one solve has computed, by panel count, at one multiplier.

    A region expectation under the policy with multiplier nu solves the same
    powers at the same nodes on every rung, whatever its integrand, and the
    power does not depend on quad_rel_tol. So within one solve (one beta,
    link, pair of laws, root_tol and max_iter) the calibration's last
    evaluations and the throughput readout at the same nu share their rungs.
    Only the latest multiplier's grids are kept: a new nu drops the others.
    """

    def __init__(self):
        self.nu = None
        self.grids = {}

    def get(self, nu: float, panels: int, solve: Callable[[], object]):
        """The stored solve() of this rung at nu, solved and stored on a miss."""
        if nu != self.nu:
            self.nu, self.grids = nu, {}
        if panels not in self.grids:
            self.grids[panels] = solve()
        return self.grids[panels]


def _node_powers(nodes: Optional[NodePowers], nu: float, panels: int, solve):
    return solve() if nodes is None else nodes.get(nu, panels, solve)


def transmit_region_expectation(
    power_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    integrand: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    offset: float,
    gamma: float,
    law_m: FadingLaw,
    law_e: FadingLaw,
    tol: Tolerances,
    floor: float,
    include_idle_mass: bool,
    panels: Optional[int] = None,
    nodes: Optional[NodePowers] = None,
) -> QuadResult:
    """Joint expectation of integrand(mu, z_m, z_e) over z_m > gamma*z_e + offset.

    power_fn supplies mu on the active region. With include_idle_mass the
    complement contributes 1 per unit probability (the value every throughput
    integrand takes at zero rate), so the result is a full expectation of a
    function that equals 1 off the transmit region. panels fixes the panel
    count per axis (see _quadrature); by default both axes refine together.
    Given nodes, each rung's powers come from that store under the multiplier
    offset, and are solved only on a miss; power_fn must then be the policy
    of the store's solve.

    Both variables are substituted to resolve the threshold boundary layers:
    the power turns on over a distance ~offset above z_m = gamma*z_e + offset
    and grows like sqrt(distance/offset) beyond it, and the same ~offset scale
    appears in z_e near 0. Uniform panels in w and v with
    gamma*z_e = offset*(w^2 - 1) and z_m = gamma*z_e + offset*v^2 stay
    resolved at any calibrated multiplier.
    """
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    ze_hi = law_e.tail_cutoff(tol.quad_trunc_mass)
    ze_cap = min(ze_hi, (zm_hi - offset) / gamma)
    if not ze_cap > 0.0:
        return QuadResult(1.0 if include_idle_mass else 0.0, 0.0, 0)

    idle_tail = 1.0 - float(law_e.cdf(ze_cap)) if include_idle_mass else 0.0
    w_max = np.sqrt(1.0 + gamma * ze_cap / offset)

    def at(n: int) -> float:
        w, we = panel_nodes(1.0, w_max, n)
        u, wu = panel_nodes(0.0, 1.0, n)
        ze = offset * (w * w - 1.0) / gamma
        we = we * (2.0 * offset / gamma) * w  # pull the z_e jacobian into the weights
        t = gamma * ze + offset
        v_max = np.sqrt((zm_hi - gamma * ze) / offset)  # z_m(v_max) = zm_hi
        v = 1.0 + (v_max[:, None] - 1.0) * u[None, :]
        zm = (gamma * ze)[:, None] + offset * v * v
        zeg = np.broadcast_to(ze[:, None], zm.shape)
        mu = _node_powers(nodes, offset, n, lambda: power_fn(zm, zeg))
        vals = integrand(mu, zm, zeg) * law_m.density(zm)
        jac = 2.0 * offset * v * (v_max[:, None] - 1.0)
        inner = (vals * jac) @ wu
        if include_idle_mass:
            inner = inner + law_m.cdf(t)
        return float(we @ (inner * law_e.density(ze))) + idle_tail

    return _quadrature(at, tol, floor, panels)


def _quadrature(at: Callable[[int], float], tol: Tolerances, floor: float,
                panels: Optional[int]) -> QuadResult:
    """refine_panels on a region rule at(n) of n panels per axis, or, given
    panels, at(panels) alone with no error estimate (error inf): the first
    rung costs about a fifth of a refinement that stops at the second.
    """
    if panels is None:
        return refine_panels(at, tol, floor=floor, max_panels=256)
    return QuadResult(at(panels), math.inf, panels)


def idle_marginal_gain(z_m, gamma: float, law_e: FadingLaw, tol: Tolerances):
    """Integral of (z_m - gamma*t) over the eavesdropper law for t < z_m/gamma,
    at a gain or an array of gains (0 where z_m <= 0).

    This is the zero-power marginal gain of the main-CSI problem divided by
    beta, for every beta >= 0; it is strictly increasing in z_m, which the
    cutoff solver (main_csi.alpha_threshold) relies on. Integrated by parts
    it is gamma * Int_0^{z_m/gamma} P(z_e <= t) dt, read in closed form from
    law_e.integrated_cdf: the whole region z_e < z_m/gamma that the inner
    rule of main_region_expectation integrates, without truncation and
    without quadrature, so tol is not used.
    """
    return gamma * law_e.integrated_cdf(np.asarray(z_m, dtype=float) / gamma)


# the main-CSI simulation table: inner eavesdropper panels per node, nodes
# before refinement, the interpolation bound relative to max(1, mu) and the
# refinement rounds before it gives up
TABLE_INNER_PANELS = 64
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
    u, wu = panel_nodes(0.0, 1.0, panels)
    span = zm / gamma
    ze = (u * u)[None, :] * span[:, None]
    wpe = law_e.density(ze) * span[:, None] * 2.0 * u[None, :]
    coef = wpe * wu * (zm[:, None] - gamma * ze)
    return power_lanes(zm, coef, u * u, beta, nu, tol), ze, wpe, wu


def fixed_rule_power(zm, beta, nu, gamma, law_e, tol, layer: str):
    """main_power on the fixed TABLE_INNER_PANELS-panel inner rule, which the
    simulation table and the release checks use, checked at every gain.

    A fixed rule cannot resolve an eavesdropper law far narrower than
    z_m/gamma: at eavesdropper mean 1e-9 and z_m = 2 its nodes miss nearly
    all of the density and the power would silently come out 0. So the rule's
    zero-power gain, ((z_m - gamma*z_e) * wpe) @ wu, is compared with the
    closed form idle_marginal_gain, and a relative miss above 1e-8 at any
    gain raises NumericsError naming layer, with the powers as best.
    """
    mu, ze, wpe, wu = main_power(zm, TABLE_INNER_PANELS, beta, nu, gamma, law_e, tol)
    rule = ((zm[:, None] - gamma * ze) * wpe) @ wu
    exact = idle_marginal_gain(zm, gamma, law_e, tol)
    miss = np.abs(rule - exact) > _INNER_RULE_REL_TOL * exact
    if miss.any():
        k = int(np.argmax(miss))
        raise NumericsError(
            f"{layer}: the {TABLE_INNER_PANELS}-panel inner rule's zero-power gain at "
            f"z_m = {zm[k]:g} is {rule[k]:.6g} against {exact[k]:.6g} in closed form "
            f"({int(miss.sum())} of {zm.size} gains miss by more than "
            f"{_INNER_RULE_REL_TOL:g} relative)", best=mu)
    return mu


def main_table_nodes(beta, nu, alpha, gamma, law_m, law_e, tol):
    """Nodes (z, mu) of the main-CSI power map whose linear interpolation is
    within 1e-4*max(1, mu) at every checked midpoint.

    The power is 0 up to the cutoff alpha and turns on steeply just above it,
    so the 513 starting nodes are alpha and alpha plus offsets placed
    geometrically from 1e-6*alpha to the truncation point of the main-channel
    law. Each round solves the power (fixed_rule_power, which raises
    NumericsError where its inner rule cannot resolve the eavesdropper law)
    at the midpoint of every interval under check and keeps it as a node;
    the halves of an interval whose interpolated midpoint missed the bound
    are checked in the next round. After _TABLE_ROUNDS rounds with a miss
    left, NumericsError carries the nodes so far. Requires alpha < the
    truncation point.
    """
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    anchor = max(alpha, zm_hi * 1e-14)
    # the inner grid is built one kernel block at a time, never for the whole table
    step = max(1, _BLOCK_TERMS // panel_nodes(0.0, 1.0, TABLE_INNER_PANELS)[0].size)

    def solve(z):
        return np.concatenate([fixed_rule_power(zc, beta, nu, gamma, law_e, tol,
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


def main_policy_table(beta, nu, alpha, gamma, law_m, law_e, tol):
    """Interpolating evaluator of the main-CSI power map, for queue simulation.

    Queue simulation evaluates the policy on millions of gains; re-solving the
    inner integral per draw is wasteful, so the power is solved at the nodes
    of main_table_nodes, whose midpoint check bounds the interpolation error,
    and interpolated linearly between them. At and below alpha the policy is
    exactly 0; above the last node it is held at the last node's power.
    """
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    if not (alpha < zm_hi):
        return lambda z_m: np.zeros(np.shape(z_m))
    grid, mu_grid = main_table_nodes(beta, nu, alpha, gamma, law_m, law_e, tol)

    def state_power(z_m):
        z_m = np.asarray(z_m, dtype=float)
        mu = np.interp(z_m, grid, mu_grid)
        return np.where(z_m <= alpha, 0.0, mu)

    return state_power


def main_region_expectation(
    beta: float,
    integrand: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]],
    nu: float,
    gamma: float,
    law_m: FadingLaw,
    law_e: FadingLaw,
    tol: Tolerances,
    alpha: float,
    floor: float,
    include_idle_mass: bool,
    panels: Optional[int] = None,
    nodes: Optional[NodePowers] = None,
) -> QuadResult:
    """Expectation over z_m > alpha with a per-z_m power solve and inner z_e integral.

    Each z_m node takes its power from main_power on an inner rule with as
    many panels as the outer one, against the normalized multiplier nu
    (lam/beta, or the theta = 0 multiplier at beta = 0).
    integrand(mu, z_m, z_e) is then integrated on the same inner rule;
    integrand=None integrates the power itself (no inner integral).
    include_idle_mass adds the probability mass where the service is zero
    (z_m <= alpha, z_e >= z_m/gamma, truncated z_m tail) at value 1. panels
    fixes the outer (and so the inner) panel count (see _quadrature); by
    default both refine together. Given nodes, each rung's main_power result
    (powers and inner rule) comes from that store under nu, and is solved
    only on a miss.

    Both variables are substituted to keep the threshold layers resolved at
    any calibration: the power turns on over a distance ~alpha above the
    cutoff, so z_m = alpha*w^2 with uniform panels in w >= 1; main_power's
    inner rule in u, z_e = (z_m/gamma)*u^2, handles the layer near z_e = 0.
    """
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    if not (alpha < zm_hi):
        return QuadResult(1.0 if include_idle_mass else 0.0, 0.0, 0)
    base = float(law_m.cdf(alpha)) + (1.0 - float(law_m.cdf(zm_hi))) if include_idle_mass else 0.0
    anchor = max(alpha, zm_hi * 1e-14)
    w_max = math.sqrt(zm_hi / anchor)

    def at(n: int) -> float:
        w, wm = panel_nodes(1.0, w_max, n)
        zm = anchor * w * w
        wm = wm * 2.0 * anchor * w  # z_m jacobian folded into the weights
        mu, ze, wpe, wu = _node_powers(
            nodes, nu, n, lambda: main_power(zm, n, beta, nu, gamma, law_e, tol))
        if integrand is None:
            vals = mu
        else:
            vals = (integrand(mu[:, None], zm[:, None], ze) * wpe) @ wu
            if include_idle_mass:
                vals = vals + (1.0 - law_e.cdf(zm / gamma))
        return float(wm @ (vals * law_m.density(zm))) + base

    return _quadrature(at, tol, floor, panels)
