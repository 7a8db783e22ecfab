"""Internal quadrature and power-solve machinery shared by the policy solvers.

The throughput and average-power integrals all live on the transmit region
z_m > gamma*z_e + nu (full CSI) or on z_m > alpha with an inner eavesdropper
integral (main CSI), for every beta >= 0. The helpers here tensorize those
regions so the per-state power solves vectorize through one lane kernel
(power_lanes), and both quadrature dimensions refine together through
numerics.refine_panels. Only the throughput readout (throughput_readout) and
the reported multiplier (reported_lam) depend on whether beta is 0.
"""

import math
from typing import Callable, Optional

import numpy as np

from .model import LN2, FadingLaw
from .numerics import (
    NumericsError,
    QuadResult,
    Tolerances,
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

    Per term, for beta >= 1, ((1+q)/(1+p))^(beta-1) with q = s*p is written
    through (1+p)/(1+q) = 1 + (1-s)*p/(1+q), which keeps near-threshold lanes
    (s -> 1) and large beta free of cancellation.
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
        return np.log(c / nu) + e, k
    w = c * np.exp(e)
    total = w.sum(axis=1)
    return np.log(total / nu), (w * k).sum(axis=1) / total


def _newton_block(out, mu, z, c, s, beta, nu, tol):
    """Solve one block of power_lanes into mu, a view of out."""
    b = min(2.0, beta + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # lanes with no gain drop out below
        big_l, k = _log_gain(np.zeros(z.size), c, s, beta, nu)
    mu[:] = 0.0
    lane = np.flatnonzero(big_l > 0.0)
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
        mu[lane[done]] = mu_new[done]
        keep = ~done
        lane, z, c, s, lo, hi, x, p = (v[keep] for v in (lane, z, c, s, lo, hi, x_new, p_new))
        if lane.size == 0:
            return
    mu[lane] = p / z
    raise NumericsError(f"power_lanes: {lane.size} lanes not converged after "
                        f"{tol.max_iter} steps", best=out)


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
) -> QuadResult:
    """Joint expectation of integrand(mu, z_m, z_e) over z_m > gamma*z_e + offset.

    power_fn supplies mu on the active region. With include_idle_mass the
    complement contributes 1 per unit probability (the value every throughput
    integrand takes at zero rate), so the result is a full expectation of a
    function that equals 1 off the transmit region.

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
        mu = power_fn(zm, zeg)
        vals = integrand(mu, zm, zeg) * law_m.density(zm)
        jac = 2.0 * offset * v * (v_max[:, None] - 1.0)
        inner = (vals * jac) @ wu
        if include_idle_mass:
            inner = inner + law_m.cdf(t)
        return float(we @ (inner * law_e.density(ze))) + idle_tail

    return refine_panels(at, tol, floor=floor, max_panels=256)


def idle_marginal_gain(z_m: float, gamma: float, law_e: FadingLaw, tol: Tolerances) -> float:
    """Integral of (z_m - gamma*t) over the eavesdropper law for t < z_m/gamma.

    This is the zero-power marginal gain of the main-CSI problem divided by
    beta, for every beta >= 0; it is strictly increasing in z_m, which the
    cutoff solver (main_csi.alpha_threshold) relies on. Integrated by parts
    it is gamma * Int_0^{z_m/gamma} P(z_e <= t) dt, read in closed form from
    law_e.integrated_cdf: the whole region z_e < z_m/gamma that the inner
    rule of main_region_expectation integrates, without truncation and
    without quadrature, so tol is not used.
    """
    if not z_m > 0.0:
        return 0.0
    return gamma * float(law_e.integrated_cdf(z_m / gamma))


# the main-CSI simulation table: z_m nodes, and inner eavesdropper panels per node
_TABLE_POINTS = 2049
_TABLE_INNER_PANELS = 64


def _inner_nodes(zm, u, wu, gamma, law_e):
    """Nodes z_e = (z_m/gamma)*u^2 under each z_m, their density-times-jacobian
    weights, and the power_lanes coefficients of the main-CSI gain there.
    """
    span = zm / gamma
    ze = (u * u)[None, :] * span[:, None]
    wpe = law_e.density(ze) * span[:, None] * 2.0 * u[None, :]
    return ze, wpe, wpe * wu * (zm[:, None] - gamma * ze)


def main_policy_table(beta, nu, alpha, gamma, law_m, law_e, tol):
    """Dense-table evaluator of the main-CSI power map.

    Queue simulation evaluates the policy on millions of gains; re-solving the
    inner integral per draw is wasteful, so the power is solved (as in
    main_region_expectation, on a fixed inner grid) at nodes over
    [alpha, cutoff] and interpolated. Below alpha the policy is exactly 0.
    """
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    if not (alpha < zm_hi):
        return lambda z_m: np.zeros(np.shape(z_m))

    # quadratic spacing: dense through the turn-on just above alpha
    v = np.linspace(0.0, 1.0, _TABLE_POINTS)
    grid = alpha + (zm_hi - alpha) * v * v
    u, wu = panel_nodes(0.0, 1.0, _TABLE_INNER_PANELS)
    # the inner grid is built one kernel block at a time, never for the whole table
    step = max(1, _BLOCK_TERMS // u.size)
    mu_grid = np.concatenate([
        power_lanes(zc, _inner_nodes(zc, u, wu, gamma, law_e)[2], u * u, beta, nu, tol)
        for zc in np.split(grid, range(step, grid.size, step))
    ])

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
) -> QuadResult:
    """Expectation over z_m > alpha with a per-z_m power solve and inner z_e integral.

    Each z_m node solves, for its power, the lane equation of power_lanes with
    terms (z_m - gamma*z_e) p_E(z_e) integrated over z_e < z_m/gamma, against
    the normalized multiplier nu (lam/beta, or the theta = 0 multiplier at
    beta = 0). integrand(mu, z_m, z_e) is then integrated over the same
    inner region; integrand=None integrates the power itself (no inner
    integral). include_idle_mass adds the probability mass where the service
    is zero (z_m <= alpha, z_e >= z_m/gamma, truncated z_m tail) at value 1.

    Both variables are substituted to keep the threshold layers resolved at
    any calibration: the power turns on over a distance ~alpha above the
    cutoff, so z_m = alpha*w^2 with uniform panels in w >= 1; the inner
    integrands develop a layer of width ~1/mu near z_e = 0 once the power is
    large, handled by z_e = (z_m/gamma)*u^2.
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
        u, wu = panel_nodes(0.0, 1.0, n)
        ze, wpe, coef = _inner_nodes(zm, u, wu, gamma, law_e)
        mu = power_lanes(zm, coef, u * u, beta, nu, tol)
        if integrand is None:
            vals = mu
        else:
            vals = (integrand(mu[:, None], zm[:, None], ze) * wpe) @ wu
            if include_idle_mass:
                vals = vals + (1.0 - law_e.cdf(zm / gamma))
        return float(wm @ (vals * law_m.density(zm))) + base

    return refine_panels(at, tol, floor=floor, max_panels=256)
