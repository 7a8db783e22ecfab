"""Internal quadrature and power-solve machinery shared by the policy solvers.

Each CSI mode's policy lives in its own module: full_csi holds the transmit
region z_m > gamma*z_e + nu and its per-state power, main_csi the region
z_m > alpha with an inner eavesdropper integral, its power map and the
simulation table. What both share is here: the lane kernel (power_lanes)
through which every per-state power solve vectorizes, the store of one
solve's node powers (NodePowers), the rung quadrature that refines both
dimensions of a region rule together through numerics.refine_panels
(quadrature), and one solve (solve): the calibration of the multiplier, the
throughput readout (throughput_readout) and the Solution record. Only the
readout depends on whether beta is 0.
"""

import math
from typing import Callable, Optional

import numpy as np

from .model import LN2, Solution
from .numerics import (
    FIRST_RUNG,
    NumericsError,
    QuadResult,
    Tolerances,
    calibrate,
    refine_panels,
)


def throughput_readout(beta: float, gamma: float, expectation) -> tuple:
    """Throughput in bits/s/Hz, its quadrature error and the panel count per
    axis at which the quadrature stopped, under a calibrated policy.

    expectation(integrand, floor) -> QuadResult is the CSI mode's integral of
    integrand(mu, z_m, z_e) against the state law over its transmit region R.
    At beta = 0 the throughput is the mean secrecy rate E{ln r}/ln 2, whose
    integrand is 0 off R. For beta > 0 it is -ln E{r^-beta}/(beta ln 2), and
    r^-beta is 1 off R, so E{r^-beta} = 1 - I with I = E{(1 - r^-beta) 1_R}:
    every silent state drops out of the integral.
    """
    def log_ratio(mu, zm, ze):
        return np.log1p(mu * zm) - np.log1p(gamma * mu * ze)

    if beta == 0.0:
        res = expectation(lambda mu, zm, ze: log_ratio(mu, zm, ze) / LN2, 0.01)
        return max(0.0, res.value), res.error, res.panels
    res = expectation(lambda mu, zm, ze: -np.expm1(-beta * log_ratio(mu, zm, ze)), 1.0)
    return (max(0.0, -math.log1p(-res.value) / (beta * LN2)),
            res.error / ((1.0 - res.value) * beta * LN2), res.panels)


# panels per axis of the coarse evaluators numerics.calibrate solves on,
# cheapest first: the cold walk on 2 panels, then the second refinement rung.
# The last coarse stage stays at 8 panels, one rung above FIRST_RUNG: the
# refined stage's first probe, at its root, then reads those 8 panels from
# the store and solves only the 4-panel grid against which refine_panels
# checks them. A 4-panel last stage lands further from the refined root: on
# the stress box 43 refined evaluations instead of 36, up to 3 on one row.
CALIBRATION_RUNGS = (2, 2 * FIRST_RUNG)


def solve(csi_mode, mean_power, policy_at, qos, link, law_m, law_e, tol) -> Solution:
    """Calibrate a CSI mode's policy and read out its throughput at the beta
    of a QosSpec.

    The multiplier nu spends link.avg_snr with equality (nu = math.inf for a
    zero budget). mean_power(nu, beta, link, law_m, law_e, tol, panels, nodes)
    is the mode's mean power: on each rung of CALIBRATION_RUNGS a coarse
    evaluator of numerics.calibrate's ladder, refined the one that polishes
    the last coarse root. The cold bracket walk thus runs on the 2-panel rule,
    with 1/16 of the 8-panel rule's nodes; the 8-panel stage starts at its
    root and takes 1-3 evaluations, and the refined stage one.
    policy_at(nu, nodes) returns the policy at the calibrated nu as
    (threshold, expectation, build_state_power): its zero-power boundary, its
    transmit-region integral expectation(integrand, floor) (see
    throughput_readout), and the builder of its state power map, which
    Solution.policy calls with the readout's panel count.

    Every evaluation shares one NodePowers store, so the refined stage's first
    probe, at the 8-panel root, reads the 8-panel rung the last coarse stage
    solved there and solves only the 4-panel rung (FIRST_RUNG) it checks that
    against; where they agree the refinement stops at 8 panels. The readout
    at the returned nu reads the rungs of the accepted probe. The store is
    dropped on return, and build_state_power must not hold it: no node grid
    outlives the solve.
    """
    beta = qos.beta
    nodes = NodePowers()
    # at nu = zm_hi the threshold is beyond the truncated support: zero power
    u_hi = math.log(law_m.tail_cutoff(tol.quad_trunc_mass))
    # positional, so that wrappers of mean_power see every argument
    def at_panels(panels):
        return lambda nu, t: mean_power(nu, beta, link, law_m, law_e, t, panels, nodes)

    nu, residual = calibrate(at_panels(None), link.avg_snr, u_hi, tol,
                             [at_panels(n) for n in CALIBRATION_RUNGS])
    threshold, expectation, build_state_power = policy_at(nu, nodes)
    value, quad_error, panels = throughput_readout(beta, link.gamma, expectation)
    return Solution(csi_mode=csi_mode, beta=beta, nu=nu, threshold=threshold,
                    throughput_bits_s_hz=value, power_residual=residual, quad_error=quad_error,
                    panels=panels, build_state_power=build_state_power)


# lane-terms solved together: the kernel's temporaries stay near a megabyte
# however many states a caller passes
BLOCK_TERMS = 1 << 14


def power_lanes(z_m, coef, ratio, beta: float, nu: float, tol: Tolerances) -> np.ndarray:
    """Optimal power of every lane: the root of G_i(mu) = nu, or 0 if G_i(0) <= nu.

        G_i(mu) = sum_j coef[i, j] (1 + mu*z_i)^-(beta+1) (1 + ratio[i, j]*mu*z_i)^(beta-1)

    with coef >= 0 and ratio = gamma*z_e/z_m in [0, 1); a 1-D coef is one term
    per lane. In x = ln(1 + mu*z_i) the slope of h = ln(G_i/nu) is a weighted
    mean of per-term slopes in [-max(2, beta+1), -min(2, beta+1)], so the root
    lies in [L/max(2, beta+1), L/min(2, beta+1)] with L = h(0). Each lane takes
    Newton steps on h from the tangent root at x = 0, bisects its running
    bracket whenever a step leaves it, and is done once its step in mu is
    below root_tol*max(1, mu) or it lands on a bracket end (h at its rounding
    floor, where the lane would cycle); its power is written at that step and
    never again. A non-finite iterate of a lane not done, or max_iter steps,
    raise NumericsError carrying the powers so far (NaN in blocks not reached).
    """
    ratio = np.broadcast_to(ratio, coef.shape)
    size = max(1, BLOCK_TERMS // (coef.shape[1] if coef.ndim == 2 else 1))
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
    # the arithmetic of e = -(beta-1)*ln(1 + t*p), k = -(beta-1)*t with
    # t = (1-s)/(1+q), or e = (beta-1)*ln(1+q), k = (beta-1)*s*(1+p)/(1+q),
    # run in place in two arrays
    q = s * p
    if beta >= 1.0:
        q += 1.0
        k = 1.0 - s
        k /= q
        e = np.log1p(np.multiply(k, p, out=q), out=q)
        e *= -(beta - 1.0)
        k *= -(beta - 1.0)
    else:
        k = (beta - 1.0) * s
        k *= 1.0 + p
        e = np.log1p(q)
        q += 1.0
        k /= q
        e *= beta - 1.0
    if c.ndim == 1:
        return np.add(c, e, out=e), k
    w = np.multiply(c, np.exp(e, out=e), out=e)
    total = w.sum(axis=1)
    return np.log(total / nu), (k * w).sum(axis=1) / total


def _newton_block(out, mu, z, c, s, beta, nu, tol):
    """Solve one block of power_lanes into mu, a view of out.

    A lane's power is written once, at its first done step, and its later
    steps neither write nor raise. Done lanes stay in the arrays until the
    block compacts: a 1-D block once half of its lanes are done, since a
    done lane costs a few elementwise operations and a compaction copies
    nine arrays; a 2-D block at every step that finishes a lane, since each
    of its lanes costs a row of terms. Lanes are gathered, written and
    compacted by index, which costs a third less per state than boolean masks.
    """
    b = min(2.0, beta + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # lanes with no gain drop out below
        if c.ndim == 1:
            c = big_l = np.log(c / nu)  # _log_gain at p = 0 adds e = -0.0: bitwise c
        else:
            big_l, k = _log_gain(np.zeros(z.size), c, s, beta, nu)
    mu[:] = 0.0
    lane = np.flatnonzero(big_l > 0.0)
    if lane.size == 0:
        return
    if lane.size < z.size:  # with every lane live the gathers would only copy
        z, c, s, big_l = (v.take(lane, axis=0) for v in (z, c, s, big_l))
        if c.ndim == 2:
            k = k.take(lane)
    if c.ndim == 1:  # _log_gain's slope at p = 0, where 1 + q is 1: bitwise the same
        k = -(beta - 1.0) * (1.0 - s) if beta >= 1.0 else (beta - 1.0) * s
    lo, hi = big_l / max(2.0, beta + 1.0), big_l / b
    x = np.clip(big_l / (b - k), lo, hi)
    p = np.expm1(x)
    mu_x = p / z  # the power at x
    live = np.ones(lane.size, dtype=bool)
    n_live = lane.size
    for _ in range(tol.max_iter):
        g, dg = _log_gain(p, c, s, beta, nu)  # h = g - b*x, dh/dx = dg - b
        bx = b * x
        step = (g - bx) / (b - dg)
        if not np.isfinite(step).all() and not np.isfinite(step[live]).all():
            mu[lane[live]] = mu_x[live]
            raise NumericsError("power_lanes: non-finite iterate", best=out)
        above = g > bx
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        x += step
        outside = np.flatnonzero((x < lo) | (x > hi))
        x[outside] = 0.5 * (lo[outside] + hi[outside])  # bisect the lanes that left
        p = np.expm1(x)
        mu_new = p / z
        # done: |mu_new - mu_x| <= root_tol*max(1, mu_new), or x on a bracket end
        new = ((np.abs(mu_new - mu_x) <= tol.root_tol * np.maximum(1.0, mu_new))
               | (x == lo) | (x == hi)) & live
        mu_x = mu_new
        idx = np.flatnonzero(new)
        if idx.size:
            mu[lane[idx]] = mu_x[idx]
            live ^= new
            n_live -= idx.size
            if n_live == 0:
                return
            if c.ndim == 2 or 2 * n_live <= lane.size:
                keep = np.flatnonzero(live)
                lane, z, c, s, lo, hi, x, p, mu_x = (
                    v.take(keep, axis=0) for v in (lane, z, c, s, lo, hi, x, p, mu_x))
                live = np.ones(lane.size, dtype=bool)
    mu[lane[live]] = mu_x[live]
    raise NumericsError(f"power_lanes: {n_live} lanes not converged after "
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


def node_powers(nodes: Optional[NodePowers], nu: float, panels: int, solve):
    """solve() of one rung at nu, read from the store nodes if one is given."""
    return solve() if nodes is None else nodes.get(nu, panels, solve)


def quadrature(at: Callable[[int], float], tol: Tolerances, floor: float,
               panels: Optional[int]) -> QuadResult:
    """refine_panels on a region rule at(n) of n panels per axis, from
    FIRST_RUNG (4) up, or, given panels, at(panels) alone with no error
    estimate (error inf): the calibration's coarse evaluators.
    """
    if panels is None:
        return refine_panels(at, tol, floor=floor)
    return QuadResult(at(panels), math.inf, panels)
