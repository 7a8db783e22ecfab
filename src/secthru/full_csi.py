"""Power control and secure throughput when the transmitter sees both gains.

The optimal policy solves, state by state, the stationarity condition

    beta * r(mu)^(-beta) * (z_m - gamma*z_e) / ((1+mu*z_m)(1+gamma*mu*z_e)) = lam,
    r(mu) = (1 + mu*z_m) / (1 + gamma*mu*z_e),

whose left side decreases strictly from beta*(z_m - gamma*z_e) to 0, so the
state transmits exactly when z_m - gamma*z_e > nu and the root is unique.
Divided by beta, the condition holds for every beta >= 0 with the normalized
multiplier nu = lam/beta; at beta = 0 (theta = 0, no QoS constraint) it is the
first-order condition of the mean secrecy rate, nu is the rate multiplier in
nats and the lane kernel writes the root in closed form. nu is calibrated so
the policy spends the average-SNR budget with equality, and the throughput is
-ln E{r^(-beta)} / (theta*T*B), where r = 1 wherever no power is allocated,
or E{log2 r} at theta = 0.

The exact power map is power_grid, one lane-kernel call at every beta.
Solution.policy() is the map queue simulation evaluates: an interpolation
table of power_grid's root (full_policy_table), checked against the lane
kernel at 1e-4*max(1, mu) and falling back to power_grid wherever the check
fails.
"""

import math
from functools import partial

import numpy as np

from ._region import NodePowers, node_powers, power_lanes, quadrature, solve
from .model import (FadingLaw, LinkBudget, PowerPolicy, QosSpec, Solution, ValidationError,
                    lam_from_nu)
from .numerics import DEFAULT_TOL, QuadResult, Tolerances, graded_nodes


def power_grid(z_m, z_e, gamma: float, beta: float, lam: float,
               tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Vectorized optimal power over broadcast state arrays.

    Exact zeros on z_m - gamma*z_e <= nu, nu = lam/beta (lam itself, the rate
    multiplier in nats, at beta = 0); elsewhere the unique positive root of
    the stationarity condition, from the lane kernel: one term
    (z_m - gamma*z_e)(1+mu*z_m)^-(beta+1)(1+gamma*mu*z_e)^(beta-1) = nu,
    closed-form at beta = 0. Each state's power depends on that state alone.
    """
    if not lam > 0:
        raise ValidationError("lam must be positive")
    z_m, z_e = np.broadcast_arrays(np.asarray(z_m, dtype=float), np.asarray(z_e, dtype=float))
    out = np.zeros(z_m.shape)
    nu = lam / beta if beta > 0.0 else lam
    gze = gamma * z_e
    coef = z_m - gze
    active = np.flatnonzero(coef > nu)
    if active.size == 0:
        return out
    zm, gze, coef = (np.take(v, active) for v in (z_m, gze, coef))
    np.put(out, active, power_lanes(zm, coef, np.divide(gze, zm, out=gze), beta, nu, tol))
    return out


# the full-CSI simulation table: nodes on its sqrt(s) and L axes, and the
# miss of p = mu*z_m its cell check allows relative to max(z_m, p): half the
# bound 1e-4*max(1, mu), a margin for the states between the check points
_TABLE_S_NODES = 129
_TABLE_L_NODES = 385
_TABLE_CHECK_TOL = 5e-5
# where the check solves each cell, as (fu, fl) fractions of its two sides:
# the quarter points of its two midlines. The centre alone misses cells with
# an inflection inside them (5e-4 let through at theta 1, 30 dB).
_CHECK_POINTS = ((0.25, 0.5), (0.75, 0.5), (0.5, 0.25), (0.5, 0.75))


def _bilinear(x0, x1, x2, x3, fu, fl):
    """x at fractions (fu, fl) of cells with corner values x0, x1 (up one in
    t), x2 (up one in L) and x3 (up both): linear in fu along the L-edges,
    then in fl between them. Computed in place in x1 and x3, which it
    overwrites; returns x3.
    """
    x1 -= x0
    x1 *= fu
    x1 += x0
    x3 -= x2
    x3 *= fu
    x3 += x2
    x3 -= x1
    x3 *= fl
    x3 += x1
    return x3


def full_table_nodes(beta: float, nu: float, l_hi: float, tol: Tolerances):
    """The full-CSI simulation table: x = ln(1 + mu*z_m) on the nodes of a
    uniform grid in t = sqrt(s) over [0, 1] and in L over [0, l_hi], and the
    cells between them that fail their check.

    With s = gamma*z_e/z_m in [0, 1) and L = ln((z_m - gamma*z_e)/nu) > 0,
    p = mu*z_m solves (1 + p)^-(beta+1) (1 + s*p)^(beta-1) = e^-L, the lane
    equation of power_lanes at z = 1, coef = e^L and nu = 1: x depends on the
    state through (s, L) alone. The inner nodes are solved in one power_lanes
    call, and so is each set of check points. The edges are closed forms:
    x = L/(beta+1) at s = 0 (the QoS-driven power adaptation of Tang & Zhang,
    2007) and x = L/2 at s = 1, which the kernel does not take. Each cell is
    solved at _CHECK_POINTS and fails where its bilinear p misses the
    kernel's by more than half of 1e-4*max(z_m, p), with z_m = nu*e^L/(1 - s)
    at the cell's lowest corner, its smallest: that is
    |d mu| <= 1e-4*max(1, mu) at every state of the cell, with a margin.
    Returns (x, fail): x of shape (S, N) for S nodes in t and N in L, and
    fail of shape (S - 1, N - 1), True where cell [i, i+1] x [j, j+1] failed.
    """
    t = np.linspace(0.0, 1.0, _TABLE_S_NODES)
    big_l = np.linspace(0.0, l_hi, _TABLE_L_NODES)

    def solve_x(t_pts, l_pts):  # x at every pair of the two point sets, by the kernel
        s, coef = np.meshgrid(t_pts * t_pts, np.exp(l_pts), indexing="ij")
        mu = power_lanes(np.broadcast_to(1.0, s.size), coef.ravel(), s.ravel(), beta, 1.0, tol)
        return np.log1p(mu).reshape(s.shape)

    x = np.empty((t.size, big_l.size))
    x[0], x[-1] = big_l / (beta + 1.0), big_l / 2.0
    x[1:-1] = solve_x(t[1:-1], big_l)
    z_low = nu * np.exp(big_l[None, :-1]) / (1.0 - (t[:-1] * t[:-1])[:, None])
    fail = np.zeros(z_low.shape, dtype=bool)
    for fu, fl in _CHECK_POINTS:
        p_true = np.expm1(solve_x(t[:-1] + fu * t[1], big_l[:-1] + fl * big_l[1]))
        x_cell = _bilinear(x[:-1, :-1], x[1:, :-1].copy(), x[:-1, 1:], x[1:, 1:].copy(), fu, fl)
        miss = np.abs(np.expm1(x_cell) - p_true)
        fail |= miss > _TABLE_CHECK_TOL * np.maximum(z_low, p_true)
    return x, fail


def full_policy_table(beta: float, nu: float, gamma: float, law_m: FadingLaw,
                      tol: Tolerances = DEFAULT_TOL):
    """Interpolating evaluator of the full-CSI power map, for queue simulation.

    Queue simulation evaluates the policy on millions of states; each
    power_grid lane takes about four Newton steps, so the power is read from
    full_table_nodes' table over L in [0, ln(zm_hi/nu)], zm_hi the truncation
    point of law_m. The zero set is power_grid's exact comparison
    z_m - gamma*z_e > nu. An active state's cell comes from its (sqrt(s), L)
    by one multiply and truncation per axis, with no search, and x is
    interpolated bilinearly; states in a cell that failed its check or beyond
    the L range are solved by power_grid in one gathered call. Each state's
    power depends on that state alone, and the evaluator only reads the
    table, so worker threads can share it. Where nu >= zm_hi no table is
    built and power_grid is the evaluator.
    """
    exact = partial(power_grid, gamma=gamma, beta=beta, lam=lam_from_nu(beta, nu), tol=tol)
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    if not nu < zm_hi:
        return exact
    l_hi = math.log(zm_hi / nu)
    x, fail = full_table_nodes(beta, nu, l_hi, tol)
    rows, cols = fail.shape[0], x.shape[1]
    l_scale = (cols - 1) / l_hi
    # cell (i, j) is entry i*cols + j of both: its corner x[i, j] in nodes, and
    # in back whether its states go to power_grid, as in column cols - 1,
    # beyond l_hi, all do. nodes has one entry past x for that column's top corner.
    nodes = np.append(x.ravel(), 0.0)
    back = np.ones((rows, cols), dtype=bool)
    back[:, :-1] = fail
    back = back.ravel()

    def state_power(z_m, z_e):
        z_m, z_e = np.broadcast_arrays(np.asarray(z_m, dtype=float),
                                       np.asarray(z_e, dtype=float))
        out = np.zeros(z_m.shape)
        active = np.flatnonzero(z_m - gamma * z_e > nu)
        zm = z_m.take(active)
        gze = gamma * z_e.take(active)
        coef = zm - gze  # power_grid's values, taken at the active states
        fu = np.sqrt(np.divide(gze, zm, out=gze), out=gze)
        fu *= rows
        fl = np.log(np.divide(coef, nu, out=coef), out=coef)  # L, as the kernel reads it
        fl *= l_scale
        # fmin drops a NaN, so every index stays in the table; an infinite L
        # (z_m = inf) lands in the last column, beyond l_hi
        cell = np.fmin(fu, rows - 1).astype(np.intp)
        fu -= cell
        cell *= cols
        col = np.fmin(fl, cols - 1).astype(np.intp)
        fl -= col
        cell += col
        solve = np.flatnonzero(back.take(cell))
        x0 = nodes.take(cell)
        cell += cols
        x1 = nodes.take(cell)
        cell += 1
        x3 = nodes.take(cell)
        cell -= cols
        mu = _bilinear(x0, x1, nodes.take(cell), x3, fu, fl)
        np.expm1(mu, out=mu)
        mu /= zm
        if solve.size:
            mu[solve] = exact(zm[solve], z_e.take(active[solve]))
        np.put(out, active, mu)
        return out

    return state_power


def transmit_region_expectation(
    nu: float,
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
    """Integral of integrand(mu, z_m, z_e) against the state law under the
    policy with normalized multiplier nu, over its transmit region
    z_m > gamma*z_e + nu.

    mu is power_grid on the active region. panels fixes the panel count per
    axis (see _region.quadrature); by default both axes refine together.
    Given nodes (a NodePowers of one solve at these beta, link, laws,
    root_tol and max_iter), each rung's powers are read from it and solved
    only on a miss. The power turns on within ~nu of the threshold, so both
    axes, gamma*z_e and each row's z_m - gamma*z_e - nu, are graded at
    scale nu (numerics.graded_nodes).
    """
    gamma, lam = link.gamma, lam_from_nu(beta, nu)
    zm_hi = law_m.tail_cutoff(tol.quad_trunc_mass)
    ze_cap = min(law_e.tail_cutoff(tol.quad_trunc_mass), (zm_hi - nu) / gamma)
    if not ze_cap > 0.0:
        return QuadResult(0.0, 0.0, 0)

    def at(n: int) -> float:
        ze, we = graded_nodes(nu / gamma, ze_cap, n)  # gamma*z_e at scale nu
        dm, wm = graded_nodes(nu, zm_hi - gamma * ze - nu, n)
        zm = (gamma * ze + nu)[:, None] + dm
        zeg = np.broadcast_to(ze[:, None], zm.shape)
        mu = node_powers(nodes, nu, n, lambda: power_grid(zm, zeg, gamma, beta, lam, tol))
        vals = integrand(mu, zm, zeg) * law_m.density(zm)
        return float(we @ ((vals * wm).sum(axis=1) * law_e.density(ze)))

    return quadrature(at, tol, floor, panels)


def mean_power_full(nu: float, beta: float, link: LinkBudget,
                    law_m: FadingLaw, law_e: FadingLaw,
                    tol: Tolerances = DEFAULT_TOL, panels: int | None = None,
                    nodes: NodePowers | None = None) -> float:
    """Expected transmit SNR of the policy with normalized multiplier nu,
    refined to tol, or on a fixed number of panels per axis; nodes is the
    solve's store of node powers, if any (see transmit_region_expectation).
    """
    if not (nu > 0 and beta >= 0):
        raise ValidationError("nu must be positive and beta nonnegative")
    return transmit_region_expectation(nu, beta, link, law_m, law_e, tol,
                                       lambda mu, zm, ze: mu, max(link.avg_snr, 1e-6), panels,
                                       nodes).value


def solve_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
               tol: Tolerances = DEFAULT_TOL) -> Solution:
    """Calibrate the full-CSI policy and read out its effective secure throughput
    (_region.solve). The threshold is nu, and the policy at the calibrated
    multiplier is full_policy_table, built only when the policy is asked for.
    """
    beta, gamma = qos.beta, link.gamma

    def policy_at(nu, nodes):
        return (nu, partial(transmit_region_expectation, nu, beta, link, law_m, law_e, tol,
                            nodes=nodes),
                lambda panels: full_policy_table(beta, nu, gamma, law_m, tol))

    return solve("full", mean_power_full, policy_at, qos, link, law_m, law_e, tol)


throughput_full = solve_full  # the name the benchmark calls the solve by


def build_policy_full(qos: QosSpec, link: LinkBudget, law_m: FadingLaw, law_e: FadingLaw,
                      tol: Tolerances = DEFAULT_TOL) -> PowerPolicy:
    """The calibrated full-CSI policy, its evaluator tabulated (solve_full)."""
    return solve_full(qos, link, law_m, law_e, tol).policy()
