"""Release checks: the solvers' optimality and the paper's claims, at tolerance.

Each check is a function of a resolved cli.RunConfig that returns
(ok, detail). `secthru validate` runs every check in CHECKS on the user's
configuration, and tests/test_acceptance.py runs the same checks at its
acceptance configuration; run() times one check for both. Each check seeds
its own generator with cfg.seed plus a fixed offset, so its draws do not
depend on which checks ran before it. The checks take their solved rows
from _solved, which solves each (mode, theta, snr_db) of a configuration
once however many checks read it.

The oracles below are independent references: numpy only, none of the
package's quadrature or root finding (brute-force grid and golden-section
minimization of the per-state objectives, fixed-grid Simpson and
Gauss-Legendre rules, and closed forms).
"""

import itertools
import math
import time
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np

from . import full_csi, main_csi, queuesim
from .model import LN2, ValidationError
from .numerics import MAX_PANELS, NumericsError


def secrecy_mgf_term(mu, z_m, z_e, gamma, beta):
    """((1+mu*z_m)/(1+gamma*mu*z_e))^-beta, the per-state throughput integrand."""
    return np.exp(-beta * (np.log1p(mu * z_m) - np.log1p(gamma * mu * z_e)))


def brute_power_full(z_m, z_e, gamma, beta, lam, span=50.0):
    """Grid minimizer of the per-state Lagrangian, refined to 1e-6."""
    grid = np.arange(0.0, span + 1e-3, 1e-3)
    obj = secrecy_mgf_term(grid, z_m, z_e, gamma, beta) + lam * grid
    i = int(np.argmin(obj))
    fine = np.arange(max(0.0, grid[i] - 2e-3), grid[i] + 2e-3, 1e-6)
    obj = secrecy_mgf_term(fine, z_m, z_e, gamma, beta) + lam * fine
    return float(fine[np.argmin(obj)])


def reduced_objective_main(mu_grid, z_m, gamma, beta, lam, law, n_inner=2001):
    """Per-gain main-CSI objective on a mu grid, inner integral by Simpson."""
    hi = z_m / gamma
    z_e = np.linspace(0.0, hi, n_inner)
    pe = law.density(z_e)
    vals = secrecy_mgf_term(mu_grid[:, None], z_m, z_e[None, :], gamma, beta) * pe[None, :]
    weights = np.ones(n_inner)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    inner = (vals @ weights) * (hi / (n_inner - 1)) / 3.0
    return inner + lam * mu_grid


def grid_power_main(z_m, gamma, beta, lam, law, span=50.0):
    """Grid minimizer of the reduced main-CSI Lagrangian on [0, span]: a
    5001-point scan refined twice by 301-point grids, to 2e-8 * span.
    """
    scale = span / 50.0
    grid = np.arange(0.0, span + 1e-2 * scale, 1e-2 * scale)
    i = int(np.argmin(reduced_objective_main(grid, z_m, gamma, beta, lam, law)))
    mid = grid[i]
    for step in (1e-4 * scale, 1e-6 * scale):
        lo = max(0.0, mid - 150.0 * step)
        fine = lo + step * np.arange(0, 301)
        j = int(np.argmin(reduced_objective_main(fine, z_m, gamma, beta, lam, law)))
        mid = float(fine[j])
    return mid


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def brute_power_main(z_m, gamma, beta, lam, law, span=50.0):
    """Golden-section minimizer of the reduced main-CSI Lagrangian on [0, span],
    to a bracket of 2e-8 * span (1e-6 at the default span).

    The objective is convex in mu: ln(1+mu z_m) - ln(1+gamma mu z_e) is
    increasing and concave wherever z_e < z_m/gamma, so each exp(-beta h)
    is convex, and lam*mu is linear. So where it does not fall from mu = 0
    over the resolution, its minimizer is 0 to that resolution; where it
    still falls at mu = span, the end values do not enclose a minimum, and
    the search falls back to grid_power_main.
    """
    def f(mu):
        return float(reduced_objective_main(np.array([mu]), z_m, gamma, beta, lam, law)[0])

    res = 2e-8 * span
    if f(res) >= f(0.0):
        return 0.0
    if f(span) <= f(span - res):
        return grid_power_main(z_m, gamma, beta, lam, law, span)
    a, b = 0.0, span
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > res:
        if fc <= fd:  # the minimizer lies in [a, d]
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:  # in [c, b]
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return c if fc <= fd else d


def kkt_lhs_full(mu, z_m, z_e, gamma: float, beta: float):
    """Marginal objective gain of power at state (z_m, z_e), matched to lam at the optimum."""
    mu = np.asarray(mu, dtype=float)
    z_m = np.asarray(z_m, dtype=float)
    z_e = np.asarray(z_e, dtype=float)
    log_ratio = np.log1p(mu * z_m) - np.log1p(gamma * mu * z_e)
    denom = (1.0 + mu * z_m) * (1.0 + gamma * mu * z_e)
    return beta * np.exp(-beta * log_ratio) * (z_m - gamma * z_e) / denom


def stationarity_lhs_main(z_m, mu, gamma, beta, law, panels=64):
    """Main-CSI stationarity left side at gain z_m and power mu,

        beta * Int_0^{z_m/gamma} r^(-beta-1) (z_m - gamma z_e) / (1 + gamma mu z_e)^2 p_E dz_e,

    r = (1 + mu z_m)/(1 + gamma mu z_e), by a fixed composite 32-point
    Gauss-Legendre rule on uniform panels in z_e.
    """
    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(0.0, z_m / gamma, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    z_e = ((edges[:-1, None] + half) + half * x).ravel()
    weights = (half * w).ravel()
    log_ratio = np.log1p(mu * z_m) - np.log1p(gamma * mu * z_e)
    gain = (beta * np.exp(-(beta + 1.0) * log_ratio) * (z_m - gamma * z_e)
            / (1.0 + gamma * mu * z_e) ** 2)
    return float(weights @ (gain * law.density(z_e)))


def closed_form_power_beta1(z_m, z_e, gamma, lam):
    """Full-CSI optimum at beta = 1: mu = (sqrt((z_m - gamma z_e)/lam) - 1)/z_m, clipped."""
    z_m = np.asarray(z_m, dtype=float)
    z_e = np.asarray(z_e, dtype=float)
    diff = z_m - gamma * z_e
    with np.errstate(invalid="ignore", divide="ignore"):
        mu = (np.sqrt(np.clip(diff, 0.0, None) / lam) - 1.0) / z_m
    return np.where(diff > lam, mu, 0.0)


def main_power_at(z_m, gamma, beta, lam, law_e, tol):
    """The main-CSI power evaluator at one gain, on the fixed rule of
    MAX_PANELS inner panels (NumericsError where that rule cannot resolve
    law_e).
    """
    return float(main_csi.fixed_rule_power(np.array([z_m]), MAX_PANELS, beta,
                                           lam / beta, gamma, law_e, tol,
                                           "checks.main_power_at")[0])


_MODES = ("full", "main")
_MEAN_POWER = {"full": full_csi.mean_power_full, "main": main_csi.mean_power_main}


# unbounded: a Solution keeps no node grid (about 1 kB), and validate checks one config
@lru_cache(maxsize=None)
def _solved(cfg, mode, theta, snr_db):
    """cfg.solve(mode, theta, snr_db), solved once however many checks read it."""
    return cfg.solve(mode, theta, snr_db)


def _rate(cfg, mode, theta, snr_db):
    """Throughput in bits/s/Hz of one row of cfg (_solved)."""
    return _solved(cfg, mode, theta, snr_db).throughput_bits_s_hz


def kkt_residual_full(cfg):
    """Full-CSI stationarity residual of power_grid at random states and multipliers."""
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.tolerances()
    worst = 0.0
    for _ in range(200):
        z_m, z_e = rng.exponential(1.0, 2)
        beta = rng.uniform(0.3, 5.0)
        lam = rng.uniform(0.05, 1.0)
        mu = float(full_csi.power_grid([z_m], [z_e], cfg.gamma, beta, lam, tol)[0])
        if mu > 0.0:
            resid = abs(float(kkt_lhs_full(mu, z_m, z_e, cfg.gamma, beta)) - lam)
            worst = max(worst, resid / lam)
    return worst < 1e-8, f"worst relative residual {worst:.3e}"


def closed_form_beta1(cfg):
    """power_grid at beta = 1 against its closed form."""
    rng = np.random.default_rng(cfg.seed + 101)
    z_m = rng.exponential(1.0, 1000)
    z_e = rng.exponential(1.0, 1000)
    lam = 0.37
    mu = full_csi.power_grid(z_m, z_e, cfg.gamma, 1.0, lam, cfg.tolerances())
    worst = float(np.max(np.abs(mu - closed_form_power_beta1(z_m, z_e, cfg.gamma, lam))))
    return worst < 1e-8, f"1000 states, worst |mu - closed form| {worst:.3e}"


def kkt_residual_main(cfg):
    """Main-CSI stationarity residual of the power evaluator at random gains and
    multipliers, its left side by stationarity_lhs_main.
    """
    rng = np.random.default_rng(cfg.seed + 303)
    tol = cfg.tolerances()
    law_e = cfg.laws()[1]
    worst = 0.0
    for _ in range(25):
        z_m = rng.exponential(1.0) + 0.5
        beta = rng.uniform(0.5, 4.0)
        lam = rng.uniform(0.05, 0.5)
        mu = main_power_at(z_m, cfg.gamma, beta, lam, law_e, tol)
        if mu > 0.0:
            resid = abs(stationarity_lhs_main(z_m, mu, cfg.gamma, beta, law_e) - lam)
            worst = max(worst, resid / lam)
    return worst < 1e-8, f"worst relative residual {worst:.3e}"


@lru_cache(maxsize=1)
def _oracle_states(seed, law_e):
    """The oracle check's draws with their brute-force powers: 100 full-CSI
    (z_m, z_e, gamma, beta, lam, mu) and 50 main-CSI (z_m, gamma, beta, lam, mu)
    tuples. They do not depend on the tolerances, so each seed and law solves them once.
    """
    rng = np.random.default_rng(seed + 202)
    full = []
    for _ in range(100):
        z_m = rng.uniform(0.1, 5.0)
        z_e = rng.uniform(0.0, 2.5)
        beta = rng.uniform(0.1, 10.0)
        gamma = rng.uniform(0.25, 4.0)
        lam = rng.uniform(0.05, 1.5)
        full.append((z_m, z_e, gamma, beta, lam, brute_power_full(z_m, z_e, gamma, beta, lam)))
    main = []
    for _ in range(50):
        z_m = rng.uniform(0.3, 5.0)
        beta = rng.uniform(0.1, 10.0)
        gamma = rng.uniform(0.25, 4.0)
        lam = rng.uniform(0.02, 0.8)
        main.append((z_m, gamma, beta, lam, brute_power_main(z_m, gamma, beta, lam, law_e)))
    return tuple(full), tuple(main)


def oracle(cfg):
    """Both power evaluators against brute-force grid minimizers, gamma drawn at
    random, and the simulated main-CSI policy (its interpolation table) at the
    largest theta and SNR of cfg, at 1.02, 1.1 and 1.5 times its cutoff, there
    relative to max(1, mu).
    """
    tol = cfg.tolerances()
    law_e = cfg.laws()[1]
    full, main = _oracle_states(cfg.seed, law_e)
    worst_full = max(
        abs(float(full_csi.power_grid([z_m], [z_e], gamma, beta, lam, tol)[0]) - mu)
        for z_m, z_e, gamma, beta, lam, mu in full)
    worst_main = max(abs(main_power_at(z_m, gamma, beta, lam, law_e, tol) - mu)
                     for z_m, gamma, beta, lam, mu in main)
    theta, db = max(cfg.theta), max(cfg.snr_db)
    sol = _solved(cfg, "main", theta, db)
    state_power = sol.policy().state_power
    worst_table = 0.0
    probed = sol.beta > 0.0 and math.isfinite(sol.threshold)
    # brute_power_main minimizes the theta > 0 objective; a zero budget has no cutoff
    if probed:
        for z_m in sol.threshold * np.array([1.02, 1.1, 1.5]):
            mu = float(state_power(z_m))
            # the power near the cutoff reaches hundreds at 30 dB: the search
            # range follows it, and the error is taken relative to max(1, mu)
            # as the table's own bound is
            brute = brute_power_main(z_m, cfg.gamma, sol.beta, sol.lam, law_e,
                                     span=max(50.0, 2.0 * mu))
            worst_table = max(worst_table, abs(mu - brute) / max(1.0, brute))
    ok = worst_full < 1e-3 and worst_main < 1e-3 and worst_table < 1e-3
    table = f"{worst_table:.3e} of max(1, mu)" if probed else "not probed"
    return ok, (f"150 states, worst full {worst_full:.3e}, worst main {worst_main:.3e}; "
                f"main policy at theta {theta:g}, {db:g} dB near its cutoff {table}")


def calibration(cfg):
    """Reported residuals, and the mean power re-evaluated at full tolerance
    (calibrate evaluates it relaxed), both within 1e-4 of the budget.
    """
    law_m, law_e = cfg.laws()
    tol = cfg.tolerances()
    worst_reported = worst_full_tol = 0.0
    configs = 0
    for mode, theta, db in itertools.product(_MODES, cfg.theta, cfg.snr_db):
        link = cfg.link(db)
        if link.avg_snr == 0.0:
            continue
        configs += 1
        sol = _solved(cfg, mode, theta, db)
        spent = _MEAN_POWER[mode](sol.nu, sol.beta, link, law_m, law_e, tol)
        worst_reported = max(worst_reported, sol.power_residual / link.avg_snr)
        worst_full_tol = max(worst_full_tol, abs(spent - link.avg_snr) / link.avg_snr)
    ok = worst_reported <= 1e-4 and worst_full_tol <= 1e-4
    return ok, (f"worst relative residual {worst_reported:.3e} reported, "
                f"{worst_full_tol:.3e} at full tolerance, over {configs} configs")


def ordering(cfg):
    """full >= main, monotone in theta and SNR, and the CSI gain shrinking as
    theta grows wherever full CSI has throughput (at a zero budget every gap is 0).
    """
    thetas, dbs = sorted(set(cfg.theta)), sorted(set(cfg.snr_db))
    rate = partial(_rate, cfg)

    def gap(theta, db):
        full = rate("full", theta, db)
        return (full - rate("main", theta, db)) / full if full > 0 else 0.0

    ok = all(rate("full", t, d) >= rate("main", t, d) - 1e-6 for t in thetas for d in dbs)
    for mode in _MODES:
        ok &= all(rate(mode, a, d) >= rate(mode, b, d) - 1e-9
                  for d in dbs for a, b in zip(thetas, thetas[1:]))
        ok &= all(rate(mode, t, a) <= rate(mode, t, b) + 1e-9
                  for t in thetas for a, b in zip(dbs, dbs[1:]))
    live = [d for d in dbs if all(rate("full", t, d) > 0 for t in thetas)]
    ok &= all(gap(a, d) > gap(b, d) for d in live for a, b in zip(thetas, thetas[1:]))
    db0 = cfg.snr_db[0]
    return ok, (f"full>=main, monotone in theta and SNR; relative gap at {db0:g} dB "
                + " -> ".join(f"{gap(t, db0):.4f}" for t in thetas))


def theta0_continuity(cfg):
    """C(1e-6) against C(0) in both modes, and a Monte Carlo confirmation of the
    full-CSI C(0) over cfg.frames states (3 standard errors).
    """
    db0 = cfg.snr_db[0]
    rate0 = {mode: _rate(cfg, mode, 0.0, db0) for mode in _MODES}
    drift = {mode: abs(_rate(cfg, mode, 1e-6, db0) - rate0[mode]) for mode in _MODES}

    law_m, law_e = cfg.laws()
    rng = np.random.default_rng(cfg.seed + 55)
    z_m = law_m.sample(rng, cfg.frames)
    z_e = law_e.sample(rng, cfg.frames)
    mu = _solved(cfg, "full", 0.0, db0).policy().state_power(z_m, z_e)
    rate = (np.log1p(mu * z_m) - np.log1p(cfg.gamma * mu * z_e)) / LN2
    se = rate.std() / math.sqrt(cfg.frames)
    mc_gap = abs(rate0["full"] - rate.mean())
    ok = drift["full"] <= 1e-3 and drift["main"] <= 1e-3 and mc_gap <= 3.0 * se
    return ok, (f"|full(1e-6)-C(0)| {drift['full']:.3e}, |main(1e-6)-C(0)| {drift['main']:.3e}, "
                f"MC gap {mc_gap:.3e} vs 3se {3 * se:.3e} over {cfg.frames} states")


def surface_structure(cfg):
    """On cfg.grid, of the exact power map power_grid: exact zeros where
    z_m <= gamma*z_e, theta = 0 spending more at the best state than
    theta = 0.01, and theta = 0.01 spending more at moderate states.
    """
    ze_max, zm_max, steps = cfg.grid
    ze, zm = np.linspace(0.0, ze_max, steps), np.linspace(0.0, zm_max, steps)

    def surface(theta):
        sol = _solved(cfg, "full", theta, cfg.snr_db[0])
        return full_csi.power_grid(zm[None, :], ze[:, None], cfg.gamma, sol.beta, sol.lam,
                                   cfg.tolerances())

    s_qos, s_erg = surface(0.01), surface(0.0)
    ze_grid, zm_grid = np.meshgrid(ze, zm, indexing="ij")
    diff = zm_grid - cfg.gamma * ze_grid
    if diff.size == 0:
        return False, "empty grid"
    zeros_ok = bool(np.all(s_qos[diff <= 0] == 0.0) and np.all(s_erg[diff <= 0] == 0.0))
    imax = np.unravel_index(int(np.argmax(diff)), diff.shape)
    peak_ok = bool(s_erg[imax] > s_qos[imax])
    band = (diff > 0) & (s_qos > s_erg)
    moderate_ok = bool(band.any()) and float(diff[band].min()) <= 1.0
    return zeros_ok and peak_ok and moderate_ok, (
        f"zero set exact {zeros_ok}; theta=0 peak power {float(s_erg[imax]):.3f} > "
        f"theta=.01 {float(s_qos[imax]):.3f}; uniform-allocation cells {int(band.sum())}")


def degenerate_limits(cfg):
    """No throughput at zero budget, next to none against a 1e6-times stronger eavesdropper."""
    zero_full = _rate(cfg, "full", 0.01, -math.inf)
    zero_main = _rate(cfg, "main", 0.01, -math.inf)
    # a configuration of its own, solved once here, outside the memo of cfg
    eve = replace(cfg, gamma=1e6).solve("full", 0.01, cfg.snr_db[0]).throughput_bits_s_hz
    ok = zero_full == 0.0 and zero_main == 0.0 and eve <= 1e-3
    return ok, f"snr=0 -> ({zero_full}, {zero_main}); gamma=1e6 -> {eve:.3e}"


def queue_decay(cfg):
    """Tail-decay exponent of the simulated queue at theta = 0.01 within 20%, 8 seeds."""
    law_m, law_e = cfg.laws()
    link = cfg.link(cfg.snr_db[0])
    qos = cfg.qos(0.01)
    sol = _solved(cfg, "full", 0.01, cfg.snr_db[0])
    policy = sol.policy()
    arrival = sol.throughput_bits_s_hz * qos.frame_t * qos.bandwidth_b
    estimates = []
    for k in range(8):
        hist = queuesim.simulate_queue(policy, qos, link, law_m, law_e, arrival, cfg.frames,
                                       seed=cfg.seed + k)
        try:
            estimates.append(queuesim.estimate_decay(hist)[0])
        except ValidationError as exc:  # e.g. a zero budget: the queue never empties
            return False, f"no decay estimate: {exc}"
    mean_est = float(np.mean(estimates))
    rel = abs(mean_est - 0.01) / 0.01
    return rel <= 0.20, (f"theta_hat {mean_est:.5f} vs 0.01 (rel err {rel:.3f}; "
                         f"8 seeds x {cfg.frames} frames)")


CHECKS = {
    "kkt-residual-full": kkt_residual_full,
    "closed-form-beta1": closed_form_beta1,
    "kkt-residual-main": kkt_residual_main,
    "oracle": oracle,
    "calibration": calibration,
    "ordering": ordering,
    "theta0-continuity": theta0_continuity,
    "surface-structure": surface_structure,
    "degenerate-limits": degenerate_limits,
    "queue-decay": queue_decay,
}


def run(name: str, cfg):
    """(ok, detail, seconds) of one check; ok is None when it raised NumericsError."""
    start = time.perf_counter()
    try:
        ok, detail = CHECKS[name](cfg)
        ok = bool(ok)
    except NumericsError as exc:
        ok, detail = None, f"numeric failure: {exc}"
    return ok, detail, time.perf_counter() - start
