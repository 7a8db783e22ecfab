"""Independent reference implementations used to check the solvers.

Everything here deliberately avoids the package's quadrature and root-finding
paths: brute-force grid minimization of the per-state objectives, composite
Simpson quadrature on fixed grids, and closed forms where they exist.
"""

import numpy as np


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


def simpson(values, h):
    """Composite Simpson rule over an odd-length uniform grid."""
    n = len(values)
    assert n % 2 == 1
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(weights @ values) * h / 3.0


def simpson_density(g, law, lo, hi, n=20001):
    """Fixed-grid Simpson integral of g(z) * density(z) on [lo, hi]."""
    if not hi > lo:
        return 0.0
    z = np.linspace(lo, hi, n)
    vals = np.asarray(g(z), dtype=float) * law.density(z)
    return simpson(vals, (hi - lo) / (n - 1))


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


def brute_power_main(z_m, gamma, beta, lam, law, span=50.0):
    """Grid minimizer of the reduced main-CSI Lagrangian, refined to 1e-6."""
    grid = np.arange(0.0, span + 1e-2, 1e-2)
    i = int(np.argmin(reduced_objective_main(grid, z_m, gamma, beta, lam, law)))
    mid = grid[i]
    for step in (1e-4, 1e-6):
        lo = max(0.0, mid - 150.0 * step)
        fine = lo + step * np.arange(0, 301)
        j = int(np.argmin(reduced_objective_main(fine, z_m, gamma, beta, lam, law)))
        mid = float(fine[j])
    return mid


def brute_power_ergodic_full(z_m, z_e, gamma, lam_nats, span=60.0):
    """Grid maximizer of the secrecy-rate Lagrangian (nats), refined to 1e-6."""
    grid = np.arange(0.0, span + 1e-3, 1e-3)
    obj = np.log1p(grid * z_m) - np.log1p(gamma * grid * z_e) - lam_nats * grid
    i = int(np.argmax(obj))
    fine = np.arange(max(0.0, grid[i] - 2e-3), grid[i] + 2e-3, 1e-6)
    obj = np.log1p(fine * z_m) - np.log1p(gamma * fine * z_e) - lam_nats * fine
    return float(fine[np.argmax(obj)])


def closed_form_power_beta1(z_m, z_e, gamma, lam):
    """Full-CSI optimum at beta = 1: mu = (sqrt((z_m - gamma z_e)/lam) - 1)/z_m, clipped."""
    z_m = np.asarray(z_m, dtype=float)
    z_e = np.asarray(z_e, dtype=float)
    diff = z_m - gamma * z_e
    with np.errstate(invalid="ignore", divide="ignore"):
        mu = (np.sqrt(np.clip(diff, 0.0, None) / lam) - 1.0) / z_m
    return np.where(diff > lam, mu, 0.0)


def bisect_lane_power(z_m, coef, ratio, beta, nu, width=1e-13):
    """Scalar bisection of one lane's marginal gain against nu.

    The gain is sum_j coef_j (1+mu*z_m)^-(beta+1) (1+ratio_j*mu*z_m)^(beta-1),
    evaluated as a log-sum-exp so no term under- or overflows. Returns 0 when
    the zero-power gain is <= nu; otherwise doubles an upper bracket from
    mu = 1 and halves [lo, hi] until hi - lo <= width * max(1, hi).
    """
    coef = np.atleast_1d(np.asarray(coef, dtype=float))
    ratio = np.broadcast_to(np.asarray(ratio, dtype=float), coef.shape)
    if not coef.sum() > nu:
        return 0.0
    with np.errstate(divide="ignore"):
        log_coef = np.log(coef)

    def above(mu):
        terms = (log_coef - (beta + 1.0) * np.log1p(mu * z_m)
                 + (beta - 1.0) * np.log1p(ratio * mu * z_m))
        top = terms.max()
        return top + np.log(np.exp(terms - top).sum()) > np.log(nu)

    lo, hi = 0.0, 1.0
    while above(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > width * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
