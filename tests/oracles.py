"""Independent reference implementations used to check the solvers.

Everything here deliberately avoids the package's quadrature and root-finding
paths: brute-force grid and golden-section minimization of the per-state
objectives, composite Simpson quadrature on fixed grids, and closed forms
where they exist. The oracles that the release checks share live in
secthru.checks and are imported from there.
"""

import numpy as np

from secthru.checks import (
    brute_power_full,
    brute_power_main,
    closed_form_power_beta1,
    grid_power_main,
    kkt_lhs_full,
    secrecy_mgf_term,
    stationarity_lhs_main,
)

__all__ = [
    "bisect_lane_power",
    "brute_power_ergodic_full",
    "brute_power_full",
    "brute_power_main",
    "closed_form_power_beta1",
    "grid_power_main",
    "kkt_lhs_full",
    "secrecy_mgf_term",
    "simpson",
    "simpson_density",
    "stationarity_lhs_main",
]


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


def brute_power_ergodic_full(z_m, z_e, gamma, lam_nats, span=60.0):
    """Grid maximizer of the secrecy-rate Lagrangian (nats), refined to 1e-6."""
    grid = np.arange(0.0, span + 1e-3, 1e-3)
    obj = np.log1p(grid * z_m) - np.log1p(gamma * grid * z_e) - lam_nats * grid
    i = int(np.argmax(obj))
    fine = np.arange(max(0.0, grid[i] - 2e-3), grid[i] + 2e-3, 1e-6)
    obj = np.log1p(fine * z_m) - np.log1p(gamma * fine * z_e) - lam_nats * fine
    return float(fine[np.argmax(obj)])


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
