"""Deterministic scalar root finding and truncated semi-infinite quadrature.

Every solver in the package funnels through the primitives here: Brent root
finding on a bracketed sign change, the average-power calibration built on it,
and composite Gauss-Legendre quadrature whose panel count doubles until two
successive refinements agree. Evaluation order is
fixed, so results are bit-reproducible for fixed tolerances.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .model import FadingLaw, ValidationError


class NumericsError(RuntimeError):
    """A numerical routine left its guaranteed-convergence regime.

    best carries the routine's last estimate when it has one.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class BracketError(NumericsError):
    """No sign change found on a root bracket."""


class QuadratureError(NumericsError):
    """Refinement did not converge; carries the best estimate seen."""

    def __init__(self, message: str, best: Optional[float] = None, error: Optional[float] = None):
        super().__init__(message, best)
        self.error = error


@dataclass(frozen=True)
class Tolerances:
    """Numeric knobs shared by every solver.

    root_tol: relative bracket width at which root finding stops.
    quad_rel_tol: required relative agreement between successive quadrature
        refinements (the reported error estimate is their difference).
    quad_trunc_mass: fading-law tail mass dropped when truncating [0, inf).
    max_iter: cap on root-finder steps and refinement rounds.
    power_rel_tol: relative accuracy of the average-power calibration.
    """

    root_tol: float = 1e-12
    quad_rel_tol: float = 1e-8
    quad_trunc_mass: float = 1e-12
    max_iter: int = 120
    power_rel_tol: float = 1e-5

    def __post_init__(self):
        for name in ("root_tol", "quad_rel_tol", "quad_trunc_mass", "power_rel_tol"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be strictly positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")


DEFAULT_TOL = Tolerances()

_GL_ORDER = 16
_MAX_PANELS = 4096


class QuadResult(NamedTuple):
    value: float
    error: float
    panels: int


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(lo: float, hi: float, n_panels: int, order: int = _GL_ORDER):
    """Composite Gauss-Legendre nodes and weights on [lo, hi], ascending."""
    x, w = _gauss_legendre(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (centers[:, None] + half * x[None, :]).ravel()
    weights = np.tile(half * w, n_panels)
    return nodes, weights


def refine_panels(
    value_at: Callable[[int], float],
    tol: Tolerances = DEFAULT_TOL,
    floor: float = 0.0,
    start_panels: int = 8,
    max_panels: int = _MAX_PANELS,
) -> QuadResult:
    """Double the panel count until two successive values agree.

    The error estimate is |I_2n - I_n|, tightened by a geometric tail bound
    (1.5 * diff * r / (1 - r)) once two successive diffs show a contraction
    ratio r < 1/4. Convergence: estimate <= quad_rel_tol * max(|I_2n|, floor).
    Stops with QuadratureError (best estimate attached) if neither max_iter
    rounds nor the internal panel cap produce agreement.
    """
    n = start_panels
    prev = value_at(n)
    prev_diff = None
    err_est = math.inf
    for _ in range(tol.max_iter):
        if 2 * n > max_panels:
            break
        n *= 2
        cur = value_at(n)
        diff = abs(cur - prev)
        err_est = diff
        if prev_diff is not None and 0.0 < diff < 0.25 * prev_diff:
            ratio = diff / prev_diff
            err_est = 1.5 * diff * ratio / (1.0 - ratio)
        if err_est <= tol.quad_rel_tol * max(abs(cur), floor):
            return QuadResult(cur, err_est, n)
        prev, prev_diff = cur, diff
    raise QuadratureError(
        f"quadrature not converged at {n} panels (last estimate {err_est:.3e})",
        best=prev,
        error=err_est,
    )


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: Tolerances = DEFAULT_TOL,
    floor: float = 0.0,
    start_panels: int = 8,
) -> QuadResult:
    """Adaptively refined quadrature of a plain (vectorized) integrand."""
    if not hi > lo:
        return QuadResult(0.0, 0.0, 0)

    def at(n: int) -> float:
        z, w = panel_nodes(lo, hi, n)
        return float(w @ np.asarray(f(z), dtype=float))

    return refine_panels(at, tol, floor=floor, start_panels=start_panels)


def integrate_density(
    g: Callable[[np.ndarray], np.ndarray],
    law: FadingLaw,
    tol: Tolerances = DEFAULT_TOL,
    lo: float = 0.0,
    hi: Optional[float] = None,
    floor: float = 0.0,
    start_panels: int = 8,
) -> QuadResult:
    """Integral of g(z) * density(z) over [lo, hi].

    hi defaults to the law's tail cutoff at quad_trunc_mass, so for bounded g
    the neglected tail contributes less than that mass times sup|g|.
    """
    if hi is None:
        hi = law.tail_cutoff(tol.quad_trunc_mass)
    return integrate(lambda z: np.asarray(g(z), dtype=float) * law.density(z),
                     lo, hi, tol, floor=floor, start_panels=start_panels)


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerances = DEFAULT_TOL,
    f_tol: float = 0.0,
) -> float:
    """Brent's method (1973) for a sign change of a scalar map on [lo, hi].

    Each step is an inverse-quadratic or secant step when that stays well
    inside the bracket, else a bisection. Stops when |f(x)| <= f_tol or when
    the bracket around the best iterate x is narrower than
    root_tol * max(1, |x|). The caller brackets. Raises
    BracketError without a sign change, NumericsError on NaN, and
    NumericsError, with the last iterate as best, after max_iter steps.
    """
    return _brent(f, lo, float(f(lo)), hi, float(f(hi)), tol, f_tol)[0]


def _brent(f, x_pre, f_pre, x_cur, f_cur, tol, f_tol):
    """find_root from two evaluated endpoints; returns the root and f there.

    x_cur is the best iterate, x_pre the one before it, and x_blk the
    contrapoint: f(x_blk) and f(x_cur) have opposite signs.
    """
    if math.isnan(f_pre) or math.isnan(f_cur):
        raise NumericsError("NaN at bracket endpoint")
    if f_pre == 0.0:
        return x_pre, f_pre
    if f_cur == 0.0:
        return x_cur, f_cur
    if (f_pre > 0) == (f_cur > 0):
        raise BracketError(f"no sign change on [{x_pre:g}, {x_cur:g}]")
    x_blk, f_blk = x_pre, f_pre
    s_pre = s_cur = x_cur - x_pre
    for step in range(tol.max_iter + 1):
        if (f_pre > 0) != (f_cur > 0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * tol.root_tol * max(1.0, abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if abs(f_cur) <= f_tol or abs(s_bis) <= delta:
            return x_cur, f_cur
        if step == tol.max_iter:
            break
        interpolate = abs(s_pre) > delta and abs(f_cur) < abs(f_pre)
        if interpolate:
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            # keep the step only if it is short against the last two and the bracket
            interpolate = 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta)
        s_pre, s_cur = (s_cur, s_try) if interpolate else (s_bis, s_bis)
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = float(f(x_cur))
        if math.isnan(f_cur):
            raise NumericsError("NaN during root finding")
    raise NumericsError(f"find_root not converged after {tol.max_iter} steps", best=x_cur)


def calibrate(
    mean_power: Callable[[float, Tolerances], float],
    budget: float,
    u_hi: float,
    tol: Tolerances = DEFAULT_TOL,
):
    """Multiplier lam at which a decreasing mean power spends the budget.

    mean_power(lam, tol) must fall strictly in lam and lie below the budget
    at lam = exp(u_hi). The bracket walk steps u = ln(lam) down by 4 from
    u_hi until the mean power exceeds the budget, and each probe that does
    not becomes the new upper end; find_root then runs on u from the two last
    probes, to f_tol = power_rel_tol * budget. No u is evaluated twice: the
    residual |mean_power - budget| is the one find_root already has at the
    returned lam. The mean power only needs to sit ~50x below that target,
    so it is evaluated with quad_rel_tol relaxed to 0.02 * power_rel_tol.
    Returns (lam, residual), or (math.inf, 0.0) for a zero budget; raises
    NumericsError when the walk or the residual target fails.
    """
    if budget == 0.0:
        return math.inf, 0.0
    target = tol.power_rel_tol * budget
    tol_cal = replace(tol, quad_rel_tol=max(tol.quad_rel_tol, 0.02 * tol.power_rel_tol))

    def excess(u: float) -> float:
        return mean_power(math.exp(u), tol_cal) - budget

    hi, f_hi = u_hi, None
    for _ in range(60):
        lo = hi - 4.0
        f_lo = excess(lo)
        if not f_lo <= 0.0:  # a NaN also ends the walk, and _brent rejects it
            break
        hi, f_hi = lo, f_lo
    else:
        raise NumericsError("could not bracket the power calibration")
    if f_hi is None:
        f_hi = excess(hi)
    u, f_u = _brent(excess, lo, f_lo, hi, f_hi, tol, target)
    if abs(f_u) > target:
        raise NumericsError(f"calibration residual {abs(f_u):.3e} above target {target:.3e}",
                            best=math.exp(u))
    return math.exp(u), abs(f_u)

