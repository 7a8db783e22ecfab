"""Deterministic scalar root finding and truncated semi-infinite quadrature.

Every solver in the package funnels through the two primitives here: bisection
of a bracketed monotone function and composite Gauss-Legendre quadrature whose
panel count doubles until two successive refinements agree. Evaluation order is
fixed, so results are bit-reproducible for fixed tolerances.
"""

import math
from dataclasses import dataclass
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
    """No sign change found on (or while expanding) a root bracket."""


class QuadratureError(NumericsError):
    """Refinement did not converge; carries the best estimate seen."""

    def __init__(self, message: str, best: Optional[float] = None, error: Optional[float] = None):
        super().__init__(message, best)
        self.error = error


@dataclass(frozen=True)
class Tolerances:
    """Numeric knobs shared by every solver.

    root_tol: relative interval width at which bisection stops.
    quad_rel_tol: required relative agreement between successive quadrature
        refinements (the reported error estimate is their difference).
    quad_trunc_mass: fading-law tail mass dropped when truncating [0, inf).
    max_iter: cap on bisection iterations and refinement rounds.
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


def calibration_tol(tol: Tolerances) -> Tolerances:
    """Tolerances for the inner loop of an average-power calibration.

    The mean-power integrals only need to sit ~50x below the power_rel_tol
    target, not at full reporting precision, which spares refinement rounds
    in regimes where the mean is far from the budget.
    """
    relaxed = max(tol.quad_rel_tol, 0.02 * tol.power_rel_tol)
    if relaxed == tol.quad_rel_tol:
        return tol
    return Tolerances(
        root_tol=tol.root_tol,
        quad_rel_tol=relaxed,
        quad_trunc_mass=tol.quad_trunc_mass,
        max_iter=tol.max_iter,
        power_rel_tol=tol.power_rel_tol,
    )


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


def expectation_joint(
    g: Callable[[np.ndarray, float], np.ndarray],
    law_m: FadingLaw,
    law_e: FadingLaw,
    tol: Tolerances = DEFAULT_TOL,
) -> QuadResult:
    """E{g(z_M, z_E)} for independent gains, via iterated integrate_density.

    g must be vectorized in its first argument; the second is a scalar. Inner
    integrals converge to an absolute tolerance matched to an O(1) expectation
    (callers with large-magnitude g should rescale). The reported error adds
    the worst inner error to the outer estimate.
    """
    worst_inner = 0.0

    def outer(ze_arr: np.ndarray) -> np.ndarray:
        nonlocal worst_inner
        out = np.empty(ze_arr.shape)
        for i, ze in enumerate(ze_arr):
            r = integrate_density(lambda zm: g(zm, float(ze)), law_m, tol, floor=1.0)
            worst_inner = max(worst_inner, r.error)
            out[i] = r.value
        return out

    res = integrate_density(outer, law_e, tol, floor=1.0)
    return QuadResult(res.value, res.error + worst_inner, res.panels)


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerances = DEFAULT_TOL,
    f_tol: float = 0.0,
) -> float:
    """Bisection for a bracketed sign change of a monotone scalar map.

    Stops when |f(mid)| <= f_tol (if given) or when the interval shrinks below
    root_tol * max(1, |mid|). The caller brackets; see expand_bracket. Raises
    NumericsError, with the last midpoint as best, after max_iter midpoints.
    """
    flo = float(f(lo))
    fhi = float(f(hi))
    if math.isnan(flo) or math.isnan(fhi):
        raise NumericsError("NaN at bracket endpoint")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change on [{lo:g}, {hi:g}]")
    mid = 0.5 * (lo + hi)
    for _ in range(tol.max_iter):
        mid = 0.5 * (lo + hi)
        fm = float(f(mid))
        if math.isnan(fm):
            raise NumericsError("NaN during bisection")
        if fm == 0.0 or (f_tol > 0.0 and abs(fm) <= f_tol):
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= tol.root_tol * max(1.0, abs(mid)):
            return 0.5 * (lo + hi)
    raise NumericsError(f"bisection not converged after {tol.max_iter} iterations", best=mid)


def expand_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    factor: float = 2.0,
    max_expansions: int = 60,
):
    """Grow hi geometrically until f changes sign across [lo, hi].

    Assumes f is monotone, so the bracket is advanced (lo <- hi) on failure to
    keep it narrow. Raises BracketError when the cap is hit.
    """
    flo = float(f(lo))
    if math.isnan(flo):
        raise NumericsError("NaN at bracket endpoint")
    cur = hi
    for _ in range(max_expansions):
        fcur = float(f(cur))
        if math.isnan(fcur):
            raise NumericsError("NaN during bracket expansion")
        if fcur == 0.0 or (fcur > 0) != (flo > 0):
            return lo, cur
        lo, flo = cur, fcur
        cur *= factor
    raise BracketError(f"no sign change after {max_expansions} expansions")
