"""Deterministic power calibration, scalar root finding and panel quadrature.

Both solvers calibrate through the primitives here: the average-power
calibration, Brent root finding on a bracketed sign change (its only user),
and composite Gauss-Legendre quadrature whose panel count doubles until two
successive refinements agree. Evaluation order is fixed, so results are
bit-reproducible for fixed tolerances.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import ValidationError


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

    root_tol: relative bracket width (Brent) or step (Newton) ending a root search.
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
# refine_panels' first rung: on the graded region rules the 8-panel value
# already agrees with the 4-panel one within quad_rel_tol on most of the
# realistic range, so most refinements stop at 8 panels
FIRST_RUNG = 4
# refine_panels' panel cap per axis
_MAX_PANELS = 64


class QuadResult(NamedTuple):
    value: float
    error: float
    panels: int


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(lo: float, hi: float, n_panels: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi], ascending."""
    x, w = _gauss_legendre(_GL_ORDER)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (centers[:, None] + half * x[None, :]).ravel()
    weights = np.tile(half * w, n_panels)
    return nodes, weights


def graded_nodes(scale: float, span, n_panels: int):
    """Composite Gauss-Legendre nodes t and weights on [0, span], uniform in s
    with t = scale*((1 + sinh s)^2 - 1), the jacobian folded into the weights:
    the sinh map for nearly singular integrals (Johnston & Elliott, 2005),
    linear within about scale of 0 and logarithmic beyond. An array span gives
    each entry its own rule, the nodes along a new last axis.
    """
    s_max = np.arcsinh(np.sqrt(1.0 + np.asarray(span, dtype=float) / scale) - 1.0)[..., None]
    s, ws = panel_nodes(0.0, 1.0, n_panels)
    sinh = np.sinh(s_max * s)
    cosh = np.sqrt(1.0 + sinh * sinh)  # a third of the cost of np.cosh
    return scale * sinh * (2.0 + sinh), (2.0 * scale) * (ws * s_max) * ((1.0 + sinh) * cosh)


def refine_panels(
    value_at: Callable[[int], float],
    tol: Tolerances = DEFAULT_TOL,
    floor: float = 0.0,
) -> QuadResult:
    """Double the panel count from FIRST_RUNG until two successive values agree.

    The first check compares the 8-panel value with the 4-panel one, and the
    refinement goes on to 16, 32 and 64 panels only where they disagree. The
    error estimate is |I_2n - I_n|, tightened by a geometric tail bound
    (1.5 * diff * r / (1 - r)) once two successive diffs show a contraction
    ratio r < 1/4. Convergence: estimate <= quad_rel_tol * max(|I_2n|, floor).
    Stops with QuadratureError (best estimate attached) if neither max_iter
    rounds nor the _MAX_PANELS cap produce agreement.
    """
    n = FIRST_RUNG
    prev = value_at(n)
    prev_diff = None
    err_est = math.inf
    for _ in range(tol.max_iter):
        if 2 * n > _MAX_PANELS:
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


def _brent(f, x_pre, f_pre, x_cur, f_cur, tol, f_tol):
    """Brent's method (1973) for a sign change of a scalar map between two
    evaluated endpoints, f_pre = f(x_pre) and f_cur = f(x_cur); returns the
    root and f there.

    Each step is an inverse-quadratic or secant step when that stays well
    inside the bracket, else a bisection. Stops when |f(x)| <= f_tol or when
    the bracket around the best iterate x is narrower than
    root_tol * max(1, |x|). The caller brackets. Raises BracketError without
    a sign change, NumericsError on NaN, and NumericsError, with the last
    iterate as best, after max_iter steps.

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
    raise NumericsError(f"Brent root not converged after {tol.max_iter} steps", best=x_cur)


# |ln(P/B)| <= f_tol bounds |P/B - 1| by expm1(f_tol); the shrink keeps that
# within power_rel_tol through the roundings of the log and the ratio
_CALIBRATION_SHRINK = 1.0 - 1e-6
# a coarse stage's share of f_tol: its root then sits well inside the next
# stage's acceptance band, so one evaluation there usually accepts it
_COARSE_F_TOL_SHARE = 0.125
# the walk stops before exp(u) underflows
_U_MIN = math.log(1e-300)


def _walk(log_ratio, u, u_hi, f_tol, slope, overshoot, min_step):
    """Bracket walk on a decreasing h = log_ratio(u) from u, toward its root.

    Returns the probes (above, below), (u, h) with h > 0 at above and a
    finite h < 0 at below, or one probe with |h| <= f_tol as both. Each step
    goes to the root of the secant through the last two probes once both lie
    on the same side, else to the root of the line of the given slope through
    the last probe; it is lengthened by the factor overshoot and clamped to
    [min_step, 16]. It never steps up past the midpoint to u_hi,
    and a probe with h = -inf (zero mean power) is only ever a bracket end:
    the walk bisects toward the other end until both ends have finite h.
    Raises NumericsError when it finds no bracket.
    """
    above = below = last = None
    for _ in range(60):
        h = log_ratio(u)
        probe = (u, h)
        if abs(h) <= f_tol:
            return probe, probe
        if h > 0.0:
            above = probe
        else:
            below = probe
        if above is not None and below is not None:
            if below[1] > -math.inf:
                return above, below
            u = 0.5 * (above[0] + below[0])
        elif h == -math.inf:
            u -= 4.0
        else:
            same_side = (last is not None and math.isfinite(last[1])
                         and (last[1] > 0.0) == (h > 0.0) and last[1] != h)
            step = h * (u - last[0]) / (last[1] - h) if same_side else -h / slope
            u += math.copysign(min(max(overshoot * abs(step), min_step), 16.0), step)
            if h > 0.0:
                u = min(u, 0.5 * (probe[0] + u_hi))
            elif u < _U_MIN:
                break
        last = probe
    raise NumericsError("could not bracket the power calibration")


def calibrate(
    mean_power: Callable[[float, Tolerances], float],
    budget: float,
    u_hi: float,
    tol: Tolerances = DEFAULT_TOL,
    coarse_powers: Sequence[Callable[[float, Tolerances], float]] = (),
):
    """Multiplier lam at which a decreasing mean power spends the budget.

    mean_power(lam, tol) must fall strictly in lam and lie below the budget
    at lam = exp(u_hi). The root is found in u = ln(lam) on
    h(u) = ln(mean_power/budget), which is close to linear: its slope runs
    from about -1/(beta+1) at high SNR to below -1 at low SNR. A stage is one
    bracket walk (_walk) and, unless the walk lands within f_tol, Brent
    (_brent) on the bracket, to f_tol = log1p(power_rel_tol) shrunk slightly
    so that |mean_power - budget| <= power_rel_tol * budget at the returned
    lam.

    coarse_powers is a ladder of cheap approximations of mean_power, cheapest
    first, such as the mean power on coarse rungs of its quadrature. Each
    coarse evaluator gets a stage solved to f_tol/8, and mean_power a last
    stage to f_tol. The first stage walks cold: it starts at u_hi - 4 with
    unit slope and lengthens each step by a quarter, to at least 0.5, so that
    it crosses the root. Each later stage starts at the root of the last
    stage that succeeded and accepts its first probe when that lies within
    its tolerance; otherwise its walk aims at the root: it steps along the
    secant of the previous stage's bracket, neither lengthened nor clamped
    from below. A coarse stage that raises NumericsError is skipped, so the
    next stage starts where the last successful one ended, or cold if none
    did.

    No u is evaluated twice by one evaluator, and the residual
    |mean_power - budget| is the one already evaluated at the returned lam.
    The mean power only needs to sit ~50x below that target, so every
    evaluator is called with quad_rel_tol relaxed to 0.02 * power_rel_tol.
    On the benchmark and acceptance configurations one evaluator takes 4-6
    evaluations per calibration. With the solvers' ladder (the 2- and
    8-panel rungs) the cold walk takes 5-7 evaluations on 2 panels, the
    8-panel stage 1-3, and mean_power is evaluated once; where the 8-panel
    rung misses the refined mean power by more than f_tol, as on some rows
    of the realistic range, twice. Returns (lam, residual), or
    (math.inf, 0.0) for a zero budget; raises NumericsError on a NaN mean
    power, when the walk finds no bracket, or when the residual misses its
    target.
    """
    if budget == 0.0:
        return math.inf, 0.0
    target = tol.power_rel_tol * budget
    tol_cal = replace(tol, quad_rel_tol=max(tol.quad_rel_tol, 0.02 * tol.power_rel_tol))
    f_tol = _CALIBRATION_SHRINK * math.log1p(tol.power_rel_tol)

    def solve(power, start, stage_tol):
        """One stage from start, (u, slope) or None for a cold walk:
        (root, spent power by u, slope of the walk's bracket)."""
        spent = {}

        def log_ratio(u: float) -> float:
            value = float(power(math.exp(u), tol_cal))
            if math.isnan(value):
                raise NumericsError(f"NaN mean power at lam = {math.exp(u):g}")
            spent[u] = value
            return math.log(value / budget) if value > 0.0 else -math.inf

        if start is None:
            u, slope, overshoot, min_step = u_hi - 4.0, -1.0, 1.25, 0.5
        else:
            (u, slope), overshoot, min_step = start, 1.0, 0.0
        above, below = _walk(log_ratio, u, u_hi, stage_tol, slope, overshoot, min_step)
        if above is below:
            return above[0], spent, slope
        u, _ = _brent(log_ratio, *above, *below, tol, stage_tol)
        return u, spent, (above[1] - below[1]) / (above[0] - below[0])

    start = None
    for power in coarse_powers:
        try:
            u, _, slope = solve(power, start, _COARSE_F_TOL_SHARE * f_tol)
            start = u, slope
        except NumericsError:
            pass
    u, spent, _ = solve(mean_power, start, f_tol)
    residual = abs(spent[u] - budget)
    if residual > target:
        raise NumericsError(f"calibration residual {residual:.3e} above target {target:.3e}",
                            best=math.exp(u))
    return math.exp(u), residual
