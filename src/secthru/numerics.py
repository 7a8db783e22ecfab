"""Deterministic power calibration, scalar root finding and panel quadrature.

Both solvers calibrate through the primitives here: the average-power
calibration, a secant root search safeguarded by bisection, and composite
Gauss-Legendre quadrature whose panel count doubles until two successive
refinements agree. Evaluation order is fixed, so results are
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

    root_tol: relative bracket width (calibration) or step (Newton) ending a root search.
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
# the finest rule, in panels per axis: refine_panels' cap, the top of the
# main-CSI simulation table's inner-rule ladder and the rule of the release
# checks' main-CSI oracle (checks.main_power_at)
MAX_PANELS = 64


class QuadResult(NamedTuple):
    value: float
    error: float
    panels: int


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(n_panels: int):
    """Composite Gauss-Legendre nodes and weights on [0, 1], ascending."""
    x, w = _gauss_legendre(_GL_ORDER)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
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
    s, ws = panel_nodes(n_panels)
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
    rounds nor the MAX_PANELS cap produce agreement.
    """
    n = FIRST_RUNG
    prev = value_at(n)
    prev_diff = None
    err_est = math.inf
    for _ in range(tol.max_iter):
        if 2 * n > MAX_PANELS:
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


# |ln(P/B)| <= f_tol bounds |P/B - 1| by expm1(f_tol); the shrink keeps that
# within power_rel_tol through the roundings of the log and the ratio
_CALIBRATION_SHRINK = 1.0 - 1e-6
# a coarse stage's share of f_tol: its root then sits well inside the next
# stage's acceptance band, so one evaluation there usually accepts it
_COARSE_F_TOL_SHARE = 0.125
# a stage stops stepping down before exp(u) underflows
_U_MIN = math.log(1e-300)
# probes per calibration stage: room for a 60-probe walk to a bracket and
# max_iter more within it
_WALK_PROBES = 60


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
    loop of probes, each stepping to the root of the secant through the last
    two finite probes (of the line of the stage's start slope while there
    are fewer). Until probes on both sides of the budget bracket the root,
    steps are lengthened and clamped as below and never go up past the
    midpoint to u_hi, and a probe with zero mean power (h = -inf) steps down
    by 4. Once bracketed, a step that would leave the bracket, or any step
    while its lower end has h = -inf, goes to the midpoint. The stage stops
    at |h| <= f_tol, with f_tol = log1p(power_rel_tol) shrunk slightly so
    that |mean_power - budget| <= power_rel_tol * budget at the returned lam,
    or, once the bracket is narrower than root_tol * max(1, |u|), at its end
    with the smaller |h|.

    coarse_powers is a ladder of cheap approximations of mean_power, cheapest
    first, such as the mean power on coarse rungs of its quadrature. Each
    coarse evaluator gets a stage solved to f_tol/8, and mean_power a last
    stage to f_tol. The first stage starts cold: at u_hi - 4 with unit slope,
    each step lengthened by a quarter and clamped to [0.5, 16], so that it
    crosses the root. Each later stage starts at the root of the last stage
    that succeeded, with the slope of that stage's last secant step, and
    accepts its first probe when that lies within its tolerance; its steps
    are neither lengthened nor clamped from below. A coarse stage that raises
    NumericsError is skipped, so the next stage starts where the last
    successful one ended, or cold if none did.

    No u is evaluated twice by one evaluator, and the residual
    |mean_power - budget| is the one already evaluated at the returned lam.
    The mean power only needs to sit ~50x below that target, so every
    evaluator is called with quad_rel_tol relaxed to 0.02 * power_rel_tol.
    On the benchmark and acceptance configurations one evaluator takes 5-6
    evaluations per calibration. With the solvers' ladder (the 2- and
    8-panel rungs) the cold stage takes 5-7 evaluations on 2 panels, the
    8-panel stage 1-3, and mean_power is evaluated once; where the 8-panel
    rung misses the refined mean power by more than f_tol, as on some rows
    of the realistic range, twice. Returns (lam, residual), or
    (math.inf, 0.0) for a zero budget. Raises NumericsError on a NaN mean
    power, after 60 + max_iter probes of a stage (with the nearer bracket
    end as best), or when the residual misses its target, and BracketError
    when the last stage finds no bracket.
    """
    if budget == 0.0:
        return math.inf, 0.0
    target = tol.power_rel_tol * budget
    tol_cal = replace(tol, quad_rel_tol=max(tol.quad_rel_tol, 0.02 * tol.power_rel_tol))
    f_tol = _CALIBRATION_SHRINK * math.log1p(tol.power_rel_tol)

    def solve(power, start, stage_tol):
        """One stage from start, (u, slope) or None for a cold start:
        (root, spent power by u, last secant slope)."""
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
        above = below = last = None
        for _ in range(_WALK_PROBES + tol.max_iter):
            h = log_ratio(u)
            if abs(h) <= stage_tol:
                return u, spent, slope
            if math.isfinite(h):
                if last is not None and h != last[1]:
                    slope = (h - last[1]) / (u - last[0])
                last = u, h
            if h > 0.0:
                above = u, h
            else:
                below = u, h
            if above is not None and below is not None:
                nearer = min(above, below, key=lambda p: abs(p[1]))[0]
                if below[0] - above[0] <= tol.root_tol * max(1.0, abs(u)):
                    return nearer, spent, slope
                u -= h / slope
                if below[1] == -math.inf or not above[0] < u < below[0]:
                    u = 0.5 * (above[0] + below[0])
            elif h == -math.inf:
                u -= 4.0
            else:
                step = -h / slope
                u += math.copysign(min(max(overshoot * abs(step), min_step), 16.0), step)
                if h > 0.0:
                    u = min(u, 0.5 * (last[0] + u_hi))
                elif u < _U_MIN:
                    break
        if above is None or below is None:
            raise BracketError("could not bracket the power calibration")
        raise NumericsError(f"power calibration not converged in {_WALK_PROBES + tol.max_iter} "
                            "probes", best=math.exp(nearer))

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
