"""The machinery both CSI modes share: the per-state power kernel against an
independent scalar bisection, the node store, the mean-power domain, and the
module attributes that solves reach through their modules' globals.
"""

import importlib

import numpy as np
import pytest

from secthru import (
    FadingLaw,
    LinkBudget,
    NumericsError,
    Tolerances,
    ValidationError,
    full_csi,
    main_csi,
    make_qos,
)
from secthru._region import CALIBRATION_RUNGS, NodePowers, power_lanes
from secthru.full_csi import power_grid
from secthru.numerics import FIRST_RUNG
from oracles import bisect_lane_power

TOL = Tolerances()
BETAS = (0.0, 0.29, 1.0, 2.9, 28.9, 288.5)  # 0 is the theta = 0 main-CSI gain
LAMS = (1e-6, 1e-4, 1e-2, 0.5, 5.0)
GAMMAS = (0.3, 1.0, 3.0)
# relative distance of the zero-power gain from nu on the near-threshold lanes
NEAR = np.array([1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1e-1])


def _inner_rule(panels=4):
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    u = ((edges[:-1, None] + edges[1:, None]) / 2.0 + half * x[None, :]).ravel()
    return u, np.tile(half * w, panels)


def full_states(rng, gamma, nu):
    """Random states plus states just above and just below z_m - gamma*z_e = nu."""
    zm = rng.exponential(3.0, 8)
    ze = rng.exponential(3.0, 8)
    ze_near = rng.exponential(1.0, 2 * NEAR.size)
    zm_near = gamma * ze_near + nu * np.concatenate([1.0 + NEAR, 1.0 - NEAR])
    return np.concatenate([zm, zm_near]), np.concatenate([ze, ze_near])


def full_lanes(rng, gamma, nu):
    """The power_lanes arguments of full_states."""
    zm, ze = full_states(rng, gamma, nu)
    gze = gamma * ze
    return zm, np.maximum(zm - gze, 0.0), gze / zm


def main_lanes(rng, gamma, nu):
    """Main-CSI lanes on an inner Gauss-Legendre rule, Exp(1) eavesdropper.

    The near-threshold lanes are random lanes rescaled so that their
    zero-power gain sits just above or just below nu.
    """
    u, wu = _inner_rule()
    zm = rng.exponential(3.0, 8 + 2 * NEAR.size)
    span = zm[:, None] / gamma
    ze = span * (u * u)[None, :]
    coef = wu * np.exp(-ze) * span * 2.0 * u * (zm[:, None] - gamma * ze)
    target = nu * np.concatenate([1.0 + NEAR, 1.0 - NEAR])
    coef[8:] *= (target / coef[8:].sum(axis=1))[:, None]
    return zm, coef, np.broadcast_to(u * u, coef.shape)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("kind", ["full", "main"])
def test_power_lanes_match_scalar_bisection(kind, beta):
    rng = np.random.default_rng(int(beta * 10) + (kind == "main"))
    build = full_lanes if kind == "full" else main_lanes
    capped = Tolerances(max_iter=12)
    for lam in LAMS:
        nu = lam / beta if beta > 0 else lam
        for gamma in GAMMAS:
            zm, coef, ratio = build(rng, gamma, nu)
            mu = power_lanes(zm, coef, ratio, beta, nu, TOL)
            ref = np.array([bisect_lane_power(zm[i], coef[i], ratio[i], beta, nu)
                            for i in range(zm.size)])
            where = f"{kind} beta={beta} lam={lam} gamma={gamma}"
            assert np.array_equal(mu > 0.0, ref > 0.0), where
            err = np.abs(mu - ref) / np.maximum(1.0, mu)
            assert err.max() <= 1e-10, f"{where}: {err.max():.3e}"
            # every block converges within 12 Newton steps
            assert np.array_equal(power_lanes(zm, coef, ratio, beta, nu, capped), mu), where


@pytest.mark.parametrize("gamma", GAMMAS)
def test_power_grid_beta0_closed_form_matches_kernel(gamma):
    # power_grid answers beta = 0 with the closed-form root; the kernel solves
    # the same first-order condition with nu = lam
    rng = np.random.default_rng(int(gamma * 10) + 100)
    for lam in LAMS:
        zm, ze = full_states(rng, gamma, lam)
        gze = gamma * ze
        mu = power_grid(zm, ze, gamma, 0.0, lam, TOL)
        ref = power_lanes(zm, np.maximum(zm - gze, 0.0), gze / zm, 0.0, lam, TOL)
        where = f"gamma={gamma} lam={lam}"
        assert np.array_equal(mu > 0.0, ref > 0.0), where
        err = np.abs(mu - ref) / np.maximum(1.0, mu)
        assert err.max() <= 1e-10, f"{where}: {err.max():.3e}"


def test_power_grid_lanes_are_independent():
    # a state's power does not depend on the other states in the call, across
    # block boundaries too: converged lanes are frozen, not stepped again
    rng = np.random.default_rng(11)
    n = 40_000
    zm, ze = rng.exponential(1.0, (2, n))
    gamma = 0.3
    idx = np.concatenate([rng.choice(n, 150, replace=False), [16383, 16384, n - 1]])
    for beta, lam in ((0.29, 1e-4), (2.9, 1e-2), (288.5, 0.5)):
        mu = power_grid(zm, ze, gamma, beta, lam, TOL)
        single = [power_grid(zm[i:i + 1], ze[i:i + 1], gamma, beta, lam, TOL)[0] for i in idx]
        assert np.array_equal(mu[idx], single)


def test_non_finite_iterate_raises():
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="power_lanes") as err:
        power_grid(np.array([2.0, np.inf]), np.array([0.5, 0.0]), 1.0, 2.9, 0.5, TOL)
    assert err.value.best.shape == (2,)
    assert np.isfinite(err.value.best[0])


def test_iteration_cap_raises_with_best_estimate():
    rng = np.random.default_rng(4)
    zm, coef, ratio = full_lanes(rng, 0.3, 1e-2 / 28.9)
    exact = power_lanes(zm, coef, ratio, 28.9, 1e-2 / 28.9, TOL)
    with pytest.raises(NumericsError, match="power_lanes") as err:
        power_lanes(zm, coef, ratio, 28.9, 1e-2 / 28.9, Tolerances(max_iter=2))
    best = err.value.best
    assert best.shape == exact.shape
    assert np.allclose(best, exact, rtol=1e-2, atol=1e-12)


def test_lane_cycling_at_the_floating_point_floor_is_frozen():
    # the first node of the 16-panel rung at the theta = 0, 30 dB main-CSI
    # row: there h's rounding floor, ~1.8e-16 at x ~ 5.2e-3, moves mu by
    # 2.6e-14 relative, so the iterates cycle between two points and
    # root_tol = 1e-14 (the CLI's floor) cannot be met by the step test
    zm, nu = np.array([0.0031305554450792865]), 4.861343967300275e-06
    law = FadingLaw()
    mu = main_csi.main_power(zm, 16, 0.0, nu, 1.0, law, Tolerances(root_tol=1e-14))[0]
    loose = main_csi.main_power(zm, 16, 0.0, nu, 1.0, law, TOL)[0]
    assert mu == pytest.approx(loose, rel=1e-13)


def test_node_store_solves_each_rung_once_and_drops_old_multipliers():
    nodes, solves = NodePowers(), []

    def solver(nu, panels):
        def solve():
            solves.append((nu, panels))
            return np.full(panels, nu)
        return solve

    for nu, panels in ((0.5, 8), (0.5, 16), (0.5, 8), (0.25, 8), (0.25, 8), (0.5, 8)):
        assert np.array_equal(nodes.get(nu, panels, solver(nu, panels)), np.full(panels, nu))
    assert solves == [(0.5, 8), (0.5, 16), (0.25, 8), (0.5, 8)]
    assert nodes.nu == 0.5 and list(nodes.grids) == [8]  # 0.5's first 16-panel rung was dropped


@pytest.mark.parametrize("mode", ["full", "main"])
def test_refined_evaluation_at_the_last_coarse_root_solves_only_the_first_rung(
        mode, monkeypatch):
    # the last coarse stage stores its 8-panel grid at its root; the refined
    # evaluation there solves the 4-panel grid, accepts the 8-panel value
    # against it and reads that from the store, so the kernel sees 1/4 of
    # the 8-panel terms
    module = {"full": full_csi, "main": main_csi}[mode]
    mean_power = getattr(module, f"mean_power_{mode}")
    law, link, qos = FadingLaw(), LinkBudget(1.0, 1.0), make_qos(0.01)
    # at the solved nu the 8-panel value meets quad_rel_tol against the 4-panel one
    args = (getattr(module, f"solve_{mode}")(qos, link, law, law, TOL).nu, qos.beta, link, law,
            law, TOL)
    terms, lanes = [], module.power_lanes

    def counted(z_m, coef, *rest):
        terms.append(coef.size)
        return lanes(z_m, coef, *rest)

    monkeypatch.setattr(module, "power_lanes", counted)
    nodes = NodePowers()
    coarse = mean_power(*args, CALIBRATION_RUNGS[-1], nodes)
    terms.clear()
    assert mean_power(*args, None, nodes) == coarse
    refined_terms = list(terms)
    terms.clear()
    mean_power(*args, FIRST_RUNG)
    assert refined_terms == terms and len(terms) == 1


@pytest.mark.parametrize("mode", ["full", "main"])
def test_solution_keeps_the_panels_its_readout_stopped_at(mode):
    # the criterion-7 point (theta 0.01, 0 dB, gamma 1, Exp(1) gains): the
    # readout's 8-panel value agrees with its 4-panel one; a zero budget never
    # transmits, so its readout integrates nothing
    law, qos = FadingLaw(), make_qos(0.01)
    solve = getattr({"full": full_csi, "main": main_csi}[mode], f"solve_{mode}")
    assert solve(qos, LinkBudget(1.0, 1.0), law, law, TOL).panels == 8
    assert solve(qos, LinkBudget(0.0, 1.0), law, law, TOL).panels == 0


@pytest.mark.parametrize("mean_power", [full_csi.mean_power_full, main_csi.mean_power_main])
@pytest.mark.parametrize("nu, beta", [(0.0, 1.0), (-0.1, 1.0), (0.1, -1.0)])
def test_mean_power_rejects_nu_and_beta_out_of_domain(mean_power, nu, beta):
    law = FadingLaw()
    with pytest.raises(ValidationError, match="nu must be positive and beta nonnegative"):
        mean_power(nu, beta, LinkBudget(1.0, 1.0), law, law)


# the module attributes that bench/tracer.py wraps, by CSI mode: the first three
# are reached inside a solve, the last two are its public entry points
TRACED = {
    "full": ("mean_power_full", "power_grid", "transmit_region_expectation",
             "throughput_full", "build_policy_full"),
    "main": ("mean_power_main", "alpha_threshold", "main_region_expectation",
             "throughput_main", "build_policy_main"),
}


@pytest.mark.parametrize("mode", ["full", "main"])
def test_traced_attributes_are_reached_through_their_modules(mode, fast_tol, monkeypatch):
    # a solve that called one of these directly instead of through its module's
    # global would leave the benchmark's per-layer metrics reading 0, silently
    for name in ("secthru._region", "secthru.ergodic"):  # the tracer imports both
        importlib.import_module(name)
    module = {"full": full_csi, "main": main_csi}[mode]
    calls = dict.fromkeys(TRACED[mode], 0)
    for name in TRACED[mode]:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    law, link, qos = FadingLaw(), LinkBudget(1.0, 1.0), make_qos(0.01)
    getattr(module, f"solve_{mode}")(qos, link, law, law, fast_tol)
    mean_power, *inner = TRACED[mode][:3]
    assert calls[mean_power] > 0 and all(calls[name] > 0 for name in inner), calls
    for entry in TRACED[mode][3:]:
        before = calls[mean_power]
        getattr(module, entry)(qos, link, law, law, fast_tol)
        assert calls[entry] == 1 and calls[mean_power] > before, calls
