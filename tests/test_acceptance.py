"""Acceptance gate: every release criterion with its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to stream them). The
throughput grid shared by the calibration and ordering criteria is computed
once per session at full precision.
"""

import math
import time

import numpy as np
import pytest

from secthru import (
    FadingLaw,
    LinkBudget,
    Tolerances,
    build_policy_full,
    estimate_decay,
    make_qos,
    pointwise_power,
    policy_surface_full,
    power_grid,
    power_main,
    simulate_queue,
    throughput_full,
    throughput_main,
)
from oracles import brute_power_full, brute_power_main, closed_form_power_beta1

TOL = Tolerances()
LAW = FadingLaw(mean_gain=1.0)
THETAS = (1e-3, 1e-2, 1e-1)
SNRS = (0.1, 1.0, 10.0)


def report(name: str, ok: bool, detail: str) -> None:
    # tee-sys capture (set in pyproject) streams this into the run log
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def throughput_grid():
    """results[(mode, theta, snr)] = ThroughputResult at gamma=1, Exp(1)/Exp(1)."""
    results = {}
    for theta in THETAS:
        qos = make_qos(theta)
        for snr in SNRS:
            link = LinkBudget(snr, 1.0)
            results[("full", theta, snr)] = throughput_full(qos, link, LAW, LAW, TOL)
            results[("main", theta, snr)] = throughput_main(qos, link, LAW, LAW, TOL)
    return results


def test_criterion_1_closed_form_beta1():
    rng = np.random.default_rng(101)
    z_m = rng.exponential(1.0, 1000)
    z_e = rng.exponential(1.0, 1000)
    lam = 0.37
    start = time.perf_counter()
    mu = power_grid(z_m, z_e, 1.0, 1.0, lam, TOL)
    elapsed = time.perf_counter() - start
    worst = float(np.max(np.abs(mu - closed_form_power_beta1(z_m, z_e, 1.0, lam))))
    ok = worst <= 1e-8 and elapsed < 1.0
    report("criterion-1 closed-form beta=1",
           ok, f"1000 states, worst |mu - formula| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_full = 0.0
    for _ in range(100):
        z_m = rng.uniform(0.1, 5.0)
        z_e = rng.uniform(0.0, 2.5)
        beta = rng.uniform(0.1, 10.0)
        gamma = rng.uniform(0.25, 4.0)
        lam = rng.uniform(0.05, 1.5)
        link = LinkBudget(1.0, gamma)
        mu = pointwise_power(z_m, z_e, link, beta, lam, TOL)
        worst_full = max(worst_full, abs(mu - brute_power_full(z_m, z_e, gamma, beta, lam)))
    worst_main = 0.0
    for _ in range(50):
        z_m = rng.uniform(0.3, 5.0)
        beta = rng.uniform(0.1, 10.0)
        gamma = rng.uniform(0.25, 4.0)
        lam = rng.uniform(0.02, 0.8)
        link = LinkBudget(1.0, gamma)
        mu = power_main(z_m, beta, lam, link, LAW, TOL)
        worst_main = max(worst_main, abs(mu - brute_power_main(z_m, gamma, beta, lam, LAW)))
    elapsed = time.perf_counter() - start
    ok = worst_full <= 1e-3 and worst_main <= 1e-3 and elapsed < 60.0
    report("criterion-2 brute-force oracle equivalence", ok,
           f"150 tuples, worst full {worst_full:.2e}, worst main {worst_main:.2e}, {elapsed:.1f}s")


def test_criterion_3_calibration(throughput_grid):
    worst = 0.0
    for (mode, theta, snr), res in throughput_grid.items():
        worst = max(worst, res.power_residual / snr)
    ok = worst <= 1e-4
    report("criterion-3 power calibration", ok,
           f"worst relative residual {worst:.2e} over {len(throughput_grid)} configs")


def test_criterion_4_ordering(throughput_grid):
    checks = []
    for theta in THETAS:
        for snr in SNRS:
            full = throughput_grid[("full", theta, snr)].throughput_bits_s_hz
            main = throughput_grid[("main", theta, snr)].throughput_bits_s_hz
            checks.append(full >= main - 1e-6)
    for mode in ("full", "main"):
        for snr in SNRS:
            vals = [throughput_grid[(mode, t, snr)].throughput_bits_s_hz for t in THETAS]
            checks.append(all(a >= b - 1e-9 for a, b in zip(vals, vals[1:])))
        for theta in THETAS:
            vals = [throughput_grid[(mode, theta, s)].throughput_bits_s_hz for s in SNRS]
            checks.append(all(a <= b + 1e-9 for a, b in zip(vals, vals[1:])))
    def rel_gap(theta, snr):
        full = throughput_grid[("full", theta, snr)].throughput_bits_s_hz
        main = throughput_grid[("main", theta, snr)].throughput_bits_s_hz
        return (full - main) / full

    for snr in SNRS:
        gaps = [rel_gap(theta, snr) for theta in THETAS]
        checks.append(all(a > b for a, b in zip(gaps, gaps[1:])))  # CSI helps less as theta grows
    at_0db = [rel_gap(theta, 1.0) for theta in THETAS]
    ok = all(checks)
    report("criterion-4 ordering suite", ok,
           "full>=main, monotone in theta and SNR; relative gap at 0 dB "
           + " -> ".join(f"{g:.4f}" for g in at_0db))


def test_criterion_5_theta_to_zero_continuity():
    link = LinkBudget(1.0, 1.0)
    qos = make_qos(1e-6)
    full6 = throughput_full(qos, link, LAW, LAW, TOL).throughput_bits_s_hz
    main6 = throughput_main(qos, link, LAW, LAW, TOL).throughput_bits_s_hz
    qos0 = make_qos(0.0)
    erg_full = throughput_full(qos0, link, LAW, LAW, TOL).throughput_bits_s_hz
    erg_main = throughput_main(qos0, link, LAW, LAW, TOL).throughput_bits_s_hz
    d_full = abs(full6 - erg_full)
    d_main = abs(main6 - erg_main)

    # Monte Carlo confirmation of the benchmark value (10^7 states, 3 SE)
    policy = build_policy_full(qos0, link, LAW, LAW, TOL)
    rng = np.random.default_rng(55)
    n = 10_000_000
    z_m = rng.exponential(1.0, n)
    z_e = rng.exponential(1.0, n)
    mu = policy.state_power(z_m, z_e)
    rate = (np.log1p(mu * z_m) - np.log1p(mu * z_e)) / math.log(2.0)
    se = rate.std() / math.sqrt(n)
    mc_ok = abs(erg_full - rate.mean()) <= 3.0 * se

    ok = d_full <= 1e-3 and d_main <= 1e-3 and mc_ok
    report("criterion-5 theta->0 continuity", ok,
           f"|full(1e-6)-erg| {d_full:.2e}, |main(1e-6)-erg| {d_main:.2e}, "
           f"MC gap {abs(erg_full - rate.mean()):.2e} vs 3se {3*se:.2e}")


def test_criterion_6_power_surface_structure():
    link = LinkBudget(1.0, 1.0)  # 0 dB
    z = np.linspace(0.0, 4.0, 41)
    qos = make_qos(0.01)
    s_qos = policy_surface_full(qos, link, LAW, LAW, z, z, TOL)
    s_erg = policy_surface_full(make_qos(0.0), link, LAW, LAW, z, z, TOL)
    ze_grid, zm_grid = np.meshgrid(z, z, indexing="ij")
    diff = zm_grid - ze_grid

    zeros_ok = bool(np.all(s_qos[diff <= 0] == 0.0) and np.all(s_erg[diff <= 0] == 0.0))
    imax = np.unravel_index(int(np.argmax(diff)), diff.shape)
    peak_ok = bool(s_erg[imax] > s_qos[imax])
    band = (diff > 0) & (s_qos > s_erg)
    moderate_ok = bool(band.any()) and float(diff[band].min()) <= 1.0
    ok = zeros_ok and peak_ok and moderate_ok
    report("criterion-6 power-surface structure", ok,
           f"zero set exact {zeros_ok}; theta=0 peak power {float(s_erg[imax]):.3f} > "
           f"theta=.01 {float(s_qos[imax]):.3f}; uniform-allocation cells {int(band.sum())}")


def test_criterion_7_queue_tail_decay():
    start = time.perf_counter()
    link = LinkBudget(1.0, 1.0)
    qos = make_qos(0.01, 2e-3, 1e5)
    policy = build_policy_full(qos, link, LAW, LAW, TOL)
    res = throughput_full(qos, link, LAW, LAW, TOL)
    arrival = res.throughput_bits_s_hz * qos.frame_t * qos.bandwidth_b
    estimates = []
    for seed in range(8):
        hist = simulate_queue(policy, qos, link, LAW, LAW, arrival, 10_000_000, seed=seed)
        estimates.append(estimate_decay(hist)[0])
    elapsed = time.perf_counter() - start
    mean_est = float(np.mean(estimates))
    rel_err = abs(mean_est - 0.01) / 0.01
    ok = rel_err <= 0.20 and elapsed < 300.0
    report("criterion-7 queue-tail decay", ok,
           f"theta_hat {mean_est:.5f} vs 0.01 (rel err {rel_err:.3f}; "
           f"8 seeds x 1e7 frames, {elapsed:.0f}s)")


def test_criterion_8_degenerate_limits():
    qos = make_qos(0.01)
    zero_full = throughput_full(qos, LinkBudget(0.0, 1.0), LAW, LAW, TOL)
    zero_main = throughput_main(qos, LinkBudget(0.0, 1.0), LAW, LAW, TOL)
    strong_eve = throughput_full(qos, LinkBudget(1.0, 1e6), LAW, LAW, TOL)
    ok = (zero_full.throughput_bits_s_hz == 0.0 and zero_main.throughput_bits_s_hz == 0.0
          and strong_eve.throughput_bits_s_hz <= 1e-3)
    report("criterion-8 degenerate limits", ok,
           f"snr=0 -> ({zero_full.throughput_bits_s_hz}, {zero_main.throughput_bits_s_hz}); "
           f"gamma=1e6 -> {strong_eve.throughput_bits_s_hz:.2e}")
