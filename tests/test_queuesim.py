import numpy as np
import pytest

from secthru import (
    FadingLaw,
    InstabilityWarning,
    LinkBudget,
    TailHistogram,
    Tolerances,
    ValidationError,
    estimate_decay,
    make_qos,
    simulate_queue,
    solve_full,
)
from secthru.queuesim import lindley_queue


@pytest.fixture(scope="module")
def calibrated():
    law = FadingLaw()
    link = LinkBudget(1.0, 1.0)
    qos = make_qos(0.01)
    tol = Tolerances(quad_rel_tol=1e-6, root_tol=1e-10)
    sol = solve_full(qos, link, law, law, tol)
    policy = sol.policy()
    arrival = sol.throughput.throughput_bits_s_hz * qos.frame_t * qos.bandwidth_b
    return policy, qos, link, law, arrival


class TestLindley:
    def test_matches_scalar_recursion(self):
        rng = np.random.default_rng(4)
        x = rng.normal(-0.1, 1.0, 5000)
        q = 0.0
        expected = np.empty(x.size)
        for i, xi in enumerate(x):
            q = max(0.0, q + xi)
            expected[i] = q
        assert np.allclose(lindley_queue(x), expected, atol=1e-9)

    def test_deterministic_balance(self):
        # service exactly equals arrival: the queue never grows
        x = np.zeros(1000)
        assert np.all(lindley_queue(x) == 0.0)

    def test_carries_initial_state(self):
        x = np.array([-1.0, 2.0, -0.5])
        assert np.allclose(lindley_queue(x, q0=3.0), [2.0, 4.0, 3.5])


class TestSimulateQueue:
    def test_zero_arrival(self, calibrated):
        policy, qos, link, law, _ = calibrated
        hist = simulate_queue(policy, qos, link, law, law, 0.0, 200_000, seed=1)
        assert np.all(hist.exceedance_prob == 0.0)
        assert np.all(hist.thresholds > 0.0)

    def test_reproducible(self, calibrated):
        policy, qos, link, law, arrival = calibrated
        a = simulate_queue(policy, qos, link, law, law, arrival, 200_000, seed=7)
        b = simulate_queue(policy, qos, link, law, law, arrival, 200_000, seed=7)
        assert np.array_equal(a.thresholds, b.thresholds)
        assert np.array_equal(a.exceedance_prob, b.exceedance_prob)

    def test_heavier_arrivals_heavier_tails(self, calibrated):
        policy, qos, link, law, arrival = calibrated
        light = simulate_queue(policy, qos, link, law, law, 0.8 * arrival, 300_000, seed=9)
        heavy = simulate_queue(policy, qos, link, law, law, arrival, 300_000, seed=9)
        # compare at the lighter run's thresholds via interpolation
        heavy_at = np.interp(light.thresholds, heavy.thresholds, heavy.exceedance_prob)
        assert np.all(heavy_at >= light.exceedance_prob - 1e-12)

    def test_instability_warning(self, calibrated):
        policy, qos, link, law, arrival = calibrated
        with pytest.warns(InstabilityWarning):
            simulate_queue(policy, qos, link, law, law, 10.0 * arrival, 200_000, seed=2)

    def test_rejects_short_runs(self, calibrated):
        policy, qos, link, law, arrival = calibrated
        with pytest.raises(ValidationError):
            simulate_queue(policy, qos, link, law, law, arrival, 1000, seed=1)


class TestEstimateDecay:
    def test_pure_exponential(self):
        q = np.linspace(1.0, 10.0, 20)
        hist = TailHistogram(q, np.exp(-2.0 * q), frames=10**9, seed=0, arrival_per_frame=1.0)
        theta_hat, se = estimate_decay(hist)
        assert theta_hat == pytest.approx(2.0, rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_prefactor_ignored(self):
        q = np.linspace(1.0, 10.0, 20)
        hist = TailHistogram(q, 0.5 * np.exp(-0.5 * q), frames=10**9, seed=0, arrival_per_frame=1.0)
        theta_hat, _ = estimate_decay(hist)
        assert theta_hat == pytest.approx(0.5, rel=1e-12)

    def test_insufficient_points(self):
        q = np.array([1.0, 2.0, 3.0])
        hist = TailHistogram(q, np.exp(-q), frames=10**9, seed=0, arrival_per_frame=1.0)
        with pytest.raises(ValidationError):
            estimate_decay(hist)

    def test_deep_tail_dropped(self):
        q = np.linspace(1.0, 10.0, 20)
        p = np.exp(-2.0 * q)
        hist = TailHistogram(q, p, frames=2000, seed=0, arrival_per_frame=1.0)
        with pytest.raises(ValidationError):
            estimate_decay(hist)  # everything below 100 expected counts


class TestDecaySemantics:
    def test_decay_matches_exponent(self, calibrated):
        policy, qos, link, law, arrival = calibrated
        hist = simulate_queue(policy, qos, link, law, law, arrival, 1_000_000, seed=3)
        theta_hat, _ = estimate_decay(hist)
        assert abs(theta_hat - 0.01) / 0.01 < 0.20

    def test_underloaded_queue_decays_faster(self, calibrated):
        policy, qos, link, law, arrival = calibrated
        full = simulate_queue(policy, qos, link, law, law, arrival, 1_000_000, seed=3)
        under = simulate_queue(policy, qos, link, law, law, 0.8 * arrival, 1_000_000, seed=3)
        theta_full, _ = estimate_decay(full)
        theta_under, _ = estimate_decay(under)
        assert theta_full >= 0.01 * 0.8
        assert theta_under > theta_full
