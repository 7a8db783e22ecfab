import threading
import time
import tracemalloc

import numpy as np
import pytest

from secthru import (
    FadingLaw,
    InstabilityWarning,
    LinkBudget,
    NumericsError,
    PowerPolicy,
    TailHistogram,
    Tolerances,
    ValidationError,
    estimate_decay,
    make_qos,
    simulate_queue,
    solve_full,
    solve_main,
)
from secthru import queuesim
from secthru.queuesim import lindley_queue


@pytest.fixture(scope="module")
def calibrated():
    law = FadingLaw()
    link = LinkBudget(1.0, 1.0)
    qos = make_qos(0.01)
    tol = Tolerances(quad_rel_tol=1e-6, root_tol=1e-10)
    sol = solve_full(qos, link, law, law, tol)
    policy = sol.policy()
    arrival = sol.throughput_bits_s_hz * qos.frame_t * qos.bandwidth_b
    return policy, qos, link, law, arrival


@pytest.fixture(scope="module")
def calibrated_main():
    law = FadingLaw()
    link = LinkBudget(1.0, 1.0)
    qos = make_qos(0.01)
    sol = solve_main(qos, link, law, law, Tolerances(quad_rel_tol=1e-6, root_tol=1e-10))
    arrival = sol.throughput_bits_s_hz * qos.frame_t * qos.bandwidth_b
    return sol.policy(), qos, link, law, arrival


def serial_reference(policy, qos, link, law_m, law_e, arrival, frames, seed):
    """simulate_queue's histogram computed serially: slice j's z_m and then its
    z_e drawn from SeedSequence(seed).spawn(n)[j], the power of all frames in
    one state_power call, one Lindley recursion over the whole run, and the
    quantiles of the unsorted body."""
    size = queuesim._SLICE
    streams = np.random.SeedSequence(seed).spawn(-(-frames // size))
    draws = []
    for j, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        m = min(size, frames - j * size)
        draws.append((law_m.sample(rng, m), law_e.sample(rng, m)))
    z_m, z_e = (np.concatenate(d) for d in zip(*draws))
    mu = policy.state_power(z_m, z_e) if policy.csi_mode == "full" else policy.state_power(z_m)
    rate = np.log2(1.0 + mu * z_m) - np.log2(1.0 + link.gamma * mu * z_e)
    np.maximum(rate, 0.0, out=rate)
    queue = lindley_queue(arrival - qos.frame_t * qos.bandwidth_b * rate)
    body = queue[frames // 10:]
    deepest = max(100.0 / frames, 2e-5)
    thresholds = np.unique(np.quantile(body, np.linspace(0.80, 1.0 - deepest, 20)))
    thresholds = thresholds[thresholds > 0.0]
    idx = np.searchsorted(np.sort(body), thresholds, side="left")
    return thresholds, (body.size - idx) / body.size


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

    def test_carried_blocks_are_bitwise_one_call(self):
        rng = np.random.default_rng(8)
        x = rng.normal(-0.1, 1.0, 10_000)
        whole = lindley_queue(x)
        bounds = ((0, 1), (1, 4000), (4000, 10_000))
        carry = np.array([-0.0, np.inf])
        copied = np.concatenate([lindley_queue(x[a:b], carry) for a, b in bounds])
        in_place, carry = x.copy(), np.array([-0.0, np.inf])
        for a, b in bounds:
            lindley_queue(in_place[a:b], carry, out=in_place[a:b])
        assert np.array_equal(copied.view(np.int64), whole.view(np.int64))
        assert np.array_equal(in_place.view(np.int64), whole.view(np.int64))


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


class TestParallelService:
    @pytest.mark.parametrize("mode", ["full", "main"])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("frames", [150_000, 2_000_000])
    def test_bitwise_equal_to_serial_reference(self, calibrated, calibrated_main, monkeypatch,
                                               mode, workers, frames):
        # both runs end in a partial slice; 150,000 frames are three slices,
        # and 2,000,000 frames are 31, more than the seven that 3 workers keep
        # submitted ahead
        policy, qos, link, law, arrival = calibrated if mode == "full" else calibrated_main
        monkeypatch.setattr(queuesim, "_worker_count", lambda: workers)
        hist = simulate_queue(policy, qos, link, law, law, arrival, frames, seed=11)
        thresholds, probs = serial_reference(policy, qos, link, law, law, arrival, frames, 11)
        assert frames % queuesim._SLICE
        assert np.array_equal(hist.thresholds, thresholds)
        assert np.array_equal(hist.exceedance_prob, probs)
        assert hist.exceedance_prob.max() > 0.0

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failing_slice_raises_and_leaves_no_thread(self, calibrated, monkeypatch, workers):
        _, qos, link, law, arrival = calibrated
        best = np.zeros(1)
        callers = set()

        def state_power(z_m, z_e):
            callers.add(threading.get_ident())
            if z_m.size < queuesim._SLICE:  # the partial last slice
                raise NumericsError("slice failed", best=best)
            return np.ones(z_m.size)

        policy = PowerPolicy(csi_mode="full", state_power=state_power)
        monkeypatch.setattr(queuesim, "_worker_count", lambda: workers)
        threads = threading.active_count()
        with pytest.raises(NumericsError, match="slice failed") as excinfo:
            simulate_queue(policy, qos, link, law, law, arrival, 200_000, seed=1)
        assert type(excinfo.value) is NumericsError
        assert excinfo.value.best is best
        assert threading.active_count() == threads
        assert threading.get_ident() not in callers  # pool threads serve, one worker too

    def test_failing_first_slice_drops_the_slices_not_started(self, calibrated, monkeypatch):
        _, qos, link, law, arrival = calibrated
        frames, seed = 1_000_000, 1
        stream = np.random.SeedSequence(seed).spawn(1)[0]  # slice 0's
        first_gain = np.random.default_rng(stream).exponential(1.0, 1)[0]  # frame 0's z_m
        best = np.zeros(1)
        callers = []

        def state_power(z_m, z_e):
            callers.append(threading.get_ident())
            if z_m[0] == first_gain:
                raise NumericsError("first slice failed", best=best)
            time.sleep(0.02)  # the other slices are still running when the error is read
            return np.ones(z_m.size)

        policy = PowerPolicy(csi_mode="full", state_power=state_power)
        monkeypatch.setattr(queuesim, "_worker_count", lambda: 3)
        threads = threading.active_count()
        with pytest.raises(NumericsError, match="first slice failed") as excinfo:
            simulate_queue(policy, qos, link, law, law, arrival, frames, seed)
        assert type(excinfo.value) is NumericsError
        assert excinfo.value.best is best
        assert threading.active_count() == threads
        assert threading.get_ident() not in callers
        assert len(callers) < -(-frames // queuesim._SLICE)

    def test_worker_count_is_capped(self):
        assert 1 <= queuesim._worker_count() <= queuesim._MAX_WORKERS


class TestMemory:
    @pytest.mark.parametrize("mode", ["full", "main"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_peak_is_a_few_run_sized_arrays(self, calibrated, calibrated_main, monkeypatch,
                                            mode, workers):
        # the queue is the one array of frames floats; the recursion and the
        # in-place sort of the tail make no other. The rest is the draws and
        # scratch of the slices in flight, about 5 MB per full-CSI worker: at
        # 400k frames that alone is 4.5 such arrays with 3 workers, so the run
        # is 1M frames long, where it is 1.8.
        policy, qos, link, law, arrival = calibrated if mode == "full" else calibrated_main
        monkeypatch.setattr(queuesim, "_worker_count", lambda: workers)
        frames = 1_000_000
        tracemalloc.start()
        try:
            simulate_queue(policy, qos, link, law, law, arrival, frames, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * frames * 8


class TestTailRead:
    @pytest.mark.parametrize("frames", [queuesim._MIN_FRAMES, 250_000, 1_000_000])
    def test_thresholds_are_bitwise_np_quantile(self, frames):
        # sorted bodies with many ties and zeros, as a queue that often empties has
        rng = np.random.default_rng(frames)
        n = frames - frames // 10
        bodies = [rng.exponential(50.0, n), np.round(rng.exponential(3.0, n)),
                  np.maximum(rng.normal(0.0, 20.0, n), 0.0), np.floor(rng.exponential(0.4, n)),
                  np.zeros(n)]
        deepest = max(100.0 / frames, 2e-5)
        levels = np.linspace(0.80, 1.0 - deepest, queuesim._N_THRESHOLDS)
        for body in bodies:
            body.sort()
            expected = np.unique(np.quantile(body, levels))
            expected = expected[expected > 0.0]
            got = queuesim._quantile_thresholds(body, frames)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("frames", [queuesim._MIN_FRAMES, 1_000_000])
    def test_partial_sort_reads_the_tail_of_a_full_sort(self, frames):
        # the body partitioned at its 0.8 order statistic k and sorted above
        # it gives bitwise the thresholds and counts of a full sort; in the
        # tied bodies the value at k fills sorted positions on both sides of
        # k, so a threshold equals it and counts the equal values below k
        rng = np.random.default_rng(frames + 1)
        n = frames - frames // 10
        k = int((n - 1) * 0.8)
        low, tie = int(0.7 * n), int(0.2 * n)
        tied = np.concatenate([rng.uniform(0.0, 3.0, low), np.full(tie, 3.0),
                               3.0 + rng.exponential(5.0, n - low - tie)])
        rounded = np.round(rng.exponential(3.0, n))
        bodies = [rng.exponential(50.0, n), rounded, tied, np.zeros(n)]
        for body in bodies:
            rng.shuffle(body)
            ordered = np.sort(body)
            expected = queuesim._quantile_thresholds(ordered, frames)
            thresholds, probs = queuesim._read_tail(body, frames)
            if expected.size:
                idx = np.searchsorted(ordered, expected, side="left")
                assert np.array_equal(thresholds.view(np.int64), expected.view(np.int64))
                assert np.array_equal(probs, (n - idx) / n)
            else:
                assert np.all(probs == 0.0)
        for body in (tied, rounded):
            # the tie the partition has to count across: a threshold at body[k]
            thresholds = queuesim._read_tail(body, frames)[0]
            assert body[k] in thresholds
            assert np.count_nonzero(body[:k] == body[k]) > 0


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
