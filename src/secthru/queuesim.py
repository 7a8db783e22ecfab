"""Monte Carlo buffer validation of the QoS-exponent semantics.

A constant-rate arrival stream feeds a buffer drained by the per-frame secure
service of a calibrated policy. When the arrival rate equals the effective
secure throughput solved for exponent theta, the stationary queue tail must
satisfy ln P(Q >= q) ~ -theta * q; the fitted slope of the simulated tail is
the check.

The run is cut into slices of _SLICE frames. Slice j draws its z_m and
then its z_e from a stream of its own, default_rng(SeedSequence(seed,
spawn_key=(j,))), which is SeedSequence(seed).spawn(n)[j], and writes its
service straight into its part of the queue array. The slices go to a
thread pool of up to _MAX_WORKERS threads, one per CPU the process may use
(one thread on one CPU). numpy releases the interpreter lock inside the
generator's draws and the ufuncs of the policies' table lookups and of
the power kernel, so the slices run in parallel, while the calling thread
takes the slices already served, in order: it adds each slice's service
to the run's sum, turns it into arrival minus service in place and runs
the Lindley recursion on it. The recursion carries its running sum and
minimum from slice to slice across the whole run, so no temporary of the
run's size is made. The output is a function of (seed, _SLICE) alone and
bitwise the same whatever the CPU count: each slice's draws come from its
own stream, each state's power and rate depend on that state alone, and
the caller's sums and recursion run in slice order. The tail's thresholds
are read by np.quantile's own linear rule from the body partitioned at its
0.8 quantile and sorted above it, so they are bitwise np.quantile's, and
their counts are those of a full sort.
"""

import math
import os
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import FadingLaw, LinkBudget, PowerPolicy, QosSpec, ValidationError

_N_THRESHOLDS = 20
_LOWEST_LEVEL = 0.80  # the tail's thresholds are quantiles from this level up
_MIN_FRAMES = 100_000
# frames per service slice: small enough that each thread's scratch arrays,
# which glibc keeps in a per-thread arena, add little to the peak RSS
_SLICE = 1 << 16
_MAX_WORKERS = 4


class InstabilityWarning(UserWarning):
    """Arrival rate at or above the mean service rate: tail estimates are meaningless."""


@dataclass(frozen=True)
class TailHistogram:
    """Empirical exceedance curve of the stationary queue length (bits)."""

    thresholds: np.ndarray
    exceedance_prob: np.ndarray
    frames: int
    seed: int
    arrival_per_frame: float

    def __post_init__(self):
        thr = np.asarray(self.thresholds, dtype=float)
        prob = np.asarray(self.exceedance_prob, dtype=float)
        if thr.size != prob.size:
            raise ValidationError("thresholds and exceedance_prob must align")
        if thr.size and not np.all(np.diff(thr) > 0):
            raise ValidationError("thresholds must be strictly ascending")
        if prob.size and (np.any(prob < 0) or np.any(prob > 1) or np.any(np.diff(prob) > 1e-12)):
            raise ValidationError("exceedance probabilities must lie in [0,1], non-increasing")


def lindley_queue(increments: np.ndarray, carry: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Queue lengths after each arrival-minus-service increment, from an empty queue.

    Uses the reflection identity Q[n] = max(S[n], S[n] - min_{j<=n} S[j])
    so the recursion vectorizes; exact for the per-frame Lindley dynamics.

    To run one recursion block by block, pass carry, a float array holding S
    and min S over the increments of the earlier blocks, updated in place;
    start it at [-0.0, inf], the sum and minimum of no increments (-0.0 + x
    is x bitwise, even for x = -0.0). The blocks' results are then bitwise
    those of one call on the concatenated increments. out, if given,
    receives the queue lengths and may be the increments array itself.
    """
    if out is None:
        out = np.array(increments, dtype=float)
    elif out is not increments:
        out[...] = increments
    if carry is not None:
        out[0] += carry[0]  # the addition one cumsum over all the blocks makes here
    s = np.cumsum(out, out=out)
    run_min = np.minimum.accumulate(s)
    if carry is not None:
        np.minimum(run_min, carry[1], out=run_min)
        carry[:] = s[-1], run_min[-1]
    np.subtract(s, run_min, out=run_min)
    return np.maximum(s, run_min, out=s)


def simulate_queue(
    policy: PowerPolicy,
    qos: QosSpec,
    link: LinkBudget,
    law_m: FadingLaw,
    law_e: FadingLaw,
    arrival_bits_per_frame: float,
    frames: int,
    seed: int,
) -> TailHistogram:
    """One seeded buffer run; thresholds at evenly spaced quantiles after burn-in.

    Service per frame is T*B times the positive part of the realized secrecy
    rate at i.i.d. gain draws, with power from the policy. The first 10% of
    frames are discarded as burn-in. Emits InstabilityWarning when the arrival
    rate reaches the empirical mean service rate.

    The gains are drawn, and the policy's state_power called, on worker
    threads, one slice of _SLICE frames at a time, each slice from its own
    stream of the seed (see the module docstring). So state_power must be
    thread-safe and give each state's power from that state alone. The
    result depends on the seed and _SLICE alone: it is bitwise the same on
    any number of CPUs. An exception raised by state_power surfaces here,
    once the slices not yet started are dropped and every worker has
    stopped. Besides the queue of all frames, a run holds only the draws and
    scratch of the slices in flight.
    """
    if frames < _MIN_FRAMES:
        raise ValidationError(f"frames must be >= {_MIN_FRAMES}")
    if arrival_bits_per_frame < 0:
        raise ValidationError("arrival must be nonnegative")

    bits_per_rate = qos.frame_t * qos.bandwidth_b
    queue = np.empty(frames)
    service_sum = 0.0
    carry = np.array([-0.0, np.inf])
    # imported here, not with the package: the sweeps never simulate a queue
    from concurrent.futures import ThreadPoolExecutor

    serve = partial(_service_slice, policy, law_m, law_e, link.gamma, bits_per_rate, int(seed),
                    queue)
    # map yields the slices in order and, on a slice's error, cancels the
    # slices not yet started; leaving the pool then waits for the rest
    with ThreadPoolExecutor(_worker_count()) as pool:
        for q in pool.map(serve, range(-(-frames // _SLICE))):
            service_sum += float(q.sum())
            np.subtract(arrival_bits_per_frame, q, out=q)
            lindley_queue(q, carry=carry, out=q)

    if arrival_bits_per_frame >= service_sum / frames:
        warnings.warn(
            "arrival rate is at or above the mean service rate; the queue is "
            "unstable and tail estimates are meaningless",
            InstabilityWarning,
        )

    thresholds, probs = _read_tail(queue[frames // 10:], frames)
    return TailHistogram(
        thresholds=thresholds,
        exceedance_prob=probs,
        frames=frames,
        seed=int(seed),
        arrival_per_frame=float(arrival_bits_per_frame),
    )


def _service_slice(policy: PowerPolicy, law_m: FadingLaw, law_e: FadingLaw, gamma: float,
                   bits_per_rate: float, seed: int, queue: np.ndarray, j: int) -> np.ndarray:
    """Draw slice j's states from its own stream, write their service into
    slice j of queue and return that slice."""
    service = queue[j * _SLICE:(j + 1) * _SLICE]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
    zm = law_m.sample(rng, service.size)
    ze = law_e.sample(rng, service.size)
    mu = policy.state_power(zm, ze) if policy.csi_mode == "full" else policy.state_power(zm)
    rate = np.log2(1.0 + mu * zm) - np.log2(1.0 + gamma * mu * ze)
    np.maximum(rate, 0.0, out=rate)
    return np.multiply(bits_per_rate, rate, out=service)


def _worker_count() -> int:
    """Threads for the service slices: the CPUs this process may use, capped."""
    if hasattr(os, "sched_getaffinity"):
        return min(_MAX_WORKERS, len(os.sched_getaffinity(0)))
    return min(_MAX_WORKERS, os.cpu_count() or 1)


def _read_tail(body: np.ndarray, frames: int):
    """The thresholds of the body's tail and the share of the body at or
    above each, reordering body in place.

    Every threshold is read at or above the order statistic k of the lowest
    level, _LOWEST_LEVEL, so body is partitioned at k and only body[k:] is
    sorted: the order statistics _quantile_thresholds reads are then in
    place, and the thresholds bitwise those of a full sort. So are the
    counts. The values below k are at most body[k], so they count only
    towards a threshold at or below body[k], a tie with the partition value;
    there those at or above the threshold are counted directly. With no
    positive threshold, the histogram is 20 zero-probability points on
    [1, 20].
    """
    k = int((body.size - 1) * _LOWEST_LEVEL)  # np.floor of _quantile_thresholds' first index
    body.partition(k)
    top = body[k:]
    top.sort()
    thresholds = _quantile_thresholds(body, frames)
    if thresholds.size == 0:
        return np.linspace(1.0, 20.0, _N_THRESHOLDS), np.zeros(_N_THRESHOLDS)
    idx = k + np.searchsorted(top, thresholds, side="left")  # values below each threshold
    for n in np.flatnonzero(idx == k):
        idx[n] -= np.count_nonzero(body[:k] >= thresholds[n])
    return thresholds, (body.size - idx) / body.size


def _quantile_thresholds(body: np.ndarray, frames: int) -> np.ndarray:
    """Distinct positive quantiles of the body at evenly spaced levels from
    the upper bulk into the resolvable tail; body must be sorted from its
    order statistic at _LOWEST_LEVEL up (_read_tail).

    They are read from body by np.quantile's default linear rule, operation
    for operation, so they are bitwise np.quantile(body, levels), without
    the partition of a copy that np.quantile makes: virtual index
    (n - 1)*level, its floor i and the next index, and the two values
    interpolated as a + d*t, or b - d*(1 - t) where t >= 0.5.
    """
    deepest = max(100.0 / frames, 2e-5)
    levels = np.linspace(_LOWEST_LEVEL, 1.0 - deepest, _N_THRESHOLDS)
    virtual = (body.size - 1) * levels
    below = np.floor(virtual)
    t = virtual - below
    i = np.minimum(below.astype(np.intp), body.size - 1)
    a, b = body[i], body[np.minimum(i + 1, body.size - 1)]
    d = b - a
    qs = a + d * t
    np.subtract(b, d * (1 - t), out=qs, where=t >= 0.5)
    qs = np.unique(qs)
    return qs[qs > 0.0]


def estimate_decay(hist: TailHistogram):
    """Least-squares decay slope of ln P(Q >= q) over the histogram's thresholds.

    Returns (theta_hat, std_error). Thresholds with fewer than 100 expected
    exceedance counts are dropped to avoid deep-tail noise; at least 5 usable
    points are required.
    """
    q = np.asarray(hist.thresholds, dtype=float)
    p = np.asarray(hist.exceedance_prob, dtype=float)
    keep = p * hist.frames > 100.0
    keep &= p < 1.0
    q = q[keep]
    p = p[keep]
    if q.size < 5:
        raise ValidationError("insufficient tail mass (need >= 5 usable thresholds)")

    y = np.log(p)
    qc = q - q.mean()
    sxx = float(qc @ qc)
    slope = float(qc @ (y - y.mean())) / sxx
    resid = (y - y.mean()) - slope * qc
    dof = max(1, q.size - 2)
    std_error = math.sqrt(float(resid @ resid) / dof / sxx)
    return -slope, std_error
