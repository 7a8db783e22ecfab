"""The lane kernel's bookkeeping: a lane's power does not depend on the other
lanes of its call, whether the block drops its done lanes at once (2-D
coefficients) or keeps stepping them until half of the block is done (1-D),
and a capped solve's best estimate keeps the lanes that finished in time.
"""

import re

import numpy as np
import pytest

from secthru import FadingLaw, NumericsError, Tolerances, _region
from secthru._region import power_lanes
from secthru.main_csi import main_power

TOL = Tolerances()


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("beta, nu", [(0.0, 1e-2), (0.29, 1e-2 / 0.29), (2.9, 1e-2 / 2.9),
                                      (288.5, 0.5 / 288.5)])
def test_main_power_lanes_are_independent(beta, nu):
    # 64 inner panels put 16 gains in a block, so 40 gains span three blocks;
    # the gains below the cutoff start each block with lanes already silent
    rng = np.random.default_rng(int(beta * 10) + 3)
    zm = np.concatenate([rng.exponential(3.0, 36), [1e-3, 2e-3, 5e-3, 20.0]])
    rng.shuffle(zm)
    law = FadingLaw()
    mu = main_power(zm, 64, beta, nu, 1.0, law, TOL)[0]
    single = [main_power(zm[i:i + 1], 64, beta, nu, 1.0, law, TOL)[0][0] for i in range(zm.size)]
    assert np.array_equal(bits(mu), bits(single))
    assert 0 < np.count_nonzero(mu) < zm.size


def one_term_lanes(rng, n, gamma, nu):
    """power_lanes arguments of n random full-CSI states, most of them active."""
    zm, ze = rng.exponential(1.0, (2, n))
    gze = gamma * ze
    return zm, np.maximum(zm - gze, 0.0), gze / zm


def capped_lanes(zm, coef, ratio, beta, nu, tol):
    """power_lanes(...) under tol, with its best estimate and the count of lanes
    its message names unconverged (0 when it returns)."""
    try:
        return power_lanes(zm, coef, ratio, beta, nu, tol), 0
    except NumericsError as exc:
        assert "not converged" in str(exc)
        return exc.best, int(re.search(r"(\d+) lanes not converged", str(exc)).group(1))


@pytest.mark.parametrize("beta, lam", [(0.29, 1e-4), (2.9, 1e-2), (28.9, 1e-2), (288.5, 0.5)])
def test_capped_best_keeps_the_lanes_that_finished(monkeypatch, beta, lam):
    # blocks of 256 lanes, so that 700 lanes span three of them; under each
    # step cap some lanes of a block finish before the cap and the rest do not
    block = 256
    monkeypatch.setattr(_region, "BLOCK_TERMS", block)
    nu = lam / beta
    zm, coef, ratio = one_term_lanes(np.random.default_rng(int(beta * 10)), 700, 0.3, nu)
    exact = power_lanes(zm, coef, ratio, beta, nu, TOL)
    finished_some = False
    for steps in range(1, 7):
        tol = Tolerances(max_iter=steps)
        best, unconverged = capped_lanes(zm, coef, ratio, beta, nu, tol)
        single = [capped_lanes(zm[i:i + 1], coef[i:i + 1], ratio[i:i + 1], beta, nu, tol)
                  for i in range(zm.size)]
        # the solve stops in the first block with an unconverged lane and
        # leaves NaN in the blocks after it
        stop = next((k for k in range(0, zm.size, block)
                     if any(n for _, n in single[k:k + block])), zm.size)
        end = min(stop + block, zm.size)
        assert np.isnan(best[end:]).all(), steps
        # each lane's estimate is its own capped solve's: the converged power for
        # a lane that finished, never overwritten by the steps after it
        assert np.array_equal(bits(best[:end]), bits([mu[0] for mu, _ in single[:end]])), steps
        assert unconverged == sum(n for _, n in single[:end]), steps
        converged = np.array([n == 0 for _, n in single[:end]])
        assert np.array_equal(bits(best[:end][converged]), bits(exact[:end][converged])), steps
        finished_some |= 0 < np.count_nonzero(converged & (exact[:end] > 0)) and unconverged > 0
    assert finished_some


@pytest.mark.parametrize("beta, lam", [(0.29, 1e-4), (2.9, 1e-2), (288.5, 0.5)])
@pytest.mark.parametrize("late", [False, True])
def test_non_finite_step_leaves_the_best_of_the_steps_before(monkeypatch, beta, lam, late):
    # one lane's log-gain turns NaN on step k + 1, where k is the first step
    # count after which some lanes are done and others are not. If that lane
    # is still stepping, the raise leaves each lane what a cap of k steps
    # leaves, the powers of the lanes done by then among them; if it is done,
    # the NaN is in a done lane's later step, which neither raises nor writes
    nu = lam / beta
    zm, coef, ratio = one_term_lanes(np.random.default_rng(int(beta * 10)), 300, 0.3, nu)
    exact = power_lanes(zm, coef, ratio, beta, nu, TOL)
    for k in range(1, TOL.max_iter):
        cap = Tolerances(max_iter=k)
        single = [capped_lanes(zm[i:i + 1], coef[i:i + 1], ratio[i:i + 1], beta, nu, cap)[1]
                  for i in range(zm.size)]
        done = [i for i in range(zm.size) if single[i] == 0 and exact[i] > 0]
        if done and any(single):
            break
    capped, _ = capped_lanes(zm, coef, ratio, beta, nu, cap)
    marker = done[0] if late else single.index(1)
    mark = np.log(coef[marker] / nu)
    calls, log_gain = [], _region._log_gain

    def failing(p, c, s, beta, nu):
        g, dg = log_gain(p, c, s, beta, nu)
        calls.append(1)
        if len(calls) == k + 2:  # the set-up at p = 0, then steps 1 to k + 1
            g = np.where(c == mark, np.nan, g)
        return g, dg

    monkeypatch.setattr(_region, "_log_gain", failing)
    if late:
        assert np.array_equal(bits(power_lanes(zm, coef, ratio, beta, nu, TOL)), bits(exact))
        return
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="non-finite") as err:
        power_lanes(zm, coef, ratio, beta, nu, TOL)
    assert np.array_equal(bits(err.value.best), bits(capped))
