"""The lane kernel's bookkeeping: a lane's power does not depend on the other
lanes of its call, whether the block drops its done lanes at once (2-D
coefficients) or keeps stepping them until half of the block is done (1-D),
a capped solve's best estimate keeps the lanes that finished in time, the
full-CSI powers are bitwise those of the mask-based kernel, and the powers
of both modes match pinned digests.
"""

import hashlib
import re

import numpy as np
import pytest

from secthru import FadingLaw, NumericsError, Tolerances, _region
from secthru._region import power_lanes
from secthru.full_csi import power_grid
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


PINNED_BETAS = (0.29, 2.9, 28.9, 288.5)
PINNED_NUS = (1e-3, 0.1, 3.0)
# sha256 of the pinned grids' powers, recorded from the mask-based kernel, and
# of the elementwise functions they are built from on the machine that
# recorded it (numpy 2.4 with AVX-512 on x86-64)
PINNED_DIGEST = "6b631647c7e223988266b9877a7cc2028bfa4278839c7c1aaa8cb2d8191f9da8"
PINNED_ELEMENTWISE = "6fea2cd9630a5e6eaadd860b846045d4608a22f7315bf071b407dba287470add"


def pinned_states():
    """4,096 seeded full-CSI states, each gain's mean between -10 and 30 dB."""
    rng = np.random.default_rng(20)
    return rng.exponential(1.0, (2, 4096)) * 10.0 ** rng.uniform(-1.0, 3.0, (2, 4096))


def elementwise_digest(exp=False):
    """sha256 of np.log, np.log1p and np.expm1 at fixed arguments, and with
    exp of np.exp too."""
    u = np.random.default_rng(0).uniform(0.0, 1.0, 4096)
    digest = hashlib.sha256()
    for values in (np.log(u * 1e3), np.log1p(u * 50.0), np.expm1(u * 40.0 - 20.0)):
        digest.update(values.tobytes())
    if exp:
        digest.update(np.exp(u * 80.0 - 60.0).tobytes())
    return digest.hexdigest()


def masked_power_grid(z_m, z_e, gamma, beta, lam):
    """power_grid's powers as the mask-based kernel computed them, in one block
    that never compacts: boolean gathers and scatters, the set-up through the
    log-gain at p = 0, and masked copies for the bracket."""
    nu = lam / beta
    coef = z_m - gamma * z_e
    active = coef > nu
    z, c, s = z_m[active], np.log(coef[active] / nu), gamma * z_e[active] / z_m[active]

    def log_gain(p):
        q = s * p
        if beta >= 1.0:
            t = (1.0 - s) / (1.0 + q)
            e, k = -(beta - 1.0) * np.log1p(t * p), -(beta - 1.0) * t
        else:
            e, k = (beta - 1.0) * np.log1p(q), (beta - 1.0) * s * (1.0 + p) / (1.0 + q)
        return c + e, k

    b = min(2.0, beta + 1.0)
    big_l, k = log_gain(np.zeros(z.size))
    lo, hi = big_l / max(2.0, beta + 1.0), big_l / b
    x = np.clip(big_l / (b - k), lo, hi)
    p = np.expm1(x)
    mu_x, mu = p / z, np.zeros(z.size)
    done = ~(big_l > 0.0)
    for _ in range(TOL.max_iter):
        g, dg = log_gain(p)
        bx = b * x
        step = (g - bx) / (b - dg)
        above = g > bx
        np.copyto(lo, x, where=above)
        np.copyto(hi, x, where=~above)
        x += step
        outside = (x < lo) | (x > hi)
        x[outside] = 0.5 * (lo[outside] + hi[outside])
        p = np.expm1(x)
        mu_new = p / z
        new = ((np.abs(mu_new - mu_x) <= TOL.root_tol * np.maximum(1.0, mu_new))
               | (x == lo) | (x == hi)) & ~done
        mu_x = mu_new
        mu[new] = mu_x[new]
        done |= new
        if done.all():
            break
    assert done.all()
    out = np.zeros(z_m.shape)
    out[active] = mu
    return out


def test_power_grid_is_bitwise_the_masked_kernel():
    zm, ze = pinned_states()
    for beta in PINNED_BETAS:
        for nu in PINNED_NUS:
            mu = power_grid(zm, ze, 1.0, beta, beta * nu)
            assert 0 < np.count_nonzero(mu) < mu.size
            ref = masked_power_grid(zm, ze, 1.0, beta, beta * nu)
            assert np.array_equal(bits(mu), bits(ref)), (beta, nu)


def test_power_grid_bits_are_pinned():
    # the digest holds where np.log, np.log1p and np.expm1 round as on the
    # machine that recorded it; other builds and CPUs round some arguments
    # differently, which the masked-kernel test above allows for
    if elementwise_digest() != PINNED_ELEMENTWISE:
        pytest.skip("elementwise functions round unlike the recording machine's")
    zm, ze = pinned_states()
    digest = hashlib.sha256()
    for beta in PINNED_BETAS:
        for nu in PINNED_NUS:
            digest.update(power_grid(zm, ze, 1.0, beta, beta * nu).tobytes())
    assert digest.hexdigest() == PINNED_DIGEST


# sha256 of the main-CSI powers of main_pinned_gains on 16 inner panels at
# PINNED_BETAS and MAIN_PINNED_NUS, recorded from the kernel with the bit-pattern
# bracket update, and of the elementwise functions with np.exp, which the
# 2-D log gain and the exponential density add, on the same machine
MAIN_PINNED_NUS = (1e-3, 0.1)
MAIN_PINNED_DIGEST = "f00de224e210c3c3d05986ef3e0f5eb9be1ab834811ff35d149575ba00141952"
MAIN_PINNED_ELEMENTWISE = "7935421515fd343c39e128fb3aba8513aa2076ada74d52969fc8ec2bf948eefd"


def main_pinned_gains():
    """512 seeded main-channel gains, a few of them below each pinned cutoff."""
    return np.random.default_rng(21).exponential(3.0, 512)


def test_main_power_bits_are_pinned():
    # the 2-D lanes step through the same loop as power_grid's, with a row of
    # terms per lane and a compaction at every step that finishes one
    if elementwise_digest(exp=True) != MAIN_PINNED_ELEMENTWISE:
        pytest.skip("elementwise functions round unlike the recording machine's")
    zm = main_pinned_gains()
    digest = hashlib.sha256()
    for beta in PINNED_BETAS:
        for nu in MAIN_PINNED_NUS:
            mu = main_power(zm, 16, beta, nu, 1.0, FadingLaw(), TOL)[0]
            assert 0 < np.count_nonzero(mu) < mu.size, (beta, nu)
            digest.update(mu.tobytes())
    assert digest.hexdigest() == MAIN_PINNED_DIGEST


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
        if len(calls) == k + 1:  # steps 1 to k + 1; the 1-D set-up at p = 0 is closed-form
            g = np.where(c == mark, np.nan, g)
        return g, dg

    monkeypatch.setattr(_region, "_log_gain", failing)
    if late:
        assert np.array_equal(bits(power_lanes(zm, coef, ratio, beta, nu, TOL)), bits(exact))
        return
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="non-finite") as err:
        power_lanes(zm, coef, ratio, beta, nu, TOL)
    assert np.array_equal(bits(err.value.best), bits(capped))
