"""Shared domain types: fading laws, QoS exponents, link budgets, policies, results."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

LN2 = math.log(2.0)


class ValidationError(ValueError):
    """A constructor or operation argument violated its documented domain."""


SERIES_BELOW = 4e-3  # here the series misses by < 5e-16 relative, x + expm1(-x) by 2*eps/x


def excess_series(x):
    """x - 1 + e^-x by its Taylor series, at a float or an array in [0, SERIES_BELOW]."""
    return x * x * (0.5 - x * (1 / 6 - x * (1 / 24 - x * (1 / 120 - x / 720))))


@dataclass(frozen=True)
class FadingLaw:
    """Marginal law of a channel power gain z = |h|^2 under Rayleigh fading.

    The power gain is exponential with mean `mean_gain`. Every method accepts
    ndarray input.
    """

    mean_gain: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mean_gain) and self.mean_gain > 0):
            raise ValidationError("mean_gain must be positive and finite")

    def density(self, z):
        z = np.asarray(z, dtype=float)
        out = np.exp(-np.clip(z, 0.0, None) / self.mean_gain) / self.mean_gain
        return np.where(z < 0.0, 0.0, out)

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z < 0.0, 0.0, -np.expm1(-np.clip(z, 0.0, None) / self.mean_gain))

    def integrated_cdf(self, a):
        """Int_0^a cdf(t) dt = m*(x - 1 + e^-x) with x = a/m (0 for a <= 0), to
        1e-13 relative at every x: below x = SERIES_BELOW, where x + expm1(-x)
        cancels, from its Taylor series (excess_series).
        """
        x = np.clip(np.asarray(a, dtype=float), 0.0, None) / self.mean_gain
        series = excess_series(np.minimum(x, SERIES_BELOW))
        return self.mean_gain * np.where(x < SERIES_BELOW, series, x + np.expm1(-x))

    def tail_cutoff(self, mass: float) -> float:
        """Smallest Z with P(z > Z) <= mass; quadratures truncate here."""
        if not 0.0 < mass < 1.0:
            raise ValidationError("tail mass must lie in (0, 1)")
        return -self.mean_gain * math.log(mass)

    def sample(self, rng: "np.random.Generator", n: int) -> np.ndarray:
        return rng.exponential(self.mean_gain, size=n)


@dataclass(frozen=True)
class QosSpec:
    """Buffer-decay exponent theta plus the frame/bandwidth normalization.

    beta = theta * frame_t * bandwidth_b / ln 2 is the composite exponent the
    throughput integrands raise the SNR ratio to. theta == 0 (hence beta == 0)
    is the unconstrained problem: the same solvers then maximize the mean
    secrecy rate E{log2 r}, the theta -> 0 limit of the effective throughput.
    """

    theta: float
    frame_t: float
    bandwidth_b: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise ValidationError("theta must be nonnegative and finite")
        if not (math.isfinite(self.frame_t) and self.frame_t > 0):
            raise ValidationError("frame_t must be positive and finite")
        if not (math.isfinite(self.bandwidth_b) and self.bandwidth_b > 0):
            raise ValidationError("bandwidth_b must be positive and finite")
        if not math.isfinite(self.beta):  # theta * frame_t * bandwidth_b can overflow
            raise ValidationError("beta must be finite")

    @property
    def beta(self) -> float:
        return self.theta * self.frame_t * self.bandwidth_b / LN2


def make_qos(theta: float, frame_t: float = 2e-3, bandwidth_b: float = 1e5) -> QosSpec:
    """Build a QosSpec from floats; its beta is theta*T*B/ln2."""
    return QosSpec(theta=float(theta), frame_t=float(frame_t), bandwidth_b=float(bandwidth_b))


@dataclass(frozen=True)
class LinkBudget:
    """Average transmit-SNR budget and the noise-power ratio of the two links.

    gamma = N1/N2 scales the eavesdropper's received SNR: when the intended
    receiver sees transmit SNR mu, the eavesdropper sees gamma * mu.
    """

    avg_snr: float
    gamma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.avg_snr) and self.avg_snr >= 0):
            raise ValidationError("avg_snr must be nonnegative and finite")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValidationError("gamma must be positive and finite")


@dataclass(frozen=True, eq=False)
class PowerPolicy:
    """The state -> transmit-SNR map queue simulation evaluates, as
    Solution.policy() builds it; lam, beta and threshold stay on the Solution.

    csi_mode 'full': state_power(z_m, z_e), zero exactly on
    z_m - gamma*z_e <= threshold. csi_mode 'main': state_power(z_m), zero
    exactly on z_m <= threshold. Wherever the map is an interpolation table it
    is within 1e-4*max(1, mu) of the exact map (full_csi.power_grid at full CSI).
    """

    csi_mode: str
    state_power: Callable[..., np.ndarray]

    def __post_init__(self):
        if self.csi_mode not in ("full", "main"):
            raise ValidationError("csi_mode must be 'full' or 'main'")


def lam_from_nu(beta: float, nu: float) -> float:
    """The multiplier lam = beta*nu, or at beta = 0 the rate multiplier nu itself."""
    return beta * nu if beta > 0.0 else nu


@dataclass(frozen=True, eq=False)
class Solution:
    """One calibrated configuration: its multiplier, throughput and policy.

    nu is the normalized multiplier lam/beta (the rate multiplier at beta = 0,
    math.inf for the all-zero policy of a zero budget) and threshold the
    policy's zero-power boundary: nu for csi_mode 'full', the cutoff gain
    alpha for 'main'. The throughput, its quadrature error and the budget's
    power_residual were read out in the solve, and panels is the panel count
    per axis at which the readout's refinement stopped (0 where the policy
    never transmits). The Solution is the one record of these facts.
    build_state_power(panels) builds the power map that policy() packages
    with csi_mode as the PowerPolicy queue simulation evaluates: in both modes
    a simulation table, built only by a policy() call. For main CSI it is
    solved on that many inner panels; for full CSI it is
    full_csi.full_policy_table at every beta. The exact full-CSI map is
    full_csi.power_grid at lam.
    """

    csi_mode: str
    beta: float
    nu: float
    threshold: float
    throughput_bits_s_hz: float
    power_residual: float
    quad_error: float
    panels: int
    build_state_power: Callable[[int], Callable[..., np.ndarray]]

    def __post_init__(self):
        if self.throughput_bits_s_hz < 0:
            raise ValidationError("throughput must be nonnegative")

    @property
    def lam(self) -> float:
        return lam_from_nu(self.beta, self.nu)

    def policy(self) -> PowerPolicy:
        return PowerPolicy(self.csi_mode, self.build_state_power(self.panels))
