"""Shared domain types: fading laws, QoS exponents, link budgets, policies, results."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

LN2 = math.log(2.0)


class ValidationError(ValueError):
    """A constructor or operation argument violated its documented domain."""


@dataclass(frozen=True)
class FadingLaw:
    """Marginal law of a channel power gain z = |h|^2.

    The built-in family 'exponential' models Rayleigh amplitude fading: the
    power gain is exponential with mean `mean_gain`. New families extend the
    dispatch in the methods below; every method must accept ndarray input.
    A new family implements density, cdf, integrated_cdf (the main-CSI
    cutoff gain is read from it, so it must be accurate to ~1e-12 relative
    down to arguments near 0), tail_cutoff, mean and sample.
    """

    family: str = "exponential"
    mean_gain: float = 1.0

    def __post_init__(self):
        if not isinstance(self.family, str):
            raise ValidationError(f"fading family must be a name, got {self.family!r}; "
                                  "pass the mean as FadingLaw(mean_gain=...)")
        if self.family != "exponential":
            raise ValidationError(f"unknown fading family: {self.family!r}")
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
        """Int_0^a cdf(t) dt = m*(x - 1 + e^-x) with x = a/m (0 for a <= 0).

        x + expm1(-x) cancels as x -> 0, losing about 2*eps/x relative, so
        below x = 1e-3 a Taylor series in x is used instead: the relative
        error stays below 5e-13 at every x.
        """
        x = np.clip(np.asarray(a, dtype=float), 0.0, None) / self.mean_gain
        s = np.minimum(x, 1e-3)
        series = s * s * (0.5 - s * (1 / 6 - s * (1 / 24 - s * (1 / 120 - s / 720))))
        return self.mean_gain * np.where(x < 1e-3, series, x + np.expm1(-x))

    def tail_cutoff(self, mass: float) -> float:
        """Smallest Z with P(z > Z) <= mass; quadratures truncate here."""
        if not 0.0 < mass < 1.0:
            raise ValidationError("tail mass must lie in (0, 1)")
        return -self.mean_gain * math.log(mass)

    def mean(self) -> float:
        return self.mean_gain

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self.mean_gain, size=n)


def sample_gain(law: FadingLaw, seed: int, n: int) -> np.ndarray:
    """Draw n i.i.d. gains; deterministic for a fixed seed."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return law.sample(np.random.default_rng(int(seed)), int(n))


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
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise ValidationError("theta must be nonnegative and finite")
        if not (math.isfinite(self.frame_t) and self.frame_t > 0):
            raise ValidationError("frame_t must be positive and finite")
        if not (math.isfinite(self.bandwidth_b) and self.bandwidth_b > 0):
            raise ValidationError("bandwidth_b must be positive and finite")
        expected = self.theta * self.frame_t * self.bandwidth_b / LN2
        if abs(self.beta - expected) > 1e-12 * max(1.0, expected):
            raise ValidationError("beta must equal theta * frame_t * bandwidth_b / ln 2")


def make_qos(theta: float, frame_t: float = 2e-3, bandwidth_b: float = 1e5) -> QosSpec:
    """Build a QosSpec with the derived exponent beta = theta*T*B/ln2."""
    if not (math.isfinite(theta) and theta >= 0):
        raise ValidationError("theta must be nonnegative and finite")
    if frame_t <= 0 or bandwidth_b <= 0:
        raise ValidationError("frame_t and bandwidth_b must be positive")
    return QosSpec(
        theta=float(theta),
        frame_t=float(frame_t),
        bandwidth_b=float(bandwidth_b),
        beta=float(theta) * float(frame_t) * float(bandwidth_b) / LN2,
    )


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
    """Calibrated state -> transmit-SNR map.

    csi_mode 'full': state_power(z_m, z_e), zero exactly on
    z_m - gamma*z_e <= threshold. csi_mode 'main': state_power(z_m), zero
    exactly on z_m <= threshold. `lam` is the calibrated average-power
    multiplier (math.inf for the degenerate all-zero policy) and `beta` the
    QoS exponent it was solved under (0 for the unconstrained policy).
    """

    csi_mode: str
    lam: float
    beta: float
    threshold: float
    state_power: Callable[..., np.ndarray]

    def __post_init__(self):
        if self.csi_mode not in ("full", "main"):
            raise ValidationError("csi_mode must be 'full' or 'main'")


@dataclass(frozen=True)
class ThroughputResult:
    """Effective secure throughput with solver diagnostics."""

    throughput_bits_s_hz: float
    throughput_bits_s: float
    lam: float
    power_residual: float
    quad_error: float
    theta: float

    def __post_init__(self):
        if self.throughput_bits_s_hz < 0 or self.throughput_bits_s < 0:
            raise ValidationError("throughput must be nonnegative")
