"""Closed-form full-CSI power of the unconstrained (beta = 0) problem.

With no buffer constraint the per-state first-order condition

    (z_m - gamma*z_e) / ((1 + mu*z_m)(1 + gamma*mu*z_e)) = lambda_nats

is a quadratic in mu, so full_csi.power_grid takes this root instead of the
lane kernel at beta = 0. The multiplier carries nats per unit power.
"""

import numpy as np

from .model import ValidationError


def ergodic_power_full(z_m, z_e, gamma: float, lambda_nats: float) -> np.ndarray:
    """Closed-form optimal power: positive root of the first-order quadratic.

    Zero when z_m - gamma*z_e <= lambda_nats (the rate slope at mu=0 cannot
    pay for the power). z_e = 0 degenerates to water-filling
    mu = 1/lambda_nats - 1/z_m.
    """
    if not lambda_nats > 0:
        raise ValidationError("lambda_nats must be positive")
    z_m, z_e = np.broadcast_arrays(np.asarray(z_m, dtype=float), np.asarray(z_e, dtype=float))
    diff = z_m - gamma * z_e
    active = diff > lambda_nats
    with np.errstate(divide="ignore", invalid="ignore"):  # lambda_nats = inf: all silent
        a = gamma * z_m * z_e * lambda_nats
        b = lambda_nats * (z_m + gamma * z_e)
        c = lambda_nats - diff
        disc = np.clip(b * b - 4.0 * a * c, 0.0, None)
        quad = (-b + np.sqrt(disc)) / (2.0 * a)
        lin = -c / b
        mu = np.where(a > 0.0, quad, lin)
    return np.where(active, mu, 0.0)
