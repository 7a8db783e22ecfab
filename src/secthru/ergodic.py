"""The closed-form full-CSI power at beta = 0, which the lane kernel writes.

With no buffer constraint a one-term lane of _region.power_lanes,
coef (1 + p)^-1 (1 + s*p)^-1 = nu with p = mu*z_m and s = gamma*z_e/z_m, is
the quadratic s*p^2 + (1 + s)*p - q = 0 with q = coef/nu - 1.
"""

import numpy as np


def ergodic_lane_power(big_l, s) -> np.ndarray:
    """p of one-term beta = 0 lanes with L = ln(coef/nu) and ratio s: the root
    2q / ((1+s) + sqrt((1+s)^2 + 4*s*q)), q = expm1(L), which does not cancel
    as s*q -> 0 and is water-filling p = q at s = 0. It is computed halved,
    q / (h + sqrt(h^2 + s*q)) with h = (1+s)/2, bitwise the same root, so the
    sum under the root stays finite while q does.
    """
    q = np.expm1(big_l)
    h = 0.5 + 0.5 * s
    return q / (h + np.sqrt(h * h + s * q))
