"""Effective secure throughput of block-fading wiretap channels under QoS constraints.

Solvers for the optimal transmit-power policies with full and main-channel-only
CSI, for every QoS exponent theta >= 0 (theta = 0 is the unconstrained
mean-secrecy-rate benchmark), and a queue-tail Monte Carlo validator of the
QoS-exponent semantics. See the CLI (`secthru`) for sweep and validation runs.
"""

from .ergodic import ergodic_power_full
from .full_csi import (
    build_policy_full,
    calibrate_lambda_full,
    kkt_lhs_full,
    mean_power_full,
    pointwise_power,
    policy_surface_full,
    power_grid,
    throughput_full,
)
from .main_csi import (
    alpha_threshold,
    build_policy_main,
    calibrate_lambda_main,
    kkt_lhs_main,
    mean_power_main,
    power_main,
    throughput_main,
)
from .model import (
    FadingLaw,
    LinkBudget,
    PowerPolicy,
    QosSpec,
    ThroughputResult,
    ValidationError,
    make_qos,
    sample_gain,
)
from .numerics import (
    DEFAULT_TOL,
    BracketError,
    NumericsError,
    QuadratureError,
    QuadResult,
    Tolerances,
    expand_bracket,
    find_root,
    integrate,
    integrate_density,
)
from .queuesim import (
    InstabilityWarning,
    TailHistogram,
    estimate_decay,
    lindley_queue,
    simulate_queue,
)

__all__ = [
    "BracketError",
    "DEFAULT_TOL",
    "FadingLaw",
    "InstabilityWarning",
    "LinkBudget",
    "NumericsError",
    "PowerPolicy",
    "QosSpec",
    "QuadratureError",
    "QuadResult",
    "TailHistogram",
    "ThroughputResult",
    "Tolerances",
    "ValidationError",
    "alpha_threshold",
    "build_policy_full",
    "build_policy_main",
    "calibrate_lambda_full",
    "calibrate_lambda_main",
    "ergodic_power_full",
    "estimate_decay",
    "expand_bracket",
    "find_root",
    "integrate",
    "integrate_density",
    "kkt_lhs_full",
    "kkt_lhs_main",
    "lindley_queue",
    "make_qos",
    "mean_power_full",
    "mean_power_main",
    "pointwise_power",
    "policy_surface_full",
    "power_grid",
    "power_main",
    "sample_gain",
    "simulate_queue",
    "throughput_full",
    "throughput_main",
]

__version__ = "0.1.0"
