"""Effective secure throughput of block-fading wiretap channels under QoS constraints.

Solvers for the optimal transmit-power policies with full and main-channel-only
CSI, for every QoS exponent theta >= 0 (theta = 0 is the unconstrained
mean-secrecy-rate benchmark), and a queue-tail Monte Carlo validator of the
QoS-exponent semantics. See the CLI (`secthru`) for sweep and validation runs.
"""

from .full_csi import solve_full
from .main_csi import solve_main
from .model import (
    FadingLaw,
    LinkBudget,
    PowerPolicy,
    QosSpec,
    Solution,
    ValidationError,
    make_qos,
)
from .numerics import DEFAULT_TOL, BracketError, NumericsError, QuadratureError, Tolerances
from .queuesim import InstabilityWarning, TailHistogram, estimate_decay, simulate_queue

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
    "Solution",
    "TailHistogram",
    "Tolerances",
    "ValidationError",
    "estimate_decay",
    "make_qos",
    "simulate_queue",
    "solve_full",
    "solve_main",
]

__version__ = "0.1.0"
