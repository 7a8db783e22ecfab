"""Acceptance gate: the release checks of secthru.checks at one configuration.

`secthru validate` runs the same checks on the user's configuration. Each test
here runs one check, asserts its wall-time bound where it has one, and prints
one PASS/FAIL line (run with -s to stream them).
"""

import math

from secthru import checks
from secthru.cli import RunConfig

# gamma 1, Exp(1) laws, T = 2 ms, B = 100 kHz, 10^7 frames and the 4,4,41
# surface grid are RunConfig's defaults
CONFIG = RunConfig(theta=(1e-3, 1e-2, 1e-1), snr_db=(0.0, -10.0, 10.0), seed=0)
TIME_BOUNDS_S = {"closed-form-beta1": 1.0, "oracle": 60.0, "queue-decay": 300.0}

# check -> test name, in the order validate runs the checks. One named test
# per check instead of a parametrize keeps the criteria's test IDs stable.
TESTS = {
    "kkt-residual-full": "test_kkt_residual_full",
    "closed-form-beta1": "test_criterion_1_closed_form_beta1",
    "kkt-residual-main": "test_kkt_residual_main",
    "oracle": "test_criterion_2_oracle_equivalence",
    "calibration": "test_criterion_3_calibration",
    "ordering": "test_criterion_4_ordering",
    "theta0-continuity": "test_criterion_5_theta_to_zero_continuity",
    "surface-structure": "test_criterion_6_power_surface_structure",
    "degenerate-limits": "test_criterion_8_degenerate_limits",
    "queue-decay": "test_criterion_7_queue_tail_decay",
}


def report(name: str, ok: bool, detail: str) -> None:
    # tee-sys capture (set in pyproject) streams this into the run log
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _acceptance_test(name):
    def test():
        ok, detail, seconds = checks.run(name, CONFIG)
        report(name, bool(ok) and seconds < TIME_BOUNDS_S.get(name, math.inf),
               f"{detail}, {seconds:.2f}s")
    return test


globals().update({test: _acceptance_test(name) for name, test in TESTS.items()})
