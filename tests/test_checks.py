"""`secthru validate` and the acceptance suite run one list of checks."""

import math

import pytest
import test_acceptance
from secthru import checks, queuesim
from secthru.cli import RunConfig, main


def test_validate_prints_the_acceptance_checks_in_order(capsys, monkeypatch):
    monkeypatch.setattr(checks, "run", lambda name, cfg: (True, "stub", 0.0))
    assert main(["validate"]) == 0
    printed = [line.split()[1].rstrip(":") for line in capsys.readouterr().out.splitlines()]
    assert printed == list(test_acceptance.TESTS)
    assert {"oracle", "degenerate-limits"} <= set(printed)


def test_queue_decay_without_a_tail_fails_instead_of_raising():
    # at a zero budget the service is zero, the queue only grows and its tail
    # has too few usable thresholds for a decay fit
    cfg = RunConfig(theta=(0.01, 0.02), snr_db=(-math.inf,), frames=100_000,
                    quad_rel_tol=1e-4, root_tol=1e-8)
    with pytest.warns(queuesim.InstabilityWarning):
        ok, detail, _ = checks.run("queue-decay", cfg)
    assert ok is False
    assert detail.startswith("no decay estimate: insufficient tail mass")


ZERO_BUDGET_LAST = RunConfig(theta=(0.01, 0.02), snr_db=(0.0, -math.inf), frames=100_000,
                             quad_rel_tol=1e-4, root_tol=1e-8)


def test_ordering_passes_with_a_zero_budget_among_the_snrs():
    # at -inf dB every rate and CSI gap is 0, so no gap can shrink there
    ok, detail, _ = checks.run("ordering", ZERO_BUDGET_LAST)
    assert ok is True, detail


@pytest.mark.parametrize("main_at_02,expected", [(0.75, True), (0.5, False)])
def test_ordering_still_compares_gaps_strictly_at_a_positive_budget(monkeypatch, main_at_02,
                                                                    expected):
    # at 0 dB the full-CSI rates are 1.0 and 0.9; the gap 0.2 at theta 0.01
    # must exceed the gap at 0.02, 1 - 0.75/0.9 = 0.17 but 1 - 0.5/0.9 = 0.44
    rates = {("full", 0.01): 1.0, ("full", 0.02): 0.9,
             ("main", 0.01): 0.8, ("main", 0.02): main_at_02}

    def rate(cfg, mode, theta, snr_db):
        return 0.0 if snr_db == -math.inf else rates[mode, theta]

    monkeypatch.setattr(checks, "_rate", rate)
    ok, detail, _ = checks.run("ordering", ZERO_BUDGET_LAST)
    assert ok is expected, detail
