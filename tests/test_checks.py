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
