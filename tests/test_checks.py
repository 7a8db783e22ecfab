"""`secthru validate` and the acceptance suite run one list of checks."""

import test_acceptance
from secthru import checks
from secthru.cli import main


def test_validate_prints_the_acceptance_checks_in_order(capsys, monkeypatch):
    monkeypatch.setattr(checks, "run", lambda name, cfg: (True, "stub", 0.0))
    assert main(["validate"]) == 0
    printed = [line.split()[1].rstrip(":") for line in capsys.readouterr().out.splitlines()]
    assert printed == list(test_acceptance.TESTS)
    assert {"oracle", "degenerate-limits"} <= set(printed)
