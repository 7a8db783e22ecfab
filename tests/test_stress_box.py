"""The realistic stress box of tools/stress_box.py, solved row by row as the
tool solves it: every row must solve, spend its budget, and order as the
paper's curves do.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def box():
    """{(mode, theta, snr_db, gamma, mean_e): the tool's record of that row}."""
    sys.path.insert(0, str(TOOLS))  # stress_box imports calibration_counts beside it
    try:
        spec = importlib.util.spec_from_file_location("stress_box", TOOLS / "stress_box.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
    finally:
        sys.path.remove(str(TOOLS))
    assert len(tool.BOX) == 32
    return {config: tool.solve_row(*config) for config in tool.BOX}


def test_every_row_solves_and_spends_its_budget(box):
    for config, row in box.items():
        assert row["ok"], (config, row["error"])
        assert row["residual_rel"] <= 1e-4, config
        assert row["rung_evals"]["refined"] <= 2, config


def test_full_csi_dominates_main_csi(box):
    for (mode, *point), row in box.items():
        if mode == "full":
            assert row["throughput"] >= box[("main", *point)]["throughput"] - 1e-6, point


def test_throughput_falls_in_theta_and_rises_in_snr(box):
    (theta_lo, theta_hi), (snr_lo, snr_hi) = (sorted({c[k] for c in box}) for k in (1, 2))
    for (mode, theta, snr_db, gamma, mean_e), row in box.items():
        if theta == theta_lo:
            tighter = box[(mode, theta_hi, snr_db, gamma, mean_e)]["throughput"]
            assert tighter < row["throughput"], (mode, snr_db, gamma, mean_e)
        if snr_db == snr_lo:
            louder = box[(mode, theta, snr_hi, gamma, mean_e)]["throughput"]
            assert louder > row["throughput"], (mode, theta, gamma, mean_e)
