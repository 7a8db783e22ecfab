"""The realistic stress box of tools/stress_box.py, solved row by row as the
tool solves it: every row must solve, spend its budget, order as the paper's
curves do, and meet its quadrature error estimate.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from secthru import full_csi, main_csi
from secthru.model import FadingLaw, LinkBudget, make_qos
from secthru.numerics import DEFAULT_TOL, _MAX_PANELS

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def tool():
    sys.path.insert(0, str(TOOLS))  # stress_box imports calibration_counts beside it
    try:
        spec = importlib.util.spec_from_file_location("stress_box", TOOLS / "stress_box.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    assert len(module.BOX) == 32
    return module


@pytest.fixture(scope="module")
def box(tool):
    """{(mode, theta, snr_db, gamma, mean_e): the tool's record of that row}."""
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


def test_refined_mean_power_meets_its_error_estimate(tool, box):
    # the refinement starts at 4 panels and accepts 8 where they agree; the
    # reference is a rule at least one rung finer than the accepted one: the
    # 32-panel rule (within 1.5e-12 of the 64-panel one on every row, at a
    # quarter of its cost), or the 64-panel rule past 16 panels
    for (mode, theta, snr_db, gamma, mean_e), row in box.items():
        link = LinkBudget(avg_snr=10.0 ** (snr_db / 10.0), gamma=gamma)
        mean_power = getattr({"full": full_csi, "main": main_csi}[mode], f"mean_power_{mode}")
        args = (row["nu"], make_qos(theta).beta, link, FadingLaw(), FadingLaw(mean_gain=mean_e),
                DEFAULT_TOL)
        with tool.counted_panels() as panels:
            value = mean_power(*args)
        (accepted,) = panels["calibration"]
        reference = mean_power(*args, min(max(2 * accepted, 32), _MAX_PANELS))
        floor = max(link.avg_snr, 1e-6)  # the mean power's own floor
        assert abs(value - reference) <= DEFAULT_TOL.quad_rel_tol * max(abs(value), floor), \
            (mode, theta, snr_db, gamma, mean_e, accepted)
