"""Mean-power evaluations per calibration and lane-kernel work per row, for BENCH_calibration.json.

Each calibration is the one full_csi.solve_full or main_csi.solve_main runs:
the solve is called with its module's mean_power_full or mean_power_main
wrapped, and the wrapper keys each evaluation by its panels argument: a
coarse evaluation on one rung of the calibration ladder
(_region.CALIBRATION_RUNGS), keyed by its panels per axis, or a refined one
(panels None), keyed "refined". Per calibration it records the evaluations
on each rung ("rung_evals"); "coarse_evals" sums the coarse rungs and
"evals" all of them. For each set it totals those counts and takes their
maxima, per rung too ("total_2_evals", "max_refined_evals", ...). Two sets
of calibrations are counted:

- bench: the 12 calibrations of the sweep-full and sweep-main benchmark
  workloads (their sweep rows and policy surfaces);
- acceptance: the 18-row acceptance grid, theta {1e-3, 1e-2, 1e-1} x SNR
  {-10, 0, 10} dB in both CSI modes.

Under "lanes" it counts the work of the power-lane kernel for each bench
row: the calls of _region.power_lanes and their terms (the size of the coef
argument: one per full-CSI state, inner nodes times gains for main CSI) in
full_csi.solve_full or main_csi.solve_main, split into the calibration and
the throughput readout (_region.throughput_readout). The kernel is wrapped
at both of its call sites (full_csi for power_grid, main_csi for
main_power) for the length of each row only. Every row must count
calibration terms: a row that counts none raises, since the kernel then has
a call site the wrap misses. Counts depend only on the code and the default
Tolerances, not on the machine; each row also lists its probes on each rung
as [ln(nu), mean power] under "probes", unrounded so that the gaps between
the rungs' roots can be read from the file. (Labels up to
"after-refine-from-4" store ln(nu) rounded to 4 decimals.)

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/calibration_counts.py --label after

The counts are stored under the label in the output file, next to the other
labels already there, so the file can hold a before/after pair.
"""

import argparse
import json
import math
import platform
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

from secthru import _region, full_csi, main_csi, numerics
from secthru.model import FadingLaw, LinkBudget, make_qos

# (mode, theta, snr_db, gamma) of every calibration in the two sweep workloads
BENCH = (
    [("full", 0.1, -10.0, 1.0), ("full", 0.1, 0.0, 1.0)]
    + [("full", t, 0.0, 1.0) for t in (0.0, 0.01)]  # the policy surfaces
    + [("main", t, db, 1.0) for t in (0.0, 0.01, 0.1) for db in (-10.0, 10.0)]
    + [("main", 0.01, db, 2.0) for db in (0.0, 10.0)]
)
ACCEPTANCE = [(mode, t, db, 1.0) for mode in ("full", "main")
              for t in (1e-3, 1e-2, 1e-1) for db in (-10.0, 0.0, 10.0)]
SOLVER = {"full": full_csi, "main": main_csi}


def key(mode, theta, snr_db, gamma):
    return f"{mode}|theta={theta!r}|snr_db={snr_db!r}|gamma={gamma!r}"


def solve(mode, theta, link, tol, law_e=FadingLaw()):
    """solve_full or solve_main of one configuration, with an Exp(1) main law."""
    return getattr(SOLVER[mode], f"solve_{mode}")(make_qos(theta), link, FadingLaw(), law_e, tol)


def rung_order(rungs):
    """Rung names ascending in panels, "refined" last."""
    return sorted(rungs, key=lambda r: math.inf if r == "refined" else int(r))


@contextmanager
def counted_mean_power(mode):
    """Wrap the mode's mean power for the block; yields the dict it fills,
    rung name -> [(ln(nu), mean power)] of each evaluation, in order.
    """
    module, name = SOLVER[mode], f"mean_power_{mode}"
    mean_power = getattr(module, name)
    probes = {"refined": []}

    def counted(nu, *args):
        value = mean_power(nu, *args)
        rung = "refined" if args[5] is None else str(args[5])  # args[5] is panels
        probes.setdefault(rung, []).append((math.log(nu), value))
        return value

    with mock.patch.object(module, name, counted):
        yield probes


def rung_evals(probes):
    """Evaluations per rung of the probes counted_mean_power filled."""
    return {rung: len(probes[rung]) for rung in rung_order(probes)}


def count_calibration(mode, theta, snr_db, gamma, tol=numerics.DEFAULT_TOL):
    """Solve one configuration; returns its calibration record with the evaluation counts."""
    link = LinkBudget(avg_snr=10.0 ** (snr_db / 10.0), gamma=gamma)
    with counted_mean_power(mode) as probes:
        sol = solve(mode, theta, link, tol)
    evals = rung_evals(probes)
    return {
        "evals": sum(evals.values()),
        "coarse_evals": sum(evals.values()) - evals["refined"],
        "refined_evals": evals["refined"],
        "rung_evals": evals,
        "nu": sol.nu,
        "residual_rel": sol.power_residual / link.avg_snr,
        "probes": {rung: [[u, p] for u, p in probes[rung]] for rung in evals},
    }


def count_set(configs):
    rows = {key(*c): count_calibration(*c) for c in configs}
    out = {}
    for name in ("evals", "coarse_evals"):  # refined_evals is a rung's below
        counts = [r[name] for r in rows.values()]
        out[f"total_{name}"], out[f"max_{name}"] = sum(counts), max(counts)
    for rung in rung_order({rung for r in rows.values() for rung in r["rung_evals"]}):
        counts = [r["rung_evals"].get(rung, 0) for r in rows.values()]
        out[f"total_{rung}_evals"], out[f"max_{rung}_evals"] = sum(counts), max(counts)
    return {**out, "rows": rows}


@contextmanager
def solve_stage():
    """Wrap the throughput readout (_region.throughput_readout) for the block;
    yields a one-item list naming the stage of the solve under way:
    "calibration", then "readout" from the readout's start.
    """
    stage = ["calibration"]
    readout = _region.throughput_readout

    def staged_readout(*args):
        stage[0] = "readout"
        return readout(*args)

    with mock.patch.object(_region, "throughput_readout", staged_readout):
        yield stage


def count_lanes(mode, theta, snr_db, gamma, tol=numerics.DEFAULT_TOL):
    """power_lanes calls and terms of one solved row, by stage."""
    link = LinkBudget(avg_snr=10.0 ** (snr_db / 10.0), gamma=gamma)
    counts = {f"{stage}_{what}": 0 for stage in ("calibration", "readout")
              for what in ("calls", "terms")}
    lanes = _region.power_lanes

    with solve_stage() as stage:
        def counted_lanes(z_m, coef, *args):
            counts[f"{stage[0]}_calls"] += 1
            counts[f"{stage[0]}_terms"] += int(np.size(coef))
            return lanes(z_m, coef, *args)

        with mock.patch.object(full_csi, "power_lanes", counted_lanes), \
                mock.patch.object(main_csi, "power_lanes", counted_lanes):
            solve(mode, theta, link, tol)
    if counts["calibration_terms"] == 0:
        raise RuntimeError(f"{key(mode, theta, snr_db, gamma)}: no power_lanes terms counted "
                           "in the calibration; the kernel has a call site not wrapped here")
    return counts


def count_lane_set(configs):
    rows = {key(*c): count_lanes(*c) for c in configs}
    out = {f"total_{name}": sum(r[name] for r in rows.values())
           for name in next(iter(rows.values()))}
    return {**out, "rows": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key to store the counts under")
    parser.add_argument("--out", default="BENCH_calibration.json")
    args = parser.parse_args(argv)

    record = {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine()},
        "bench": count_set(BENCH),
        "acceptance": count_set(ACCEPTANCE),
        "lanes": count_lane_set(BENCH),
    }
    out = Path(args.out)
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data[args.label] = record
    out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for name in ("bench", "acceptance"):
        counts = record[name]
        rungs = rung_order({rung for r in counts["rows"].values() for rung in r["rung_evals"]})
        print(f"{args.label} {name}, evaluations per rung (total, at most per calibration): "
              + ", ".join(f"{rung} {counts[f'total_{rung}_evals']} ({counts[f'max_{rung}_evals']})"
                          for rung in rungs))
    lanes = record["lanes"]
    for stage in ("calibration", "readout"):
        print(f"{args.label} bench lanes, {stage}: {lanes[f'total_{stage}_calls']} "
              f"power_lanes calls, {lanes[f'total_{stage}_terms']} terms")


if __name__ == "__main__":
    main()
