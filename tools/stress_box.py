"""Solve the realistic stress box in one process, for BENCH_stress.json.

The box spans the range the solvers are meant to cover: theta {1e-3, 1} x
SNR {-10, 30} dB x gamma {0.3, 3} x eavesdropper mean gain {0.1, 10}, in both
CSI modes (32 rows), with an Exp(1) main channel and the default
Tolerances. Each row is one full_csi.solve_full or main_csi.solve_main call
and records whether it solved ("ok") or the type of the error it raised
("error"), its wall time, its mean-power evaluations per rung of the
calibration ladder (counted as tools/calibration_counts.py counts them), the
panel count per axis at which each refined quadrature stopped ("panels": a
list for the refined mean-power evaluations under "calibration", in order,
and one for the throughput readout under "readout"), and, when it solved, its
calibrated multiplier nu, its throughput in bits/s/Hz and its power residual
relative to the budget. The record also holds how many refinements stopped
at each panel count, the process's peak RSS and the total time over all
rows. Times and RSS depend on the machine; the "env" entry names it.

Run from the root of a checkout (about 1 s and 50 MB of memory):

    PYTHONPATH=src python3 tools/stress_box.py --label after

The record is stored under the label in the output file, next to the other
labels already there, so the file can hold a before/after pair.
"""

import argparse
import itertools
import json
import platform
import resource
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

from calibration_counts import counted_mean_power, rung_evals, solve, solve_stage
from secthru import _region
from secthru.model import FadingLaw, LinkBudget
from secthru.numerics import DEFAULT_TOL, NumericsError

THETA = (1e-3, 1.0)
SNR_DB = (-10.0, 30.0)
GAMMA = (0.3, 3.0)
EAVESDROPPER_MEAN = (0.1, 10.0)
BOX = list(itertools.product(("full", "main"), THETA, SNR_DB, GAMMA, EAVESDROPPER_MEAN))


def key(mode, theta, snr_db, gamma, mean_e):
    return f"{mode}|theta={theta!r}|snr_db={snr_db!r}|gamma={gamma!r}|mean_e={mean_e!r}"


@contextmanager
def counted_panels():
    """Wrap the refinement the region rules run (_region.refine_panels) for
    the block; yields {"calibration": [...], "readout": [...]}, the panels at
    which each refinement stopped, split at the throughput readout.
    """
    panels = {"calibration": [], "readout": []}
    refine = _region.refine_panels

    with solve_stage() as stage:
        def counted_refine(*args, **kwargs):
            result = refine(*args, **kwargs)
            panels[stage[0]].append(result.panels)
            return result

        with mock.patch.object(_region, "refine_panels", counted_refine):
            yield panels


def solve_row(mode, theta, snr_db, gamma, mean_e):
    """One row of the box: its record (see the module docstring)."""
    link = LinkBudget(avg_snr=10.0 ** (snr_db / 10.0), gamma=gamma)
    row = {"ok": False, "error": None}
    start = time.perf_counter()
    with counted_mean_power(mode) as probes, counted_panels() as panels:
        try:
            sol = solve(mode, theta, link, DEFAULT_TOL, FadingLaw(mean_gain=mean_e))
        except NumericsError as exc:
            row["error"] = type(exc).__name__
        else:
            row.update(ok=True, nu=sol.nu, throughput=sol.throughput.throughput_bits_s_hz,
                       residual_rel=sol.throughput.power_residual / link.avg_snr)
    row["seconds"] = round(time.perf_counter() - start, 3)
    row["rung_evals"] = rung_evals(probes)
    row["panels"] = panels
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key to store the record under")
    parser.add_argument("--out", default="BENCH_stress.json")
    args = parser.parse_args(argv)

    rows = {}
    for config in BOX:
        rows[key(*config)] = row = solve_row(*config)
        status = "ok" if row["ok"] else row["error"]
        print(f"{key(*config)}: {status} in {row['seconds']:.2f} s, "
              f"evaluations per rung {row['rung_evals']}, panels {row['panels']}", flush=True)
    stops = [n for r in rows.values() for n in r["panels"]["calibration"] + r["panels"]["readout"]]
    record = {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine()},
        "rows_ok": sum(r["ok"] for r in rows.values()),
        "rows": len(rows),
        "total_s": round(sum(r["seconds"] for r in rows.values()), 3),
        "max_refined_evals": max(r["rung_evals"]["refined"] for r in rows.values()),
        # refinements (calibration and readout) that stopped at each panel count
        "refinements_by_panels": {str(n): stops.count(n) for n in sorted(set(stops))},
        # ru_maxrss is in kilobytes on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "rows_by_key": rows,
    }
    out = Path(args.out)
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data[args.label] = record
    out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"{args.label}: {record['rows_ok']} of {record['rows']} rows solved in "
          f"{record['total_s']:.1f} s, at most {record['max_refined_evals']} refined "
          f"evaluations per row, refinements by panels {record['refinements_by_panels']}, "
          f"peak RSS {record['peak_rss_mb']} MB")


if __name__ == "__main__":
    main()
