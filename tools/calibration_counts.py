"""Mean-power evaluations per multiplier calibration, recorded in BENCH_calibration.json.

Each calibration runs numerics.calibrate around full_csi.mean_power_full or
main_csi.mean_power_main, exactly as the solvers set it up (budget avg_snr,
upper end ln of the main-channel tail cutoff), with a wrapper that counts the
mean-power evaluations. Two sets of calibrations are counted:

- bench: the 12 calibrations of the sweep-full and sweep-main benchmark
  workloads (their sweep rows and policy surfaces);
- acceptance: the 18-row acceptance grid, theta {1e-3, 1e-2, 1e-1} x SNR
  {-10, 0, 10} dB in both CSI modes.

It also counts the quadratures that main_csi.alpha_threshold makes through
_region.idle_marginal_gain over the bench calibrations, read from a cProfile
of that run (nothing is patched). Counts depend only on the code and the
default Tolerances, not on the machine; each row also lists its probes as
[ln(nu), mean power].

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/calibration_counts.py --label after

The counts are stored under the label in the output file, next to the other
labels already there, so the file can hold a before/after pair.
"""

import argparse
import cProfile
import json
import math
import platform
import pstats
from pathlib import Path

import numpy as np

from secthru import full_csi, main_csi, numerics
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
MEAN_POWER = {"full": full_csi.mean_power_full, "main": main_csi.mean_power_main}


def key(mode, theta, snr_db, gamma):
    return f"{mode}|theta={theta!r}|snr_db={snr_db!r}|gamma={gamma!r}"


def count_calibration(mode, theta, snr_db, gamma, tol=numerics.DEFAULT_TOL):
    """Calibrate one configuration; returns its record with the evaluation count."""
    beta = make_qos(theta).beta
    link = LinkBudget(avg_snr=10.0 ** (snr_db / 10.0), gamma=gamma)
    law = FadingLaw()
    probes = []

    def mean_power(nu, t):
        value = MEAN_POWER[mode](nu, beta, link, law, law, t)
        probes.append((math.log(nu), value))
        return value

    u_hi = math.log(law.tail_cutoff(tol.quad_trunc_mass))
    nu, residual = numerics.calibrate(mean_power, link.avg_snr, u_hi, tol)
    return {
        "evals": len(probes),
        "nu": nu,
        "residual_rel": residual / link.avg_snr,
        "probes": [[round(u, 4), p] for u, p in probes],
    }


def count_set(configs):
    rows = {key(*c): count_calibration(*c) for c in configs}
    evals = [r["evals"] for r in rows.values()]
    return {"total_evals": sum(evals), "max_evals": max(evals), "rows": rows}


def idle_gain_quadratures(profile):
    """Quadratures called from idle_marginal_gain in a profiled run."""
    stats = pstats.Stats(profile).stats
    calls = 0
    for (path, _, name), (_, _, _, _, callers) in stats.items():
        if name in ("integrate_density", "integrate", "refine_panels") and path.endswith(
                "numerics.py"):
            calls += sum(c[0] for (_, _, caller), c in callers.items()
                         if caller == "idle_marginal_gain")
    return calls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key to store the counts under")
    parser.add_argument("--out", default="BENCH_calibration.json")
    args = parser.parse_args(argv)

    profile = cProfile.Profile()
    record = {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine()},
        "bench": profile.runcall(count_set, BENCH),
        "acceptance": count_set(ACCEPTANCE),
        "idle_marginal_gain_quadratures": idle_gain_quadratures(profile),
    }
    out = Path(args.out)
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data[args.label] = record
    out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for name in ("bench", "acceptance"):
        print(f"{args.label} {name}: {record[name]['total_evals']} evaluations, "
              f"at most {record[name]['max_evals']} per calibration")
    print(f"{args.label} idle_marginal_gain quadratures: "
          f"{record['idle_marginal_gain_quadratures']}")


if __name__ == "__main__":
    main()
