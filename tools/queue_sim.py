"""Time queuesim.simulate_queue at the criterion-7 point, for BENCH_queue.json.

The point is criterion 7's (`queue-decay`): theta 0.01, 0 dB, gamma 1, Exp(1)
gains on both channels and the default Tolerances, with the arrival rate set
to the solved effective secure throughput. For each CSI mode and each run
length in FRAMES, simulate_queue runs once per seed in SEEDS. Each run
records its wall time, frames per second, the decay exponent theta_hat that
queuesim.estimate_decay fits to its histogram, and the split of its wall time
into three stages, all timed on the calling thread. The worker threads draw
each slice's gains and compute its service, while the calling thread runs
the Lindley recursion, in order, on the slices already served, so the
first stage runs beside the draws and the service, and the third is what
the caller waits for:

- lindley: the Lindley recursion (queuesim.lindley_queue), one call per
  slice;
- tail: from the end of the last recursion to the return (the sort, the
  threshold quantiles and the exceedance counts);
- wait: the rest, mostly the caller's wait for the workers' draws and
  service (most of their time on one CPU, where one worker thread draws
  and serves while the caller waits), and
  the caller's per-slice service sum and arrival-minus-service.

Each (mode, frames) entry also holds the medians over its seeds. Before its
runs, each mode records under "policy" the wall time of its solve and of
POLICY_BUILDS sol.policy() calls (with their median), the panel count at
which the solve's readout stopped (Solution.panels), and the node count of
the simulation table that policy() built. For main CSI it also records the
table's inner panel count (main_csi.main_table_nodes' panels argument); for
full CSI the share of the table's cells that failed their check and fall
back to the lane kernel (full_csi.full_table_nodes). A count a table does
not have, or a table the code does not build, is None. The record holds
the CPUs the process may use, on which simulate_queue sizes its thread
pool, the process's peak RSS and the total time. One 100,000-frame run per
mode precedes the timed runs, so that lazy imports are not timed. Times
and RSS depend on the machine; the "env" entry names it.

Run from the root of a checkout (about 10 s and 200 MB of memory on 2 CPUs):

    PYTHONPATH=src python3 tools/queue_sim.py --label after

The record is stored under the label in the output file, next to the other
labels already there, so the file can hold a before/after pair.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

from secthru import full_csi, main_csi, queuesim
from secthru.full_csi import solve_full
from secthru.main_csi import solve_main
from secthru.model import FadingLaw, LinkBudget, make_qos

FRAMES = (1_000_000, 10_000_000)
SEEDS = (0, 1, 2)
STAGES = ("lindley", "tail", "wait")
POLICY_BUILDS = 3


@contextmanager
def table_builds():
    """Wrap main_csi.main_table_nodes and full_csi.full_table_nodes for the
    block; yields {"nodes": n, "inner_panels": p, "fallback_cells": f} of the
    last table built (None where not recorded)."""
    table = {"nodes": None, "inner_panels": None, "fallback_cells": None}
    main_nodes, full_nodes = main_csi.main_table_nodes, full_csi.full_table_nodes

    def main_recorded(*args):
        z, mu = main_nodes(*args)
        table.update(nodes=int(z.size), inner_panels=args[7])
        return z, mu

    def full_recorded(*args):
        x, fail = full_nodes(*args)
        table.update(nodes=int(x.size), fallback_cells=round(float(fail.mean()), 6))
        return x, fail

    with mock.patch.object(main_csi, "main_table_nodes", main_recorded), \
            mock.patch.object(full_csi, "full_table_nodes", full_recorded):
        yield table


def build_policy(solve, qos, link, law):
    """Solve one mode and build its policy POLICY_BUILDS times; returns the
    last Solution and policy, and the "policy" record (module docstring)."""
    start = time.perf_counter()
    sol = solve(qos, link, law, law)
    solve_s = time.perf_counter() - start
    builds = []
    with table_builds() as table:
        for _ in range(POLICY_BUILDS):
            start = time.perf_counter()
            policy = sol.policy()
            builds.append(round(time.perf_counter() - start, 4))
    record = {"solve_s": round(solve_s, 4), "policy_s": statistics.median(builds),
              "policy_runs_s": builds, "readout_panels": sol.panels,
              "table_nodes": table["nodes"], "table_inner_panels": table["inner_panels"],
              "table_fallback_cells": table["fallback_cells"]}
    return sol, policy, record


@contextmanager
def timed_lindley():
    """Wrap queuesim.lindley_queue for the block; yields {"lindley": s,
    "last_lindley_end": t}, summed over calls."""
    times = {"lindley": 0.0, "last_lindley_end": None}
    lindley = queuesim.lindley_queue

    def timed(*args, **kwargs):
        start = time.perf_counter()
        out = lindley(*args, **kwargs)
        times["last_lindley_end"] = end = time.perf_counter()
        times["lindley"] += end - start
        return out

    with mock.patch.object(queuesim, "lindley_queue", timed):
        yield times


def run(policy, qos, link, law, arrival, frames, seed):
    """One timed simulate_queue call: its record (see the module docstring)."""
    with timed_lindley() as times:
        start = time.perf_counter()
        hist = queuesim.simulate_queue(policy, qos, link, law, law, arrival, frames, seed)
        end = time.perf_counter()
    seconds = end - start
    stages = {"lindley": times["lindley"], "tail": end - times["last_lindley_end"]}
    stages["wait"] = seconds - sum(stages.values())
    return {"seconds": round(seconds, 4), "frames_per_s": round(frames / seconds),
            "theta_hat": queuesim.estimate_decay(hist)[0],
            "stages_s": {k: round(stages[k], 4) for k in STAGES}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key to store the record under")
    parser.add_argument("--out", default="BENCH_queue.json")
    args = parser.parse_args(argv)

    qos, link, law = make_qos(0.01), LinkBudget(avg_snr=1.0, gamma=1.0), FadingLaw()
    total = time.perf_counter()
    results = {}
    for mode, solve in (("full", solve_full), ("main", solve_main)):
        sol, policy, build = build_policy(solve, qos, link, law)
        results[f"{mode}|policy"] = build
        print(f"{mode} policy: solve {build['solve_s']:.4f} s, policy() median "
              f"{build['policy_s']:.4f} s, readout panels {build['readout_panels']}, table "
              f"{build['table_nodes']} nodes on {build['table_inner_panels']} inner panels, "
              f"{build['table_fallback_cells']} of its cells falling back", flush=True)
        arrival = sol.throughput_bits_s_hz * qos.frame_t * qos.bandwidth_b
        queuesim.simulate_queue(policy, qos, link, law, law, arrival, 100_000, 0)
        for frames in FRAMES:
            runs = {str(seed): run(policy, qos, link, law, arrival, frames, seed)
                    for seed in SEEDS}
            median = {"seconds": statistics.median(r["seconds"] for r in runs.values()),
                      "frames_per_s": statistics.median(r["frames_per_s"] for r in runs.values()),
                      "stages_s": {k: statistics.median(r["stages_s"][k] for r in runs.values())
                                   for k in STAGES}}
            results[f"{mode}|frames={frames}"] = {"median": median, "runs": runs}
            print(f"{mode} {frames} frames: median {median['seconds']:.3f} s, "
                  f"{median['frames_per_s']:.3g} frames/s, stages {median['stages_s']}",
                  flush=True)
    record = {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine()},
        "usable_cpus": len(os.sched_getaffinity(0)),
        "total_s": round(time.perf_counter() - total, 3),
        # ru_maxrss is in kilobytes on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "results": results,
    }
    out = Path(args.out)
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data[args.label] = record
    out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"{args.label}: {record['usable_cpus']} usable CPUs, {record['total_s']:.1f} s "
          f"in total, peak RSS {record['peak_rss_mb']} MB")


if __name__ == "__main__":
    main()
