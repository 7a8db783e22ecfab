"""Run one secthru benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep-full --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from `src/` there
and fails when that is missing. A run repeats the workload's pass (see
workloads.py) while another pass still fits in `--seconds`, and times set-up
in fresh interpreters before each pass and after the last. With `--trace 0` every pass is untimed by tracing and the run
reports the end-to-end metrics; with `--trace 1` untraced and traced passes
alternate, the run reports the per-layer metrics, and the spans are written to
`.bench_out/`. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--smoke` runs one small pass
of each kind whatever `--seconds` says. See bench/README.md.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep-full", "sweep-main", "queue")
# set-up samples taken before each pass and after the last, so that they
# spread over the run like the passes do instead of sharing one moment's load
SETUP_SAMPLES = 3

# glibc's allocator moves its mmap and trim thresholds as a process frees
# memory, so the solvers' multi-megabyte temporaries are page-faulted afresh or
# not depending on what the process did before: the same full-CSI row took
# 2.2 s or 3.1 s on a 2-CPU machine. Fixed thresholds keep freed blocks in the
# heap and make every pass pay the same.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for this setting on 64-bit
_TRIM_THRESHOLD = 512 << 20

# Set-up as a user pays it: a fresh interpreter imports secthru and resolves
# the configuration of the workload's first command, before any solver call.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from secthru import cli
args = cli.build_parser().parse_args(sys.argv[2:])
resolve = getattr(cli, "_resolve_config", None)  # private: a refactor may move it
if resolve is not None:
    resolve(args)
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; another pass starts only if it still fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one row per sweep and a minimal queue run, one pass of each kind")
    return parser.parse_args(argv)


def measure_setup(argv: list, samples: int) -> list:
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), *argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None when it cannot be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def pin_allocator() -> bool:
    """Fix glibc's malloc thresholds in this process; False where that is not possible."""
    try:
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown (git not found)"
    return done.stdout.strip() or "unknown"


def environment(seed: int, allocator_pinned: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "malloc_thresholds_pinned": (
            f"mmap={_MMAP_THRESHOLD} trim={_TRIM_THRESHOLD}" if allocator_pinned else False),
        "commit": git_commit(),
        "seed": seed,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def run(args) -> dict:
    """Set-up timing plus the passes; returns everything the report needs."""
    import tracer as tracing
    import workloads

    setup_argv = workloads.setup_argv(args.workload, args.seed, args.smoke)
    setup = []
    reference = workloads.load_reference()
    tracer = tracing.Tracer() if args.trace else None
    passes = []  # (traced, PassResult, layer metrics or None)
    spans_out = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        setup += measure_setup(setup_argv, SETUP_SAMPLES)
        traced = tracer is not None and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        if traced:
            before = tracing.originals()
            with tracer.installed():
                result = workloads.run_pass(args.workload, args.seed, args.smoke, reference,
                                            tracer)
            after = tracing.originals()
            if any(after[k] is not before[k] for k in before):
                raise RuntimeError("a traced attribute was not restored after the traced pass")
            spans = tracer.take_spans()
            spans_out.append([s.as_dict() for s in spans])
            layers = tracing.layer_metrics(spans, result.wall_s)
        else:
            result = workloads.run_pass(args.workload, args.seed, args.smoke, reference)
            layers = None
        passes.append((traced, result, layers))
        longest = max(longest, time.perf_counter() - pass_start)
        kinds_done = {p[0] for p in passes}
        if tracer is not None and len(kinds_done) < 2:
            continue  # a traced run needs one pass of each kind
        if args.smoke or time.perf_counter() - start + longest > args.seconds:
            break
    setup += measure_setup(setup_argv, SETUP_SAMPLES)
    return {"setup": setup, "passes": passes, "spans": spans_out,
            "missing": tracer.missing if tracer else []}


def end_to_end(name: str, outcome: dict) -> dict:
    untraced = [r for traced, r, _ in outcome["passes"] if not traced]
    # a rate over the whole run: the ratio of totals averages the machine's
    # speed drift over every pass instead of picking one pass
    if name == "queue":
        work, seconds = sum(r.frames for r in untraced), sum(r.sim_s for r in untraced)
    else:
        work, seconds = sum(r.attempted for r in untraced), sum(r.wall_s for r in untraced)
    return {
        "setup_s": (_median(outcome["setup"]), "s", len(outcome["setup"])),
        "wall_s": (_median([r.wall_s for r in untraced]), "s", len(untraced)),
        "work_per_s": (work / seconds if seconds > 0.0 else 0.0, "1/s", len(untraced)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def per_layer(outcome: dict, units: dict) -> dict:
    traced = [(r, layers) for is_traced, r, layers in outcome["passes"] if is_traced]
    untraced = [r.wall_s for is_traced, r, _ in outcome["passes"] if not is_traced]
    out = {}
    for metric in traced[0][1]:
        values = [layers[metric] for _, layers in traced]
        out[metric] = (_median(values), units[metric], len(values))
    overhead = _median([r.wall_s for r, _ in traced]) - _median(untraced)
    out["trace.overhead_s"] = (overhead, units["trace.overhead_s"], len(traced))
    return out


def _units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    allocator_pinned = pin_allocator()
    if not (SRC / "secthru" / "__init__.py").is_file():
        print(f"error: no secthru package under {SRC}; run from a checkout with src/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import secthru

    if not Path(secthru.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported secthru from {secthru.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed, allocator_pinned)
    print("# env " + json.dumps(env, sort_keys=True))
    outcome = run(args)
    passes = outcome["passes"]
    attempted = sum(r.attempted for _, r, _ in passes)
    failed = sum(r.failed for _, r, _ in passes)
    if args.trace:
        metrics = per_layer(outcome, _units())
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "workload": args.workload, "passes": outcome["spans"]}, fh)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
        for missing in outcome["missing"]:
            print(f"# not traced (attribute gone): {missing}")
    else:
        metrics = end_to_end(args.workload, outcome)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} smoke={args.smoke}")
    for i, (traced, result, _) in enumerate(passes):
        print(f"# pass {i} traced={int(traced)} wall_s={result.wall_s:.4f}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<56} {value:>16.6g} {unit:<6} (n={n})")
    print(f"{'ops_failed':<56} {failed / attempted:>16.6g} {'ratio':<6} "
          f"({failed} of {attempted} operations)")
    for _, result, _ in passes:
        for key, problem in result.problems.items():
            if problem is not None:
                print(f"# FAIL {key}: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
