"""Self-test of the benchmark: smoke runs of every workload, untraced and traced.

    python3 bench/selftest.py

Run from the root of a checkout. For each workload it runs `run.py --smoke`
in this process with `--trace 0`, then twice with `--trace 1`, and checks that

- the last line of output is the result object, with exactly the keys
  correct, attempted, failed and metrics, and correct is true;
- the metrics are exactly BENCHMARK.json's end_to_end names (trace 0) or
  per_layer names (trace 1), each with the unit BENCHMARK.json gives it;
- after each traced run every attribute the tracer wraps is the original
  object again, so untraced runs execute unmodified code;
- the exact counts (unit `count`) are equal in the two traced runs.

Last, it copies BENCHMARK.json and bench/ into an otherwise empty directory
under .bench_out/ and checks that the benchmark fails there without printing a
result. Exits 1 on the first failed check.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (needs src/ on the path for what it imports)
import tracer  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class SelfTestError(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def smoke(workload: str, trace: int) -> dict:
    before = tracer.originals()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--smoke"])
    after = tracer.originals()
    check(rc == 0, f"{workload} trace={trace}: exit code {rc}")
    changed = [k for k in before if after.get(k) is not before[k]]
    check(not changed, f"{workload} trace={trace}: not restored: {changed}")
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    check(set(result) == RESULT_KEYS, f"{workload} trace={trace}: keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{workload} trace={trace}: correctness gate failed:\n{out.getvalue()}")
    return result["metrics"]


def check_metrics(workload: str, trace: int, metrics: dict, declared: list) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    check(set(got) == set(want),
          f"{workload} trace={trace}: missing {sorted(set(want) - set(got))}, "
          f"extra {sorted(set(got) - set(want))}")
    wrong = {name: unit for name, unit in got.items() if unit != want[name]}
    check(not wrong, f"{workload} trace={trace}: wrong units {wrong}")


def check_bare_checkout() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "queue", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(done.returncode != 0, "the benchmark succeeded in a checkout without src/")
    check('"correct"' not in done.stdout, "the benchmark printed a result without src/")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            check_metrics(workload, 0, smoke(workload, 0), spec["end_to_end"])
            first = smoke(workload, 1)
            check_metrics(workload, 1, first, spec["per_layer"])
            second = smoke(workload, 1)
            differ = [name for name, m in first.items()
                      if m["unit"] == "count" and m["value"] != second[name]["value"]]
            check(not differ, f"{workload}: counts differ between traced runs: {differ}")
            print(f"ok {workload}", flush=True)
        check_bare_checkout()
        print("ok bare checkout fails")
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
