"""Write bench/reference.json, the values the benchmark's correctness gate compares against.

    python3 bench/record_reference.py

It runs every operation of every workload once with the package under `src/`
as it is now. The committed file was recorded from the commit that added the
benchmark. Record it again only for a change that is meant to move the
outputs, and say in CHANGES.md by how much they moved.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)


def main() -> int:
    reference = workloads.record_reference()
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
