"""Record the exact counters of every workload into baseline.json.

    python3 censusbench/record_baseline.py

Runs each workload once, traced, with seed 0, and keeps the traced pass's
counters: search nodes, completions, prunes and maps per row, witness and
image digests, checkpoint sizes, calls per traced function and flags
scanned.  Re-record only when a change to the search tree or to canonical
codes is intended; the benchmark reports every difference from this file as
a search change.
"""

import json

import run
import workloads


def main() -> None:
    recorded = {}
    for workload in workloads.WORKLOADS:
        passes, _ = run.measure(workload, seed=0, seconds=0, trace=True)
        recorded[workload] = passes[-1].exact
    path = workloads.BENCH_DIR / "baseline.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
