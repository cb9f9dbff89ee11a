"""Self-test of the census benchmark on reduced inputs.

    python3 censusbench/selftest.py

Runs every workload on the reduced inputs of ``expected.json`` ("small"),
untraced and traced, and checks: the result line's keys and types; that
the metric names and units are exactly those of BENCHMARK.json; that every
check passes and every end-to-end value is positive; that the exact
counters do not depend on the seed; that a corrupted expected digest makes
``failed`` positive; and that the benchmark exits non-zero without a result
line in a directory holding only BENCHMARK.json and the benchmark.  Takes
about a minute on 2 CPUs.  The traced reduced runs print "search change"
lines for call counts and flags scanned, which baseline.json records for
the full inputs; they are expected.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import tempfile
from pathlib import Path

import run
import workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_result(res: dict, section: str, what: str) -> None:
    check(list(res) == ["correct", "attempted", "failed", "metrics"], f"{what}: keys {list(res)}")
    check(type(res["attempted"]) is int and res["attempted"] >= 1, f"{what}: attempted")
    check(type(res["failed"]) is int and res["failed"] >= 0, f"{what}: failed")
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    check(got == want, f"{what}: metric names/units differ from BENCHMARK.json "
          f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")
    for name, m in res["metrics"].items():
        v = m["value"]
        check(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
              f"{what}: {name} = {v!r}")
        if section == "end_to_end":
            check(v > 0, f"{what}: {name} = {v} is not positive")


def run_small(workload: str, seed: int, trace: bool, corrupt: bool = False):
    passes, metrics = run.measure(workload, seed, 0, trace, small=True, corrupt=corrupt)
    return passes, run.result(passes, metrics)


def without_trace_counters(exact: dict) -> dict:
    return {k: v for k, v in exact.items() if not k.startswith(("calls ", "flags "))}


def check_missing_program() -> None:
    scratch = workloads.ROOT / ".censusbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(workloads.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(SPEC["command"] + ["--workload", "census", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without src/semeq: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)
        try:
            scratch.rmdir()
        except OSError:
            pass


def main() -> None:
    check_missing_program()
    for workload in workloads.WORKLOADS:
        plain, res = run_small(workload, seed=3, trace=False)
        check_result(res, "end_to_end", f"{workload} untraced")
        check(res["correct"] and res["failed"] == 0, f"{workload}: {res['failed']} checks failed")
        traced, res = run_small(workload, seed=4, trace=True)
        check_result(res, "per_layer", f"{workload} traced")
        check(res["correct"], f"{workload} traced: {res['failed']} checks failed")
        check(all(without_trace_counters(p.exact) == plain[0].exact for p in traced),
              f"{workload}: exact counters depend on the seed or on tracing")
        _, res = run_small(workload, seed=3, trace=False, corrupt=True)
        check(not res["correct"] and res["failed"] > 0,
              f"{workload}: a corrupted expected digest went unnoticed")
        print(f"selftest ok: {workload}")


if __name__ == "__main__":
    main()
