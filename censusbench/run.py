"""Census benchmark: run one workload and print one JSON result line.

    python3 censusbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark imports semeq from ``src/`` of
the checkout it sits in, builds the workload's inputs from the seed, and
repeats whole passes of the workload while another pass still fits in
``--seconds`` (always at least one).  Every result is checked; the last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, medians over the passes.  Pass
times are reported in durations of a fixed reference loop sampled while the
pass runs (``wall_ref``, ``cpu_ref``; see workloads.py), because the host's
speed drifts too much for seconds to compare across runs; the seconds are
reported by the traced run.
``--trace 1`` runs one plain pass, then installs spans around semeq's public
functions and runs one traced pass; it reports the per-layer metrics of the
traced pass and the tracing overhead (traced wall minus plain wall).

Exact counters (search nodes, completions, prunes, maps, digests, calls,
flags scanned) are compared with ``baseline.json``; a difference is printed
to stderr as a search change, not counted as a failure.  Temporary
checkpoint files live in ``.censusbench_tmp/`` of the checkout and are
removed before exit.  Exit code 2: no semeq package in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import tracing
import workloads
from workloads import BENCH_DIR, ROOT, MissingProgram, row_slug, run_pass

SETUP_REPS = 9

# a fresh interpreter times the import of semeq plus building the inputs
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
workloads.setup(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
print(time.perf_counter() - t0)
"""


def time_setup(workload: str, seed: int, small: bool) -> float:
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(BENCH_DIR), workload, str(seed),
         "1" if small else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; the median when there are too few samples for one above it."""
    xs = sorted(samples)
    if not xs:
        return 0.0, 0.0
    k = len(xs) - 11
    if k < len(xs) // 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(passes, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(p.wall_ref for p in passes), "ref"),
        "cpu_ref": (statistics.median(p.cpu_ref for p in passes), "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# traced functions whose self time goes by another name
_SELF_TIME_NAMES = {"enumerator.enumerate_maps": "enumerator.search_self_s",
                    "census.analyze_map": "census.analyze_map_self_s"}


def per_layer(plain, traced, tracer: tracing.Tracer, changed: int) -> dict:
    self_s, calls, covered = tracer.summary()
    lay = defaultdict(float, traced.layer)
    ex = traced.exact
    nodes = int(lay["search_nodes"])
    completions = sum(v for k, v in ex.items() if k.endswith(" completions"))
    prunes = sum(v.get("constraint", 0) for k, v in ex.items() if k.endswith(" prunes"))
    maps = sum(v for k, v in ex.items() if k.endswith(" maps"))
    pool_wall, child_cpu = lay["pool_wall_s"], lay["pool_child_cpu_s"]
    busy = workloads.POOL_PROCESSES * pool_wall
    tail_ms, tail_pct = tail(traced.analyze_ms)
    out = {}
    for span in tracing.TRACED:
        out[_SELF_TIME_NAMES.get(span, span + "_s")] = (self_s.get(span, 0.0), "s")
        out[span + "_calls"] = (calls.get(span, 0), "count")
    out.update({
        "enumerator.nodes": (nodes, "count"),
        "enumerator.completions": (completions, "count"),
        "enumerator.prunes_constraint": (prunes, "count"),
        "enumerator.branch_ok_ratio": (_ratio(nodes, nodes + prunes), "ratio"),
        "enumerator.maps_per_completion": (_ratio(maps, completions), "ratio"),
        "enumerator.nodes_per_s": (_ratio(nodes, lay["search_s"]), "1/s"),
        "enumerator.pool_nodes_per_s": (_ratio(lay["pool_nodes"], pool_wall), "1/s"),
        "enumerator.pool_speedup_2p": (_ratio(lay["pool_serial_wall_s"], pool_wall), "ratio"),
        "enumerator.pool_child_cpu_s": (child_cpu, "s"),
        "enumerator.pool_busy_ratio": (_ratio(child_cpu, busy), "ratio"),
        "enumerator.pool_wait_s": (busy - child_cpu, "s"),
        "enumerator.replay_ratio": (_ratio(lay["pool_self_cpu_s"] + child_cpu,
                                           lay["pool_serial_cpu_s"]), "ratio"),
        "enumerator.checkpoint_bytes": (int(lay["checkpoint_bytes"]), "B"),
        "enumerator.resume_s": (lay["resume_s"], "s"),
        "enumerator.witness_s": (lay["witness_s"], "s"),
        "symmetry.flags_scanned": (tracer.flags_scanned, "count"),
        "census.analyze_ms_p50": (statistics.median(traced.analyze_ms)
                                  if traced.analyze_ms else 0.0, "ms"),
        "census.analyze_ms_tail": (tail_ms, "ms"),
        "census.analyze_tail_pct": (tail_pct, "%"),
        "census.analyze_samples": (len(traced.analyze_ms), "count"),
        "trace.untraced_wall_s": (plain.wall_s, "s"),
        "trace.untraced_wall_ref": (plain.wall_ref, "ref"),
        "trace.ref_ms": (statistics.median(plain.host.samples) * 1e3, "ms"),
        "trace.traced_wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - plain.wall_s, "s"),
        "trace.overhead_ref": (traced.wall_ref - plain.wall_ref, "ref"),
        "trace.span_s": (covered, "s"),
        "trace.outside_spans_s": (traced.wall_s - covered, "s"),
        "trace.spans": (len(tracer.spans), "count"),
        "exact.changed": (changed, "count"),
    })
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    for key in expected["witness_rows"]:
        name = f"enumerator.exists_any_s.{row_slug(key)}"
        out[name] = (lay[name], "s")
    for chi in sorted((int(c) for c in expected["pairs"]), reverse=True):
        out[f"typecalc.admissible_types_s.chi{chi}"] = (
            lay[f"typecalc.admissible_types_s.chi{chi}"], "s")
        out[f"typecalc.pairs.chi{chi}"] = (ex.get(f"pairs chi={chi}", 0), "count")
    return out


def search_changes(passes, baseline: dict) -> list[str]:
    """Exact counters that differ from the recorded baseline."""
    changed = {}
    for p in passes:
        for key, value in p.exact.items():
            if baseline.get(key) != value:
                changed[key] = (f"search change: {key}: "
                                f"baseline {baseline.get(key)!r}, now {value!r}")
    for line in changed.values():
        print(line, file=sys.stderr)
    return sorted(changed)


def trace_exact(p, tracer: tracing.Tracer) -> None:
    _, calls, _ = tracer.summary()
    for span in tracing.TRACED:
        p.exact[f"calls {span}"] = calls.get(span, 0)
    p.exact["flags scanned"] = tracer.flags_scanned


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False, corrupt: bool = False):
    """Run the workload; return (passes, metrics). ``small`` and ``corrupt``
    serve the self-test (see workloads.setup)."""
    sm = workloads.load_semeq()
    inp = workloads.setup(workload, seed, small, corrupt)
    scratch = ROOT / ".censusbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if trace:
            plain = run_pass(sm, inp, tmpdir)
            tracer = tracing.Tracer()
            tracer.install()
            traced = run_pass(sm, inp, tmpdir)
            trace_exact(traced, tracer)
            passes = [plain, traced]
            changed = search_changes(passes, inp["baseline"])
            metrics = per_layer(plain, traced, tracer, len(changed))
        else:
            setup_s = statistics.median(time_setup(workload, seed, small)
                                        for _ in range(SETUP_REPS))
            passes = []
            started = workloads.clock()
            while True:
                passes.append(run_pass(sm, inp, tmpdir))
                elapsed = workloads.clock() - started
                if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
                    break
            search_changes(passes, inp["baseline"])
            metrics = end_to_end(passes, setup_s)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    return passes, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def result(passes, metrics: dict) -> dict:
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0, "attempted": sum(p.attempted for p in passes),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        passes, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"censusbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result(passes, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
