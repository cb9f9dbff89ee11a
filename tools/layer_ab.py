"""Time two checkouts of semeq against each other in one process.

Usage: python tools/layer_ab.py CHECKOUT_A CHECKOUT_B [--rounds N]

Both checkouts' src/semeq packages are loaded side by side (as semeq_a and
semeq_b), and each round times two loads on each side, the side that goes
first alternating from round to round, so that a drift in the host's speed
falls on both sides alike.  Runs of the same code in separate processes are
too noisy on a shared host to size a change to one layer: a census-like
pass read ratios from 0.84 to 1.22 for a kernel change that interleaved
runs put at 1.02.

  scan     symmetry._scan, uncached, over every fixture map, its truncation
           and its rectification, and three seeded shuffled copies of each
           (vertices renamed, faces reordered, rotated and reversed), so
           that the least-code start falls at other flag positions
  analyze  the map loop of the classify-analyze benchmark workload without
           the benchmark harness: for a relabelled copy of every fixture,
           build the map, truncate and rectify it, and for each of the
           three run analyze_map, isomorphic against the map built from
           the fixture itself, dumps and loads
  search   the search kernel: exhaustive runs of four chi = -1 rows
           ([3^5,4^1]/12, [3^1,4^1,3^1,4^2]/12, [6^2,8^1]/24,
           [3^1,4^1,8^1,4^1]/24) and the fresh_first first-witness search
           of [4^1,6^1,14^1]/84; each round checks that both sides expand
           the same number of nodes and find the same canonical codes
  census   the searches of the census benchmark workload: exhaustive runs
           of the eight chi = -1 rows with n <= 21 and the fresh_first
           first-witness searches of its four existence rows
           ([6^2,7^1]/42, [3^1,4^1,7^1,4^1]/42, [4^1,8^1,10^1]/40,
           [4^1,6^1,14^1]/84), checked like search
  split    checkpointed runs, split into subtree paths but in one process,
           of three chi = -1 rows ([3^5,4^1]/12, [6^2,8^1]/24,
           [3^1,4^1,8^1,4^1]/24): for each, a run to the end, which replays
           every path of the split frontier, a session cut at that run's
           node count (the row's serial count, which a split run divides
           into per-path quotas) and that session resumed; each round
           checks that both sides give the same stats, codes and complete
           flags

Each load is timed in CPU seconds of this process (time.process_time), and
its garbage is collected first.  On a shared 2-CPU host the wall clock also
counts the time other processes hold the CPU: A/A runs of the census load
(one checkout against itself, 9 rounds each) read a median ratio of 0.958
timed by the wall clock and 0.984 timed in CPU seconds, where the minima
read 1.008.  The minimum over rounds is the steadiest figure.

Prints, per load, each side's median, quartiles and minimum in
milliseconds, the ratio of B's median to A's, and the number of rounds B
was faster.

The search, census and split loads assert, every round, that both sides
search the same tree (same nodes, codes and cuts).  So they compare
kernels that keep the tree, and a change that moves it, such as a
stronger prune, fails that assertion in the first round: such a change can
be timed here only by the scan and analyze loads, and by the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load(checkout: str, name: str):
    """The semeq package of a checkout, imported under another name."""
    pkg = Path(checkout).resolve() / "src" / "semeq"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def shuffled_faces(flm, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """The faces of the same map with its vertices renamed and its faces
    reordered, rotated and reversed, so that its flags are numbered afresh."""
    p = list(range(1, flm.vertex_count + 1))
    rng.shuffle(p)
    faces = []
    for f in flm.faces:
        f = tuple(p[v - 1] for v in f)
        k = rng.randrange(len(f))
        f = f[k:] + f[:k]
        faces.append(f[::-1] if rng.random() < 0.5 else f)
    rng.shuffle(faces)
    return tuple(faces)


class Side:
    """One checkout's inputs, built from the same face lists and seed."""

    def __init__(self, sm):
        self.sm = sm
        self.found = {}
        rng = random.Random(1)

        def shuffled(flm):
            return sm.FaceListMap(flm.vertex_count, shuffled_faces(flm, rng))

        self.scan_maps = []
        self.items = []
        for name in sm.fixture_names():
            flm = sm.fixture_face_list(name)
            ref = sm.build_from_faces(flm)
            refs = [ref, sm.truncate(ref), sm.rectify(ref)]
            for m in refs:
                copies_of_m = [sm.build_from_faces(shuffled(sm.face_list_of(m)))
                               for _ in range(3)]
                self.scan_maps += [m] + copies_of_m
            self.items.append((shuffled(flm), refs))
        for ref in (r for _, refs in self.items for r in refs):
            sm.canonical_code(ref)  # the references are scanned once, outside the timing

    def scan(self) -> None:
        scan = self.sm.symmetry._scan
        for m in self.scan_maps:
            scan(m)

    def analyze(self) -> None:
        sm = self.sm
        for flm, refs in self.items:
            m = sm.build_from_faces(flm)
            for mm, ref in zip((m, sm.truncate(m), sm.rectify(m)), refs):
                a = sm.analyze_map(mm)
                assert a["vertices"] == mm.f0
                assert sm.isomorphic(mm, ref) is not None
                back = sm.loads(sm.dumps(mm))
                assert back.vertex_count == mm.f0

    def searches(self, rows, witness_rows) -> list:
        """Exhaustive runs of rows and fresh_first first-witness searches of
        witness_rows, on chi = -1: each one's nodes and canonical codes."""
        sm = self.sm
        en = sm.enumerator
        found = []
        for t, n in rows:
            r = sm.enumerate_maps(t, n, -1)
            found.append((t, r.stats.nodes, sorted(sm.canonical_code(m).data for m in r.maps)))
        for t, n in witness_rows:
            # exists_any without its wrapper, for the node count
            collector, stats = {}, en.EnumerationStats()
            en._drive(en._normalize_type(t), n, -1, sm.EnumOptions(fresh_first=True),
                      collector, stats, first_only=True)
            found.append((t, stats.nodes, sorted(collector)))
        return found

    def search(self) -> None:
        self.found["search"] = self.searches(SEARCH_ROWS, (WITNESS_ROW,))

    def census(self) -> None:
        self.found["census"] = self.searches(CENSUS_ROWS, CENSUS_WITNESS_ROWS)

    def split(self) -> None:
        sm = self.sm
        found = []
        with tempfile.TemporaryDirectory() as tmp:
            for k, (t, n) in enumerate(SPLIT_ROWS):
                whole = os.path.join(tmp, f"{k}.whole")
                part = os.path.join(tmp, f"{k}.cut")
                run = sm.enumerate_maps(t, n, -1, sm.EnumOptions(checkpoint_path=whole))
                cut = sm.enumerate_maps(t, n, -1, sm.EnumOptions(
                    checkpoint_path=part, node_budget=run.stats.nodes))
                resumed = sm.enumerate_maps(t, n, -1, sm.EnumOptions(checkpoint_path=part))
                found.append([(r.complete, r.stats.to_dict(), r.codes)
                              for r in (run, cut, resumed)])
        self.found["split"] = found


SEARCH_ROWS = (("[3^5,4^1]", 12), ("[3^1,4^1,3^1,4^2]", 12), ("[6^2,8^1]", 24),
               ("[3^1,4^1,8^1,4^1]", 24))
WITNESS_ROW = ("[4^1,6^1,14^1]", 84)
# the searches of the census benchmark workload (censusbench/expected.json)
CENSUS_ROWS = (("[3^1,4^1,3^1,4^2]", 12), ("[3^5,4^1]", 12), ("[3^1,5^3]", 15),
               ("[4^3,5^1]", 20), ("[3^2,4^1,3^1,5^1]", 20), ("[4^1,10^2]", 20),
               ("[5^1,8^2]", 20), ("[3^1,7^1,3^1,7^1]", 21))
CENSUS_WITNESS_ROWS = (("[6^2,7^1]", 42), ("[3^1,4^1,7^1,4^1]", 42), ("[4^1,8^1,10^1]", 40),
                       ("[4^1,6^1,14^1]", 84))
SPLIT_ROWS = (("[3^5,4^1]", 12), ("[6^2,8^1]", 24), ("[3^1,4^1,8^1,4^1]", 24))


def timed(fn) -> float:
    gc.collect()
    t = time.process_time()
    fn()
    return time.process_time() - t


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    sides = [Side(load(args.checkout_a, "semeq_a")), Side(load(args.checkout_b, "semeq_b"))]
    loads = ("scan", "analyze", "search", "census", "split")
    times = {(load_name, i): [] for load_name in loads for i in (0, 1)}
    for side in sides:  # one untimed round warms both sides up
        for load_name in loads:
            getattr(side, load_name)()
    for r in range(args.rounds):
        for load_name in loads:
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[load_name, i].append(timed(getattr(sides[i], load_name)))
        # a faster search that expands other nodes, finds other maps or
        # cuts elsewhere is another search, not a faster one
        assert sides[0].found == sides[1].found, (sides[0].found, sides[1].found)
    for load_name in loads:
        a, b = times[load_name, 0], times[load_name, 1]
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{load_name:8s} A {qa[1] * 1e3:8.1f} ms [{qa[0] * 1e3:.1f}, {qa[2] * 1e3:.1f}]"
              f" min {min(a) * 1e3:.1f}"
              f"  B {qb[1] * 1e3:8.1f} ms [{qb[0] * 1e3:.1f}, {qb[2] * 1e3:.1f}]"
              f" min {min(b) * 1e3:.1f}"
              f"  B/A {qb[1] / qa[1]:.3f}  B faster in {wins}/{len(a)} rounds")


if __name__ == "__main__":
    main()
