"""Inputs and one timed pass for each workload of the census benchmark.

A pass is the whole job of its workload, run once through semeq's public
API, with every result checked:

* ``census``: classify chi = -1, count the maps of every row with n <= 21
  (serial search), find one witness on each existence row (first-witness
  search), analyze every map and witness.
* ``parallel``: classify chi = -1, then for each n = 24 row with maps run the
  search serially, on a 2-process pool with a checkpoint, and as a
  budget-interrupted checkpointed session resumed to completion; analyze
  the maps.
* ``classify-analyze``: classify chi = -2 and -3 (no search), then build,
  truncate, rectify, analyze, isomorphism-test and round-trip through the
  map-file format every fixture map and its two images.

The seed fixes the row order of the search workloads and the random vertex
relabeling of every fixture; semeq only ever sees the generated type strings
and face lists.  Counts and digests do not depend on the seed.

While a pass runs, an interval timer interrupts it every 50 ms and times a
fixed pure-Python reference loop of about 1 ms (``HostSpeed``).  A pass's
wall (and CPU) time, less the time spent in those samples, times the mean
of 1 / sample is its cost in reference durations: on a shared host whose
speed drifts by up to 1.5x from minute to minute and switches between
faster and slower spells within seconds, the samples, taken evenly in time
and during the work itself, slow down and speed up with the pass, so the
cost stays steady while the seconds do not.  The reference does not call
semeq, so a change to semeq moves the cost and a change in the host's
speed does not.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("census", "parallel", "classify-analyze")
POOL_PROCESSES = 2

clock = time.perf_counter

# one sample of the host's speed: this many iterations of the reference
# loop (about 1 ms on a 2-CPU cloud VM), every SAMPLE_EVERY seconds of a pass
REF_ITERATIONS = 8_000
SAMPLE_EVERY = 0.05


class MissingProgram(RuntimeError):
    """The checkout holds no semeq package to measure."""


def load_semeq():
    """Import semeq from the checkout's ``src`` directory, and only from there."""
    pkg = ROOT / "src" / "semeq"
    if not (pkg / "__init__.py").is_file():
        raise MissingProgram(f"no semeq package at {pkg}")
    if str(pkg.parent) not in sys.path:
        sys.path.insert(0, str(pkg.parent))
    import semeq

    if Path(semeq.__file__).resolve().parent != pkg.resolve():
        raise MissingProgram(f"semeq was imported from {semeq.__file__}, not {pkg}")
    return semeq


def cpu_seconds() -> tuple[float, float]:
    """(own CPU, CPU of waited-for children) in seconds."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def reference() -> float:
    """Wall seconds of a fixed pure-Python loop of integer sums and dict
    stores.  semeq is not involved, so its time follows only the speed of
    the host; of the loops tried, this one's time moved most nearly in
    proportion to the search's as the host's speed changed."""
    t = clock()
    seen = {}
    total = 0
    for i in range(REF_ITERATIONS):
        total += i
        seen[i & 255] = total
    return clock() - t


class HostSpeed:
    """Samples ``reference`` from a SIGALRM interval timer while active.

    The handler runs in the main thread between bytecodes, so the samples
    fall evenly in wall time, inside semeq's calls too.  ``spent`` counts
    the wall time taken by all samples so far, which ``net_clock`` leaves
    out of what they interrupted.  Forked pool workers inherit no interval
    timer.
    """

    spent = 0.0

    def __init__(self):
        self.samples = [reference()]
        self._old = None

    def _sample(self, signum, frame) -> None:
        t = clock()
        self.samples.append(reference())
        HostSpeed.spent += clock() - t

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def per_second(self) -> float:
        """Reference durations per second of host time: mean of 1 / sample."""
        return statistics.fmean(1 / x for x in self.samples)


def net_clock() -> float:
    """``clock`` less the time spent in host-speed samples."""
    return clock() - HostSpeed.spent


def row_key(type_string: str, n: int) -> str:
    return f"{type_string}/{n}"


def parse_row(key: str) -> tuple[str, int]:
    type_string, n = key.rsplit("/", 1)
    return type_string, int(n)


def row_slug(key: str) -> str:
    """Metric-name form of a row: ``[4^1,6^1,14^1]/84`` -> ``4e1-6e1-14e1.n84``."""
    type_string, n = parse_row(key)
    return type_string.strip("[]").replace("^", "e").replace(",", "-") + f".n{n}"


def _read_json(name: str) -> dict:
    path = BENCH_DIR / name
    return json.loads(path.read_text()) if path.exists() else {}


def _relabel(faces, n: int, rng: random.Random):
    """Random vertex permutation, face order, face rotation and orientation."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = []
    for f in faces:
        g = [perm[v - 1] for v in f]
        k = rng.randrange(len(g))
        g = g[k:] + g[:k]
        if rng.random() < 0.5:
            g.reverse()
        out.append(tuple(g))
    rng.shuffle(out)
    return out


def setup(workload: str, seed: int, small: bool = False, corrupt: bool = False) -> dict:
    """Import semeq and generate the workload's inputs from the seed.

    ``small`` selects the reduced inputs of the self-test; ``corrupt``
    replaces one expected digest with a wrong one (self-test of the gate).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sm = load_semeq()
    expected = _read_json("expected.json")
    baseline = _read_json("baseline.json").get(workload, {})
    rng = random.Random(seed)
    manifest = sm.fixtures.manifest()["fixtures"]
    digests: dict[str, set] = {}
    for meta in manifest.values():
        key = row_key(meta["type"], meta["vertices"])
        digests.setdefault(key, set()).add(meta["canonical_digest"])
    inp = {"workload": workload, "baseline": baseline,
           "pairs": {int(k): v for k, v in expected["pairs"].items()}}
    table = expected["census_table"]
    if workload == "census":
        rows = [k for k in table if parse_row(k)[1] <= 21]
        witness = list(expected["witness_rows"])
        if small:
            rows, witness = expected["small"]["census_rows"], expected["small"]["witness_rows"]
        rng.shuffle(rows)
        rng.shuffle(witness)
        inp.update(rows=rows, witness_rows=witness, table=table,
                   digests={k: set(digests.get(k, ())) for k in rows})
        if corrupt:
            inp["digests"][rows[0]] = {"0" * 64}
    elif workload == "parallel":
        rows = [k for k, count in table.items() if parse_row(k)[1] == 24 and count]
        if small:
            rows = list(expected["small"]["pool_rows"])
        rng.shuffle(rows)
        inp.update(rows=rows, table=table,
                   digests={k: set(digests.get(k, ())) for k in rows})
        if corrupt:
            inp["digests"][rows[0]] = {"0" * 64}
    else:
        names = sorted(manifest)
        chis = [-2, -3]
        if small:
            names, chis = expected["small"]["fixtures"], expected["small"]["chis"]
        maps = []
        for name in names:
            flm = sm.fixtures.fixture_face_list(name)
            ref = sm.build_from_faces(flm)
            refs = {"map": ref, "truncate": sm.truncate(ref), "rectify": sm.rectify(ref)}
            want = {kind: baseline.get(f"digest {name}:{kind}") for kind in refs}
            want["map"] = manifest[name]["canonical_digest"]
            faces = _relabel(flm.faces, flm.vertex_count, rng)
            maps.append({"name": name, "faces": sm.FaceListMap(flm.vertex_count, faces),
                         "refs": refs, "digests": want})
        rng.shuffle(maps)
        if corrupt:
            maps[0]["digests"]["map"] = "0" * 64
        inp.update(chis=chis, maps=maps)
    return inp


class Pass:
    """Timings, checks and exact counters of one pass.

    Every time is taken with ``net_clock``, so it leaves out the host-speed
    samples; ``wall_ref`` and ``cpu_ref`` are ``wall_s`` and ``cpu_s`` in
    reference durations (see the module docstring).
    """

    def __init__(self, sm, inp: dict, tmpdir: Path):
        self.sm = sm
        self.inp = inp
        self.tmpdir = tmpdir
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.wall_ref = 0.0
        self.cpu_ref = 0.0
        self.host = HostSpeed()
        self.analyze_ms: list[float] = []
        self.exact: dict = {}
        self.layer: dict[str, float] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    @contextmanager
    def guard(self, what: str):
        """An exception from semeq fails the operation; the pass goes on."""
        try:
            yield
        except Exception:
            self.attempted += 1
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()

    def add(self, name: str, value: float) -> None:
        self.layer[name] = self.layer.get(name, 0) + value

    def classify(self, chi: int) -> set:
        t = net_clock()
        pairs = self.sm.admissible_types(chi)
        dt = net_clock() - t
        self.add(f"typecalc.admissible_types_s.chi{chi}", dt)
        self.exact[f"pairs chi={chi}"] = len(pairs)
        self.check(len(pairs) == self.inp["pairs"][chi], f"chi={chi}: {len(pairs)} pairs")
        return {row_key(str(p.type), p.n) for p in pairs}

    def analyze(self, m, want_digests, what: str) -> dict:
        t = net_clock()
        a = self.sm.analyze_map(m)
        self.analyze_ms.append((net_clock() - t) * 1e3)
        self.check(a["vertices"] == m.f0 and (want_digests is None
                                             or a["canonical_digest"] in want_digests),
                   f"{what}: analysis digest {a['canonical_digest'][:12]}")
        return a

    def search_stats(self, key: str, r) -> None:
        s = r.stats
        self.exact[f"{key} nodes"] = s.nodes
        self.exact[f"{key} completions"] = s.completions
        self.exact[f"{key} prunes"] = dict(sorted(s.prunes.items()))
        self.exact[f"{key} maps"] = len(r.maps)

    def code_digests(self, codes) -> set:
        return {self.sm.CanonicalCode(c).digest() for c in codes}


def _census(p: Pass) -> None:
    sm, inp = p.sm, p.inp
    present = set()
    with p.guard("classify chi=-1"):
        present = p.classify(-1)
    for key in inp["rows"]:
        with p.guard(f"enumerate {key}"):
            type_string, n = parse_row(key)
            p.check(key in present, f"{key} is not in the chi=-1 classification")
            t = net_clock()
            r = sm.enumerate_maps(type_string, n, -1)
            p.add("search_s", net_clock() - t)
            p.add("search_nodes", r.stats.nodes)
            p.search_stats(key, r)
            p.check(r.complete and len(r.maps) == inp["table"][key]
                    and p.code_digests(r.codes) == inp["digests"][key],
                    f"{key}: {len(r.maps)} maps, complete={r.complete}")
            for m in r.maps:
                p.analyze(m, inp["digests"][key], key)
    for key in inp["witness_rows"]:
        with p.guard(f"exists_any {key}"):
            type_string, n = parse_row(key)
            p.check(key in present, f"{key} is not in the chi=-1 classification")
            t = net_clock()
            m = sm.exists_any(type_string, n, -1, sm.EnumOptions(fresh_first=True))
            dt = net_clock() - t
            p.add("witness_s", dt)
            p.add(f"enumerator.exists_any_s.{row_slug(key)}", dt)
            p.check(m is not None and m.f0 == n and sm.euler_characteristic(m) == -1
                    and str(sm.semi_equivelar_type(m)) == type_string
                    and sm.validate_polyhedral(m).ok, f"{key}: witness")
            p.exact[f"{key} witness"] = p.analyze(m, None, f"{key} witness")["canonical_digest"]


def _parallel(p: Pass) -> None:
    sm, inp = p.sm, p.inp
    present = set()
    with p.guard("classify chi=-1"):
        present = p.classify(-1)
    for key in inp["rows"]:
        with p.guard(f"pool/checkpoint {key}"):
            type_string, n = parse_row(key)
            slug = row_slug(key)
            p.check(key in present, f"{key} is not in the chi=-1 classification")
            c0 = cpu_seconds()
            t = net_clock()
            serial = sm.enumerate_maps(type_string, n, -1)
            serial_wall = net_clock() - t
            c1 = cpu_seconds()
            p.search_stats(key, serial)
            p.add("search_s", serial_wall)
            p.add("search_nodes", serial.stats.nodes)
            p.check(serial.complete and len(serial.maps) == inp["table"][key]
                    and p.code_digests(serial.codes) == inp["digests"][key],
                    f"{key}: serial {len(serial.maps)} maps")

            pool_ckpt = p.tmpdir / f"{slug}.pool.ckpt"
            t = net_clock()
            pooled = sm.enumerate_maps(type_string, n, -1, sm.EnumOptions(
                threads=POOL_PROCESSES, checkpoint_path=str(pool_ckpt)))
            pool_wall = net_clock() - t
            c2 = cpu_seconds()
            p.check(pooled.complete and pooled.codes == serial.codes,
                    f"{key}: {POOL_PROCESSES}-process codes differ from serial")
            p.exact[f"{key} pool nodes"] = pooled.stats.nodes
            p.exact[f"{key} pool checkpoint bytes"] = pool_ckpt.stat().st_size
            p.add("pool_serial_wall_s", serial_wall)
            p.add("pool_serial_cpu_s", c1[0] - c0[0])
            p.add("pool_wall_s", pool_wall)
            p.add("pool_nodes", pooled.stats.nodes)
            p.add("pool_self_cpu_s", c2[0] - c1[0])
            p.add("pool_child_cpu_s", c2[1] - c1[1])

            ckpt = p.tmpdir / f"{slug}.resume.ckpt"
            budget = serial.stats.nodes
            cut = sm.enumerate_maps(type_string, n, -1, sm.EnumOptions(
                checkpoint_path=str(ckpt), node_budget=budget))
            p.check(not cut.complete, f"{key}: budget {budget} did not interrupt")
            size = ckpt.stat().st_size
            t = net_clock()
            resumed = sm.enumerate_maps(type_string, n, -1,
                                        sm.EnumOptions(checkpoint_path=str(ckpt)))
            p.add("resume_s", net_clock() - t)
            p.add("checkpoint_bytes", size)
            p.check(resumed.complete and resumed.codes == serial.codes,
                    f"{key}: resumed codes differ from serial")
            p.exact[f"{key} interrupted nodes"] = cut.stats.nodes
            p.exact[f"{key} resumed nodes"] = resumed.stats.nodes
            p.exact[f"{key} interrupted checkpoint bytes"] = size
            for m in serial.maps:
                p.analyze(m, inp["digests"][key], key)


def _same_map(mapping, m, ref) -> bool:
    """``mapping`` is a vertex bijection carrying the faces of m onto those of ref."""
    if mapping is None or sorted(mapping) != list(range(1, m.f0 + 1)):
        return False
    if sorted(mapping.values()) != list(range(1, ref.f0 + 1)):
        return False
    image = {frozenset(mapping[v] for v in f) for f in m.faces}
    return image == {frozenset(f) for f in ref.faces}


def _classify_analyze(p: Pass) -> None:
    sm, inp = p.sm, p.inp
    for chi in inp["chis"]:
        with p.guard(f"classify chi={chi}"):
            p.classify(chi)
    for item in inp["maps"]:
        name = item["name"]
        maps = {}
        with p.guard(f"transform {name}"):
            m = sm.build_from_faces(item["faces"])
            maps = {"map": m, "truncate": sm.truncate(m), "rectify": sm.rectify(m)}
        for kind, mm in maps.items():
            with p.guard(f"analyze {name}:{kind}"):
                what = f"{name}:{kind}"
                a = p.analyze(mm, {item["digests"][kind]}, what)
                p.exact[f"digest {what}"] = a["canonical_digest"]
                ref = item["refs"][kind]
                p.check(_same_map(sm.isomorphic(mm, ref), mm, ref),
                        f"{what}: no isomorphism to the unrelabeled map")
                back = sm.loads(sm.dumps(mm))
                p.check(back.vertex_count == mm.f0 and sorted(back.faces) == sorted(mm.faces),
                        f"{what}: map-file round trip changed the map")


PASSES = {"census": _census, "parallel": _parallel, "classify-analyze": _classify_analyze}


def run_pass(sm, inp: dict, tmpdir: Path) -> Pass:
    """One pass; its checkpoint files go to a fresh directory under tmpdir."""
    p = Pass(sm, inp, Path(tempfile.mkdtemp(dir=tmpdir)))
    with p.host:
        spent = HostSpeed.spent
        c0 = cpu_seconds()
        t = net_clock()
        PASSES[inp["workload"]](p)
        p.wall_s = net_clock() - t
        c1 = cpu_seconds()
    p.cpu_s = (c1[0] - c0[0]) + (c1[1] - c0[1]) - (HostSpeed.spent - spent)
    p.wall_ref = p.wall_s * p.host.per_second()
    p.cpu_ref = p.cpu_s * p.host.per_second()
    return p
