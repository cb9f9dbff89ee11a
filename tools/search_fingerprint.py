"""Print one SHA-256 per section of what the chi = -1 search produces.

A change that must leave the search tree alone (a faster kernel, a faster
canonical scan) should leave every line of this output as it is.  A change
that reshapes the tree but not its results (another branching rule, or a
stronger prune that keeps every map) moves rows, scans, checkpoint, resume
and witness, and leaves classify, maps and census as they are.  A change
to which labelled copy of each class a search returns moves only rows and
scans, the two lines that hash the returned copies as they are labelled:

  classify    the (n, cycle, face_counts, filters_passed) rows of
              admissible_types for chi = -1 ... -4 under the default options,
              min_face_count=1, and prop1=False with closed_star=False
  rows        stats, codes and map files of every admissible row with
              n <= 24, under the default options, disable_pair_prune,
              branch_shuffle_seed=7, node_budget=500 and threads=2;
              disable_pair_prune skips [3^4,8^1]/24, whose tree it grows
              from 671,918 nodes to more than 2,000,000
  maps        the codes and map files of the same rows under every option
              set that searches the whole tree (all but node_budget=500,
              whose cut falls where the tree puts it), without the stats;
              each map is written relabelled canonically, since which
              labelled copy of a map the search keeps depends on the tree
  checkpoint  the decoded checkpoint of each of those rows cut at
              node_budget=1000: header, pending paths, codes, faces and
              stats, so that two checkpoint formats holding the same
              content give the same line
  resume      each of those cuts resumed to completion: complete, stats
              and codes
  scans       the canonical scan (code, minimizing starts, traversal order,
              flag orbits), the automorphism group elements and structure
              label, and the analyze_map record of every map the default
              run of those rows returns, and of every fixture, its
              truncation and its rectification, each also in three seeded
              shuffled copies (vertices renamed, faces reordered, rotated
              and reversed), so that the least-code start falls at other
              flag positions
  witness     the face lists and canonical digests of the fresh_first
              witnesses of the four existence rows, and the complete flag,
              stats and codes of each of those rows searched fresh_first
              and cut at node_budget=20000, which reaches the large rows
              (n = 40 to 84) that the rows line does not
  census      stdout of `semeq census --chi -1 --json`

Usage: python tools/search_fingerprint.py [CHECKOUT]

CHECKOUT is the repository whose src/ is fingerprinted (default: the one
this script sits in), so a second checkout can be compared without copying
the script into it.  Takes about six minutes on 2 CPUs; [3^4,8^1]/24
dominates.

tools/search_fingerprint.expected holds the 8 lines this tree prints, and
CI diffs the output against it: a change that moves the search shows the
moved lines in review, and commits the new lines with it.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from semeq.census import analyze_map  # noqa: E402
from semeq.enumerator import EnumOptions, _checkpoint_parse, enumerate_maps, exists_any  # noqa: E402
from semeq.fixtures import fixture_map, fixture_names  # noqa: E402
from semeq.mapcore import FaceListMap, build_from_faces, face_list_of  # noqa: E402
from semeq.mapfile import dumps  # noqa: E402
from semeq.symmetry import (_canonical_form, automorphism_group, canonical_code,  # noqa: E402
                            canonical_order)
from semeq.transforms import rectify, truncate  # noqa: E402
from semeq.typecalc import FilterOptions, admissible_types  # noqa: E402

from layer_ab import shuffled_faces  # noqa: E402

OPTION_SETS = {
    "default": {},
    "no-pair-prune": {"disable_pair_prune": True},
    "shuffle-7": {"branch_shuffle_seed": 7},
    "budget-500": {"node_budget": 500},
    "threads-2": {"threads": 2},
}
SLOW_WITHOUT_PAIR_PRUNE = {("[3^4,8^1]", 24)}
WITNESS_ROWS = [("[6^2,7^1]", 42), ("[3^1,4^1,7^1,4^1]", 42),
                ("[4^1,8^1,10^1]", 40), ("[4^1,6^1,14^1]", 84)]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def classify_section() -> str:
    out = []
    for kw in ({}, {"min_face_count": 1}, {"prop1": False, "closed_star": False}):
        for chi in (-1, -2, -3, -4):
            out.append([[p.n, p.type.cycle, sorted(p.face_counts.items()), p.filters_passed]
                        for p in admissible_types(chi, FilterOptions(**kw))])
    return _digest(out)


def _canonical_file(m) -> str:
    """The map file of m relabelled canonically: vertices numbered in the
    order the canonical traversal first reaches them, each face read from
    its least rotation in either direction, faces sorted."""
    label = {}
    for fl in canonical_order(m):
        label.setdefault(m.vertex_of[fl] + 1, len(label) + 1)  # vertex_of is 0-based
    faces = []
    for f in m.faces:
        cyc = [label[v] for v in f]
        k = len(cyc)
        faces.append(min(tuple(w[i:] + w[:i]) for w in (cyc, cyc[::-1]) for i in range(k)))
    return dumps(FaceListMap(m.f0, tuple(sorted(faces))))


def rows_and_maps_sections(rows) -> tuple[str, str, list]:
    """The rows and maps lines, and the maps of the default runs."""
    out, maps, default = [], [], []
    for name, kw in OPTION_SETS.items():
        for pair in rows:
            row = (str(pair.type), pair.n)
            if kw.get("disable_pair_prune") and row in SLOW_WITHOUT_PAIR_PRUNE:
                continue
            r = enumerate_maps(pair.type, pair.n, -1, EnumOptions(**kw))
            codes = [c.hex() for c in r.codes]
            out.append([name, str(pair.type), pair.n, r.complete, r.stats.to_dict(),
                        codes, [dumps(m) for m in r.maps]])
            if "node_budget" not in kw:
                maps.append([name, str(pair.type), pair.n, codes,
                             [_canonical_file(m) for m in r.maps]])
            if not kw:
                default += r.maps
    return _digest(out), _digest(maps), default


def scans_section(found) -> str:
    maps = list(found)
    rng = random.Random(3)
    for name in fixture_names():
        m = fixture_map(name)
        for x in (m, truncate(m), rectify(m)):
            flm = face_list_of(x)
            maps += [x] + [build_from_faces(FaceListMap(flm.vertex_count, shuffled_faces(flm, rng)))
                           for _ in range(3)]
    out = []
    for m in maps:
        form = _canonical_form(m)
        group = automorphism_group(m)
        out.append([form.code.hex(), form.starts, form.order, form.orbits,
                    group.elements, group.structure,
                    json.dumps(analyze_map(m), sort_keys=True)])
    return _digest(out)


def _faces(m):
    # a checkpoint parsed by an older checkout holds bare face lists
    return getattr(m, "faces", m)


def checkpoint_and_resume_sections(rows) -> tuple[str, str]:
    saved, resumed = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i, pair in enumerate(rows):
            path = os.path.join(tmp, f"row{i}.ckpt")
            enumerate_maps(pair.type, pair.n, -1,
                           EnumOptions(checkpoint_path=path, node_budget=1000))
            with open(path, "rb") as fh:
                header, pending, maps, stats = _checkpoint_parse(fh.read())
            saved.append([header, [list(p) for p in pending],
                          [[c.hex(), _faces(maps[c])] for c in sorted(maps)], stats.to_dict()])
            r = enumerate_maps(pair.type, pair.n, -1, EnumOptions(checkpoint_path=path))
            resumed.append([str(pair.type), pair.n, r.complete, r.stats.to_dict(),
                            [c.hex() for c in r.codes]])
    return _digest(saved), _digest(resumed)


def witness_section() -> str:
    out = []
    for tstr, n in WITNESS_ROWS:
        m = exists_any(tstr, n, -1, EnumOptions(fresh_first=True))
        out.append(None if m is None else [m.faces, canonical_code(m).digest()])
    for tstr, n in WITNESS_ROWS:
        r = enumerate_maps(tstr, n, -1, EnumOptions(fresh_first=True, node_budget=20000))
        out.append([tstr, n, r.complete, r.stats.to_dict(), [c.hex() for c in r.codes]])
    return _digest(out)


def census_section() -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-m", "semeq.cli", "census", "--chi", "-1", "--json"],
                         env=env, capture_output=True, check=True)
    return hashlib.sha256(out.stdout).hexdigest()


def main() -> None:
    print("classify", classify_section(), flush=True)
    rows = [p for p in admissible_types(-1) if p.n <= 24]
    rows_line, maps_line, found = rows_and_maps_sections(rows)
    print("rows", rows_line, flush=True)
    print("maps", maps_line, flush=True)
    print("scans", scans_section(found), flush=True)
    checkpoint, resume = checkpoint_and_resume_sections(rows)
    print("checkpoint", checkpoint, flush=True)
    print("resume", resume, flush=True)
    print("witness", witness_section(), flush=True)
    print("census", census_section(), flush=True)


if __name__ == "__main__":
    main()
