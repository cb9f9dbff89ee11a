"""Enumeration: sphere oracles, determinism, budgets, checkpoints."""

import hashlib
import json
import os
from itertools import combinations_with_replacement, permutations
from math import gcd, lcm

import pytest

from conftest import ICOSAHEDRON
from semeq import enumerator, symmetry
from semeq.census import analyze_map
from semeq.enumerator import (
    CorruptCheckpointError,
    EnumOptions,
    InconsistentParametersError,
    _checkpoint_bytes,
    _checkpoint_parse,
    _diagnostic,
    _Search,
    enumerate_maps,
    exists_any,
)
from semeq.mapcore import (euler_characteristic, semi_equivelar_type, surface_signature,
                           validate_polyhedral)
from semeq.mapfile import dumps
from semeq.symmetry import canonical_code, isomorphic
from semeq.typecalc import (VertexTypeSpec, admissible_types, face_counts, normalize_cycle,
                            parse_type)


# Ground truth from outside this code: the semi-equivelar maps of the sphere
# are the boundaries of the Platonic and Archimedean solids, the prisms and
# antiprisms, and the pseudo-rhombicuboctahedron (Miller's solid), which
# shares its type with the rhombicuboctahedron.  A chiral snub counts once.
SPHERE_CASES = [
    ("[3^3]", 4, 2, 1),    # tetrahedron
    ("[3^4]", 6, 2, 1),    # octahedron
    ("[4^3]", 8, 2, 1),    # cube
    ("[3,4,3,4]", 12, 2, 1),  # cuboctahedron
    ("[3^5]", 12, 2, 1),   # icosahedron
    ("[5^3]", 20, 2, 1),   # dodecahedron
    ("[3^1,6^2]", 12, 2, 1),   # truncated tetrahedron
    ("[3^1,8^2]", 24, 2, 1),   # truncated cube
    ("[4^1,6^2]", 24, 2, 1),   # truncated octahedron
    ("[3^1,4^3]", 24, 2, 2),   # rhombicuboctahedron and Miller's solid
    ("[4^1,6^1,8^1]", 48, 2, 1),   # truncated cuboctahedron
    ("[3^4,4^1]", 24, 2, 1),   # snub cube
    ("[3^1,5^1,3^1,5^1]", 30, 2, 1),   # icosidodecahedron
    ("[5^1,6^2]", 60, 2, 1),   # truncated icosahedron
    ("[3^1,4^1,5^1,4^1]", 60, 2, 1),   # rhombicosidodecahedron
    ("[4^1,6^1,10^1]", 120, 2, 1),   # truncated icosidodecahedron
    ("[3^4,5^1]", 60, 2, 1),   # snub dodecahedron
    ("[4^2,5^1]", 10, 2, 1),   # pentagonal prism
    ("[4^2,6^1]", 12, 2, 1),   # hexagonal prism
    ("[3^3,4^1]", 8, 2, 1),    # square antiprism
    ("[3^3,5^1]", 10, 2, 1),   # pentagonal antiprism
]


@pytest.mark.parametrize("tstr,n,chi,count", SPHERE_CASES)
def test_sphere_oracles(tstr, n, chi, count):
    r = enumerate_maps(tstr, n, chi)
    assert r.complete
    assert len(r.maps) == count


# Beyond the sphere, one map each: the 7-vertex torus (Moebius, Csaszar),
# and on the projective plane the hemi-icosahedron and hemi-dodecahedron,
# with the (chi, orientable, Euler genus) that surface_signature reports.
SURFACE_CASES = [
    ("[3^6]", 7, 0, (0, True, 2)),
    ("[3^5]", 6, 1, (1, False, 1)),
    ("[5^3]", 10, 1, (1, False, 1)),
]


@pytest.mark.parametrize("tstr,n,chi,signature", SURFACE_CASES)
def test_surface_oracles(tstr, n, chi, signature):
    r = enumerate_maps(tstr, n, chi)
    assert r.complete
    assert len(r.maps) == 1
    assert surface_signature(r.maps[0]) == signature


@pytest.mark.xfail(strict=True, reason="truncated dodecahedron: the tree stalls while the "
                   "open decagon reuses labels, until an Euler-genus prune lands "
                   "(ROADMAP item 4)")
def test_sphere_truncated_dodecahedron():
    r = enumerate_maps("[3^1,10^2]", 60, 2, EnumOptions(node_budget=100000))
    assert r.complete
    assert len(r.maps) == 1


def test_projective_plane_cases():
    # minimal triangulation (K6) and the hemidodecahedron exist; the hemicube
    # is a map but not polyhedral, so it must not be produced
    assert len(enumerate_maps("[3^5]", 6, 1).maps) == 1
    assert len(enumerate_maps("[5^3]", 10, 1).maps) == 1
    assert len(enumerate_maps("[4^3]", 4, 1).maps) == 0


def test_soundness_of_outputs():
    r = enumerate_maps("[3^1,4^1,3^1,4^2]", 12, -1)
    assert r.complete and len(r.maps) == 1
    m = r.maps[0]
    assert validate_polyhedral(m).ok
    assert m.f0 == 12
    assert euler_characteristic(m) == -1
    assert semi_equivelar_type(m).cycle == (3, 4, 3, 4, 4)


@pytest.mark.parametrize("search", [enumerate_maps, exists_any])
@pytest.mark.parametrize("n,chi", [(0, -1), (-12, 1)])
def test_nonpositive_vertex_count_refused(search, n, chi):
    with pytest.raises(InconsistentParametersError, match="vertex count must be positive"):
        search("[3^5,4^1]", n, chi)


@pytest.mark.parametrize("search", [enumerate_maps, exists_any])
@pytest.mark.parametrize("n", [4.0, True])
def test_non_int_vertex_count_refused(search, n):
    with pytest.raises(InconsistentParametersError, match="vertex count must be an int"):
        search("[3^3]", n, 2)


@pytest.mark.parametrize("search", [enumerate_maps, exists_any])
@pytest.mark.parametrize("chi", [-1.0, True])
def test_non_int_euler_characteristic_refused(search, chi):
    with pytest.raises(InconsistentParametersError, match="Euler characteristic must be an int"):
        search("[3^5,4^1]", 12, chi)


def test_inconsistent_parameters_diagnosed():
    r = enumerate_maps("[4^3]", 9, 2)
    assert r.complete and not r.maps and r.diagnostic
    r = enumerate_maps("[4^3,5^1]", 20, 0)
    assert r.complete and not r.maps and "Euler characteristic" in r.diagnostic
    r = enumerate_maps("[3^1,8^1,3^1,8^1]", 12, -1)
    assert r.complete and not r.maps and "closed star" in r.diagnostic


def test_rejected_root_star_step_raises(monkeypatch):
    # the root star always assembles once _diagnostic passes, so a rejected
    # step is a fault of the kernel: the run must not report a tree it never
    # searched as complete
    monkeypatch.setattr(_Search, "_passing", lambda self, fid, raw, limit: [])
    with pytest.raises(RuntimeError, match="root star"):
        enumerate_maps("[3^5,4^1]", 12, -1)


def _diagnosed_rows(max_degree, max_size, max_n):
    """Every (cycle, n, face counts) with degree 3..max_degree, face sizes
    up to max_size and n < max_n that passes _diagnostic, on the Euler
    characteristic the pair forces.  Integral edge and face counts need n
    to be a multiple of the step below, and the closed star needs n >= star."""
    for d in range(3, max_degree + 1):
        for ms in combinations_with_replacement(range(3, max_size + 1), d):
            star = 1 + sum(ms) - 2 * d
            step = lcm(2 // gcd(2, d), *(q // gcd(q, ms.count(q)) for q in set(ms)))
            ns = range(-(-star // step) * step, max_n, step)
            if not ns:
                continue
            for cyc in {normalize_cycle(p) for p in set(permutations(ms))}:
                spec = VertexTypeSpec(cyc)
                for n in ns:
                    xs = face_counts(spec, n)
                    chi = n - n * d // 2 + sum(xs.values())
                    assert _diagnostic(spec, n, chi) is None
                    yield cyc, n, xs


def test_root_star_assembles_whenever_diagnostic_passes():
    # _Search.seed, which the constructor runs, decides no rule: with and
    # without the pair prune, every row that _diagnostic lets through gets
    # its full root star
    rows = list(_diagnosed_rows(6, 12, 120))
    assert len(rows) == 47550
    for cyc, n, xs in rows:
        for pair_prune in (True, False):
            st = _Search(cyc, n, xs, pair_prune)
            assert st.corner_count[1] == st.d, (cyc, n, pair_prune)


def test_budget_exhaustion_reports_incomplete():
    r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(node_budget=50))
    assert not r.complete


def test_codes_pairwise_distinct(census_35_4):
    assert len(set(census_35_4.codes)) == len(census_35_4.maps) == 3


def test_branch_shuffle_same_code_set(census_35_4):
    base = set(census_35_4.codes)
    for seed in (1, 7):
        r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(branch_shuffle_seed=seed))
        assert set(r.codes) == base


def test_thread_count_independence(census_35_4):
    r4 = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(threads=4))
    assert r4.complete
    assert set(r4.codes) == set(census_35_4.codes)


def test_pruning_free_agreement():
    # with the polyhedral-intersection cuts disabled the final validator does
    # all rejection work; the class sets must not change
    for tstr, n, chi, count in SPHERE_CASES[:3]:
        lax = enumerate_maps(tstr, n, chi, EnumOptions(disable_pair_prune=True))
        strict = enumerate_maps(tstr, n, chi)
        assert set(lax.codes) == set(strict.codes)
        assert len(lax.maps) == count


def test_exists_any():
    m = exists_any("[3^3]", 4, 2)
    assert m is not None and m.f0 == 4
    assert exists_any("[3^1,7^1,3^1,7^1]", 21, -1) is None
    tet = enumerate_maps("[3^3]", 4, 2).maps[0]
    assert isomorphic(m, tet) is not None


def test_checkpoint_round_trip(tmp_path, census_35_4):
    path = str(tmp_path / "ck.bin")
    r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path))
    assert r.complete
    assert set(r.codes) == set(census_35_4.codes)
    assert os.path.exists(path)
    # resuming a finished run returns the same maps byte-for-byte
    r2 = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path))
    assert r2.codes == r.codes


def test_pathlib_checkpoint_path_resumes(tmp_path, census_35_4):
    # a pathlib.Path is stored as its str; a cut run saves, and resumes,
    # exactly as the same run given the str
    cuts = []
    for path in (str(tmp_path / "s.ckpt"), tmp_path / "p.ckpt"):
        opts = EnumOptions(checkpoint_path=path, node_budget=2000)
        assert opts.checkpoint_path == str(path)
        assert not enumerate_maps("[3^5,4^1]", 12, -1, opts).complete
        with open(path, "rb") as fh:
            cuts.append(fh.read())
        resumed = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path))
        assert resumed.complete and resumed.codes == census_35_4.codes
    assert cuts[0] == cuts[1]


@pytest.mark.parametrize("path", [b"ck.bin", 7])
def test_non_str_checkpoint_path_rejected(path):
    with pytest.raises(ValueError, match="checkpoint_path must be a str"):
        EnumOptions(checkpoint_path=path)


def test_checkpoint_wrong_params_rejected(tmp_path):
    path = str(tmp_path / "ck.bin")
    enumerate_maps("[3^3]", 4, 2, EnumOptions(checkpoint_path=path))
    with pytest.raises(CorruptCheckpointError):
        enumerate_maps("[3^4]", 6, 2, EnumOptions(checkpoint_path=path))


def test_checkpoint_corrupt_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CorruptCheckpointError):
        enumerate_maps("[3^3]", 4, 2, EnumOptions(checkpoint_path=str(path)))
    path.write_bytes(b"SEMQCKPT" + b"\xff\xff" + b"\x00" * 32)
    with pytest.raises(CorruptCheckpointError):
        enumerate_maps("[3^3]", 4, 2, EnumOptions(checkpoint_path=str(path)))


@pytest.fixture(scope="module")
def complete_checkpoint(tmp_path_factory):
    """The decoded checkpoint of a finished [3^5,4^1]/12 run: three maps,
    nothing pending."""
    path = tmp_path_factory.mktemp("ck") / "ck.json"
    enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=str(path)))
    return json.loads(path.read_bytes())


def test_format1_checkpoint_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"SEMQCKPT\x00\x01" + b"\x00" * 32)
    with pytest.raises(CorruptCheckpointError, match="format-1"):
        enumerate_maps("[3^3]", 4, 2, EnumOptions(checkpoint_path=str(path)))


def test_format2_checkpoint_rejected(tmp_path, complete_checkpoint):
    # a format-2 path indexes the raw candidate lists, not the passing
    # children, so replaying it would search other subtrees than it names
    path = tmp_path / "ck.json"
    doc = {**complete_checkpoint, "format": "semeq-checkpoint/2",
           "pending": [[0, 1, 0, 0, 0, 0, 0, 1, 0, 1]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptCheckpointError, match="format-2.*start the run afresh"):
        enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=str(path)))


# each edit of a finished checkpoint, and the message its resume must give
MALFORMED = {
    "not-utf8": (lambda doc: b'{"format": "\xff"}', "undecodable"),
    "not-an-object": (lambda doc: [doc], "undecodable"),
    "missing-key": (lambda doc: {k: v for k, v in doc.items() if k != "stats"}, "undecodable"),
    "wrong-format": (lambda doc: {**doc, "format": "semeq-checkpoint/4"}, "format"),
    "pending-negative": (lambda doc: {**doc, "pending": [[0, 1, -1]]}, "-1"),
    "pending-true": (lambda doc: {**doc, "pending": [[0, 1, True]]}, "True"),
    "stats-negative": (lambda doc: {**doc, "stats": {**doc["stats"], "nodes": -5}}, "-5"),
    "repeated-vertex": (lambda doc: {**doc, "maps": [[[1, 2, 1]] + doc["maps"][0][1:]]},
                        "repeats a vertex"),
    # the header is compared before any map is rebuilt: with n = 13 every
    # map would fail to build, yet the message names the parameters
    "other-n": (lambda doc: {**doc, "header": {**doc["header"], "n": 13}},
                "different parameters"),
    # a stored map passes the checks a completion passes, or the resume
    # would return it as a fourth class; the icosahedron has 12 vertices,
    # like a [3^5,4^1]/12 map, but type [3^5]
    "wrong-type": (lambda doc: {**doc, "maps": doc["maps"] + [ICOSAHEDRON]},
                   "not a polyhedral map of type"),
}


@pytest.mark.parametrize("edit", sorted(MALFORMED))
def test_malformed_checkpoint_rejected(tmp_path, complete_checkpoint, edit):
    change, message = MALFORMED[edit]
    blob = change(complete_checkpoint)
    path = tmp_path / "ck.json"
    path.write_bytes(blob if isinstance(blob, bytes) else json.dumps(blob).encode())
    with pytest.raises(CorruptCheckpointError, match=message):
        enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=str(path)))


def test_relabelled_duplicate_map_counted_once(tmp_path, complete_checkpoint, census_35_4):
    # codes are recomputed from the faces, so a relabelled copy of a stored
    # map cannot pass as a fourth isomorphism class
    maps = complete_checkpoint["maps"]
    copy = [[13 - v for v in face] for face in maps[0]]
    assert copy not in maps
    path = tmp_path / "ck.json"
    path.write_text(json.dumps({**complete_checkpoint, "maps": maps + [copy]}))
    r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=str(path)))
    assert r.complete and r.codes == census_35_4.codes


def test_interrupted_checkpoint_resume(tmp_path, census_35_4):
    """Stop a run mid-way via a node budget, then resume to completion: the
    final map set must equal the uninterrupted run's, byte for byte."""
    path = str(tmp_path / "ck.bin")
    partial = enumerate_maps(
        "[3^5,4^1]", 12, -1,
        EnumOptions(checkpoint_path=path, node_budget=2000),
    )
    assert not partial.complete
    resumed = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path))
    assert resumed.complete
    assert resumed.codes == census_35_4.codes


# The search tree is part of the contract: a faster kernel must visit the
# same nodes, prune the same candidates and address subtrees the same way.
# The counts are those of fail-first branching (each extension node takes the
# face end with fewer passing children) with each face pair decided when it
# forms; censusbench/baseline.json still holds the counts from before both.
@pytest.mark.parametrize("tstr,nodes,completions,prunes", [
    ("[3^1,4^1,3^1,4^2]", 6919, 4, {"constraint": 20729}),
    ("[3^5,4^1]", 8465, 32, {"constraint": 20737}),
], ids=["[3^1,4^1,3^1,4^2]", "[3^5,4^1]"])
def test_search_tree_pinned(tstr, nodes, completions, prunes):
    stats = enumerate_maps(tstr, 12, -1).stats
    assert (stats.nodes, stats.completions, stats.prunes) == (nodes, completions, prunes)


# without the pair prune the tree depends on the other checks alone, and the
# final validator rejects the completions that the pair test would cut
@pytest.mark.parametrize("tstr,nodes,completions,prunes,nonpolyhedral", [
    ("[3^1,4^1,3^1,4^2]", 32012, 12, {"constraint": 90291}, 8),
    ("[3^5,4^1]", 16097, 40, {"constraint": 36762}, 8),
], ids=["[3^1,4^1,3^1,4^2]", "[3^5,4^1]"])
def test_no_pair_prune_tree_pinned(tstr, nodes, completions, prunes, nonpolyhedral):
    stats = enumerate_maps(tstr, 12, -1, EnumOptions(disable_pair_prune=True)).stats
    assert (stats.nodes, stats.completions, stats.prunes, stats.rejected_nonpolyhedral) == (
        nodes, completions, prunes, nonpolyhedral)


# the same contract outside chi = -1, on the two largest sphere rows
@pytest.mark.parametrize("tstr,n,nodes", [
    ("[4^1,6^1,10^1]", 120, 58480),
    ("[3^4,5^1]", 60, 25094),
], ids=["[4^1,6^1,10^1]", "[3^4,5^1]"])
def test_sphere_search_tree_pinned(tstr, n, nodes):
    assert enumerate_maps(tstr, n, 2).stats.nodes == nodes


def test_checkpoint_subtree_paths_pinned(tmp_path):
    # a budget of one node stops the session in its first subtree, so the
    # checkpoint holds the whole split frontier
    path = str(tmp_path / "ck.bin")
    r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path, node_budget=1))
    assert not r.complete
    with open(path, "rb") as fh:
        _, pending, _, _ = _checkpoint_parse(fh.read())
    assert len(pending) == 111
    assert pending[0] == (0, 0, 0, 0, 0, 0, 0, 0, 1, 0)
    digest = hashlib.sha256(json.dumps([list(p) for p in pending]).encode()).hexdigest()
    assert digest == "f27e06f45f6ce596cb3909f8876f59b0b032aa2579d69817a297c940e5cd852c"


def _resume_with_first_path(tmp_path, tampered):
    """Cut [3^5,4^1]/12 at one node, let ``tampered`` rewrite the pending
    paths (a path lists indices of a node's children, the candidates that
    passed), and resume from the rewritten checkpoint."""
    path = str(tmp_path / "ck.bin")
    enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path, node_budget=1))
    with open(path, "rb") as fh:
        header, pending, maps, stats = _checkpoint_parse(fh.read())
    assert pending[0] == (0, 0, 0, 0, 0, 0, 0, 0, 1, 0)
    new = tampered(pending)
    # the tampered path replaces the one it extends (the first one when it
    # extends none), so that no two pending paths overlap
    at = next((i for i, p in enumerate(pending) if new[:len(p)] == p), 0)
    pending[at] = new
    with open(path, "wb") as fh:
        fh.write(_checkpoint_bytes(header, pending, maps, stats))
    return enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path))


def test_tampered_path_with_rejected_step_refused(tmp_path):
    # a pending path is replaced by one whose last index names a child whose
    # step is rejected once applied: the resume must refuse the checkpoint
    # rather than count the subtree as searched
    for step in ("start", "closing"):  # a new face, or a size supply spent
        rejected = _first_path("[3^5,4^1]", 12, step)
        assert rejected is not None
        (tmp_path / step).mkdir()
        with pytest.raises(CorruptCheckpointError, match="rejected at replay"):
            _resume_with_first_path(tmp_path / step, lambda pending: rejected)


def test_tampered_path_past_children_refused(tmp_path):
    # the last node of the first pending path has four raw candidates, of
    # which three pass: index 3 names a candidate, but no child
    with pytest.raises(CorruptCheckpointError, match="does not exist"):
        _resume_with_first_path(tmp_path, lambda pending: pending[0][:-1] + (3,))


def test_overlapping_pending_paths_refused(tmp_path):
    # a subtree named twice, or named with a subtree of it, would be searched
    # twice, and the resume would report complete=True with inflated counts
    path = str(tmp_path / "ck.bin")
    enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path, node_budget=1))
    with open(path, "rb") as fh:
        header, pending, maps, stats = _checkpoint_parse(fh.read())
    for paths in (pending + pending[:40], pending + [pending[5] + (0, 1)],
                  [pending[5][:-1]] + pending):
        with open(path, "wb") as fh:
            fh.write(_checkpoint_bytes(header, paths, maps, stats))
        with pytest.raises(CorruptCheckpointError, match="overlap"):
            enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path))


def _first_path(tstr, n, target):
    """The child indices, as find_slot lists them, from the root of the
    search to the first node it completes in depth-first order (target
    "leaf"), or to the first child whose step is rejected once applied: a
    new face ("start") or a step that closes the open face ("closing")."""
    spec = parse_type(tstr)
    st = _Search(spec.cycle, n, face_counts(spec, n), True)

    def dfs():
        kind, a, b, cands = st.find_slot()
        if kind == "complete":
            return () if target == "leaf" else None
        step = kind if kind == "start" else (
            "closing" if len(st.fpath[a]) + 1 == st.fsize[a] else "extend")
        for idx, cand in enumerate(cands):
            mark = len(st.journal)
            ok = st._start_face(cand, b, a) if kind == "start" else st._append_vertex(a, cand)
            rest = dfs() if ok else (() if step == target else None)
            st.undo_to(mark)
            if rest is not None:
                return (idx,) + rest
        return None

    return dfs()


def test_tampered_path_past_a_leaf_refused(tmp_path):
    # a completed node has no children, so a path that runs one index past
    # it names no subtree; resuming it would collect the leaf and report the
    # pending subtree it replaced as searched
    leaf = _first_path("[3^5,4^1]", 12, "leaf")
    assert leaf is not None
    with pytest.raises(CorruptCheckpointError, match="does not exist"):
        _resume_with_first_path(tmp_path, lambda pending: leaf + (0,))


def test_fresh_first_witness_pinned():
    # the census witness rows depend on the fresh_first branch order
    m = exists_any("[3^1,4^1,7^1,4^1]", 42, -1, EnumOptions(fresh_first=True))
    assert canonical_code(m).digest() == (
        "8c0caab2e03232a92cdd7d03934953eef99bd62c00c480a38f837aa914d9578b"
    )


def test_cut_witness_run_pinned():
    # the row where candidates that end no arc are skipped most often; a
    # budget cut shows that each opened extension node counts its rejected
    # candidates when it is opened
    r = enumerate_maps("[4^1,6^1,14^1]", 84, -1,
                       EnumOptions(fresh_first=True, node_budget=2000))
    assert not r.complete
    assert r.stats.to_dict() == {
        "nodes": 2001, "completions": 0, "rejected_nonpolyhedral": 0,
        "rejected_wrong_type": 0, "rejected_wrong_size": 0,
        "prunes": {"budget": 1, "constraint": 65149},
    }


@pytest.mark.parametrize("threads", [1, 2])
def test_resumed_run_counts_each_node_once(tmp_path, threads):
    # the checkpoint holds the counts of finished subtrees only, so the
    # subtree a budget cut stops in is counted once, when it is resumed
    path = str(tmp_path / "ck.bin")
    cut = enumerate_maps(
        "[3^5,4^1]", 12, -1,
        EnumOptions(checkpoint_path=path, node_budget=2000, threads=threads),
    )
    assert not cut.complete and cut.stats.prunes["budget"] >= 1
    resumed = enumerate_maps("[3^5,4^1]", 12, -1,
                             EnumOptions(checkpoint_path=path, threads=threads))
    assert resumed.complete
    assert resumed.stats.to_dict() == enumerate_maps("[3^5,4^1]", 12, -1).stats.to_dict()
    assert resumed.stats.nodes == 8465
    assert resumed.stats.prunes == {"constraint": 20737}


def test_empty_frontier_still_checkpointed(tmp_path):
    # the tetrahedron's whole tree lies above the split depth: the run has
    # no subtree to hand out, yet its checkpoint records the finished search
    path = str(tmp_path / "ck.bin")
    r = enumerate_maps("[3^3]", 4, 2, EnumOptions(threads=2, checkpoint_path=path))
    with open(path, "rb") as fh:
        _, pending, maps, _ = _checkpoint_parse(fh.read())
    assert pending == [] and list(maps) == list(r.codes)


@pytest.mark.parametrize("field", ["threads"])
def test_nonpositive_counts_rejected(field):
    with pytest.raises(ValueError):
        enumerate_maps("[3^3]", 4, 2, EnumOptions(**{field: 0}))


@pytest.mark.parametrize("field,value", [
    ("threads", 2.5), ("threads", True), ("threads", "2"),
    ("node_budget", 10.5), ("node_budget", True), ("node_budget", 0.0),
])
def test_non_integer_counts_rejected(field, value):
    # a bool or a float is no count: before, threads=2.5 failed inside the
    # pool, threads=True ran as 1, and node_budget=10.5 cut after 11 nodes
    with pytest.raises(ValueError, match=field):
        EnumOptions(**{field: value})


def test_negative_node_budget_rejected():
    with pytest.raises(ValueError, match="node_budget"):
        EnumOptions(node_budget=-1)
    # a zero budget stays valid: the run is cut at its first node
    r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(node_budget=0))
    assert not r.complete and r.stats.prunes["budget"] == 1


@pytest.mark.parametrize("budget", [1, 2000, None])
def test_split_run_independent_of_threads(tmp_path, budget):
    # finished subtrees are merged in queue order, so a cut run too stops
    # at the same subtree and saves the same checkpoint whatever the pool
    runs = []
    for threads in (1, 2):
        path = tmp_path / f"t{threads}.ckpt"
        r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(
            threads=threads, checkpoint_path=str(path), node_budget=budget))
        runs.append((r.complete, r.stats.to_dict(), path.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == (budget is None)


def test_split_maps_independent_of_threads(census_35_4):
    # the face lists, not only the codes, of the unsplit run
    def written(r):
        return [m.faces for m in r.maps], [dumps(m) for m in r.maps]

    reference = written(census_35_4)
    for threads in (2, 4):
        r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(threads=threads))
        assert written(r) == reference


def test_fresh_first_honoured_in_unsplit_runs(census_35_4):
    # a complete run visits the same tree in another order...
    r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(fresh_first=True))
    assert r.complete and r.codes == census_35_4.codes
    assert r.stats.to_dict() == census_35_4.stats.to_dict()
    # ...while a budget cut shows that the order changed
    plain = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(node_budget=500))
    fresh = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(node_budget=500, fresh_first=True))
    assert plain.stats.prunes != fresh.stats.prunes


@pytest.mark.parametrize("order", [{"fresh_first": True}, {"branch_shuffle_seed": 3}])
@pytest.mark.parametrize("split", [{"threads": 2}, {"checkpoint_path": "unused.ckpt"}])
def test_branch_order_rejected_in_split_runs(order, split):
    with pytest.raises(ValueError, match="subtree replay"):
        EnumOptions(**order, **split)


def test_empty_checkpoint_path_rejected():
    # an empty path split the run like a checkpoint, but _drive never read or
    # wrote the file, so a cut session could not be resumed
    with pytest.raises(ValueError, match="checkpoint_path"):
        EnumOptions(checkpoint_path="")


class _RecordingTable(dict):
    """A class table that counts the keys stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = 0

    def __setitem__(self, key, value):
        self.stored += 1
        super().__setitem__(key, value)


def test_search_scans_each_class_once(monkeypatch, census_35_4):
    # 32 completions of 3 classes: each class is scanned by its first
    # completion, and the other 29 are known from the class table
    scans = []

    def counting_scan(m):
        scans.append(m)
        return scan(m)

    scan = symmetry._scan
    monkeypatch.setattr(symmetry, "_scan", counting_scan)
    r = enumerate_maps("[3^5,4^1]", 12, -1)
    assert (r.stats.completions, len(r.maps), len(scans)) == (32, 3, 3)
    assert r.codes == census_35_4.codes
    assert [m.faces for m in r.maps] == [m.faces for m in census_35_4.maps]


def test_class_table_scope(monkeypatch, tmp_path):
    table = _RecordingTable()
    monkeypatch.setattr(enumerator, "_classes", table)
    # a witness search neither fills nor reads the table
    assert exists_any("[3^5,4^1]", 12, -1) is not None
    assert table.stored == 0
    # a search fills it and empties it when it returns...
    enumerate_maps("[3^5,4^1]", 12, -1)
    assert table.stored > 0 and not table
    # ...or raises: the last pending path is tampered, so the resume fills
    # the table from the paths before it and then refuses the checkpoint
    path = str(tmp_path / "ck.bin")
    enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path, node_budget=1))
    with open(path, "rb") as fh:
        header, pending, maps, stats = _checkpoint_parse(fh.read())
    pending[-1] = pending[-1] + (99,)
    with open(path, "wb") as fh:
        fh.write(_checkpoint_bytes(header, pending, maps, stats))
    table.stored = 0
    with pytest.raises(CorruptCheckpointError, match="does not exist"):
        enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path))
    assert table.stored > 0 and not table


@pytest.mark.parametrize("budget", [1, 2000])
def test_resumed_run_returns_unsplit_maps(tmp_path, census_35_4, budget):
    path = str(tmp_path / "ck.bin")
    cut = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path,
                                                          node_budget=budget))
    assert not cut.complete
    r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path))
    assert r.complete and r.codes == census_35_4.codes
    assert [dumps(m) for m in r.maps] == [dumps(m) for m in census_35_4.maps]


@pytest.fixture
def scans(monkeypatch):
    """The maps symmetry._scan runs on, in call order."""
    seen = []
    scan = symmetry._scan

    def counting_scan(m):
        seen.append(m)
        return scan(m)

    monkeypatch.setattr(symmetry, "_scan", counting_scan)
    return seen


def test_census_rows_scan_each_class_once(scans):
    # the search keeps the copy of each class it scanned, so analysis of
    # the returned maps scans nothing more: 7 classes, 7 scans
    pairs = [p for p in admissible_types(-1) if p.n <= 21]
    maps = [m for p in pairs for m in enumerate_maps(p.type, p.n, -1).maps]
    for m in maps:
        analyze_map(m)
    assert (len(pairs), len(maps), len(scans)) == (8, 7, 7)


def test_resumed_run_scans_each_class_once(tmp_path, scans, census_35_4):
    # the cut run finds no class; the resume scans the 3 classes once each,
    # in the search, and the analysis reuses those scans
    path = str(tmp_path / "ck.json")
    cut = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path,
                                                          node_budget=2000))
    assert not cut.complete
    r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path))
    for m in r.maps:
        analyze_map(m)
    assert r.complete and r.codes == census_35_4.codes
    assert len(scans) == 3


def test_checkpoint_maps_join_class_table(tmp_path, scans, census_35_4):
    # the cut run saves all 3 classes with 18 paths still pending: the load
    # scans each saved map once, and the classes enter the class table, so
    # their later completions and the analysis scan nothing more
    path = str(tmp_path / "ck.json")
    enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path, node_budget=20000))
    with open(path, "rb") as fh:
        _, pending, saved, _ = _checkpoint_parse(fh.read())
    assert (len(saved), len(pending)) == (3, 18)
    scans.clear()
    r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=path))
    for m in r.maps:
        analyze_map(m)
    assert r.complete and r.codes == census_35_4.codes
    assert len(scans) == 3


def test_pooled_maps_carry_their_scan(scans, census_35_4):
    # each map is scanned in the worker that completed it and arrives with
    # its scan, so the calling process scans nothing
    r = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(threads=2))
    for m in r.maps:
        analyze_map(m)
    assert r.codes == census_35_4.codes
    assert all(m._canon is not None for m in r.maps)
    assert scans == []

