"""Canonical codes, isomorphism, automorphisms, orbits, link graphs."""

import hashlib
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CUBE, OCTAHEDRON, TETRAHEDRON
from oracles import canonical_scan_full, gi_buckets_pairwise, gi_summary_pairwise

from semeq import symmetry
from semeq.census import analyze_map
from semeq.fixtures import fixture_map, fixture_names
from semeq.mapcore import FaceListMap, build_from_faces, face_list_of
from semeq.mapfile import dumps
from semeq.symmetry import (
    automorphism_group,
    canonical_code,
    gi_graph,
    is_vertex_transitive,
    isomorphic,
    recognize_group,
    vertex_orbits,
)
from semeq.transforms import rectify, truncate


def relabeled(flm: FaceListMap, rng: random.Random) -> FaceListMap:
    p = list(range(1, flm.vertex_count + 1))
    rng.shuffle(p)
    perm = {i + 1: p[i] for i in range(flm.vertex_count)}
    return FaceListMap(flm.vertex_count, tuple(tuple(perm[v] for v in f) for f in flm.faces))


@pytest.mark.parametrize("flm", [TETRAHEDRON, CUBE, OCTAHEDRON])
def test_canonical_code_relabel_invariance(flm):
    base = canonical_code(build_from_faces(flm))
    rng = random.Random(2024)
    for _ in range(25):
        assert canonical_code(build_from_faces(relabeled(flm, rng))) == base


def test_codes_distinguish(tetrahedron, cube, octahedron):
    codes = {canonical_code(m).data for m in (tetrahedron, cube, octahedron)}
    assert len(codes) == 3


def test_isomorphic_witness_maps_faces(cube):
    rng = random.Random(5)
    other_flm = relabeled(CUBE, rng)
    other = build_from_faces(other_flm)
    bij = isomorphic(cube, other)
    assert bij is not None
    target_faces = {frozenset(f) for f in other.faces}
    for f in cube.faces:
        assert frozenset(bij[v] for v in f) in target_faces


def test_isomorphic_none_for_different_maps(cube, tetrahedron, census_4451):
    assert isomorphic(cube, tetrahedron) is None
    # equal flag counts, so the codes decide
    a, b = census_4451.maps[:2]
    assert a.flag_count == b.flag_count
    assert canonical_code(a) != canonical_code(b)
    assert isomorphic(a, b) is None


def test_self_isomorphism(cube):
    bij = isomorphic(cube, cube)
    assert bij is not None
    assert sorted(bij) == list(range(1, 9))


def brute_force_vertex_aut_count(flm: FaceListMap) -> int:
    faceset = {frozenset(f) for f in flm.faces}
    # a genuine map automorphism must also preserve face boundaries as cycles,
    # but for these small reference maps set-preservation already suffices
    count = 0
    for p in itertools.permutations(range(1, flm.vertex_count + 1)):
        perm = {i + 1: p[i] for i in range(flm.vertex_count)}
        if all(frozenset(perm[v] for v in f) in faceset for f in flm.faces):
            count += 1
    return count


@pytest.mark.parametrize("flm", [TETRAHEDRON, CUBE, OCTAHEDRON])
def test_automorphism_order_matches_brute_force(flm):
    m = build_from_faces(flm)
    g = automorphism_group(m)
    assert g.order == brute_force_vertex_aut_count(flm)
    assert 4 * m.f1 % g.order == 0


def test_tetrahedron_vertex_action_is_symmetric_group(tetrahedron):
    g = automorphism_group(tetrahedron)
    assert g.order == 24
    assert sorted(set(g.vertex_action)) == sorted(
        set(itertools.permutations(range(4)))
    )


def test_vertex_orbits(cube):
    assert vertex_orbits(cube) == [tuple(range(1, 9))]
    assert is_vertex_transitive(cube)
    bip = build_from_faces(
        FaceListMap(5, ((1, 2, 3), (1, 3, 4), (1, 4, 2), (5, 2, 3), (5, 3, 4), (5, 4, 2)))
    )
    assert vertex_orbits(bip) == [(1, 5), (2, 3, 4)]
    assert not is_vertex_transitive(bip)


def test_gi_graph_tetrahedron(tetrahedron):
    g2 = gi_graph(tetrahedron, 2)
    assert set(g2.edges) == {(a, b) for a in range(1, 5) for b in range(a + 1, 5)}
    g0 = gi_graph(tetrahedron, 0)
    assert g0.edges == ()
    # every pair shares two link vertices, so there is no bucket "0"
    assert analyze_map(tetrahedron)["gi_graphs"] == {
        "2": {"edges": 6, "degree_multiset_constant": True}}
    # an i that no pair has gives an empty graph
    assert gi_graph(tetrahedron, 3).edges == () and gi_graph(tetrahedron, 7).edges == ()


def test_gi_bucket_with_isolated_vertices_is_not_constant():
    # G_2 of this map is two disjoint edges on 12 vertices: its degree
    # multiset mixes 0 and 1, so it is not constant
    m = fixture_map("chi-1-3e5-4e1-1")
    g2 = gi_graph(m, 2)
    assert g2.degree_multiset() == (0,) * 8 + (1,) * 4
    assert analyze_map(m)["gi_graphs"]["2"] == {"edges": 2, "degree_multiset_constant": False}


def test_gi_graphs_match_pairwise_oracle(census_4451, census_35_4):
    """analyze_map's G_i summary and gi_graph's edge lists against the
    pairwise oracle, on the fixtures, their truncations and rectifications,
    the chi = -1 search maps, three shuffled copies of each, and the 16 x 16
    quad torus."""
    rng = random.Random(31)
    bases = list(census_4451.maps) + list(census_35_4.maps)
    for name in fixture_names():
        m = fixture_map(name)
        bases += [m, truncate(m), rectify(m)]
    cases = [x for m in bases for x in [m] + [shuffled(m, rng) for _ in range(3)]]
    cases.append(build_from_faces(quad_torus(16)))
    for m in cases:
        assert analyze_map(m)["gi_graphs"] == gi_summary_pairwise(m)
        buckets = gi_buckets_pairwise(m)
        for i in range(max(buckets) + 2):
            assert gi_graph(m, i).edges == tuple(buckets.get(i, ())), (m.faces, i)


def _cyclic(n, degree):
    base = tuple(range(degree))
    return [tuple((i + k) % degree for i in base) for k in range(n)]


def _compose(p, q):
    return tuple(p[x] for x in q)


def _generate(*gens):
    """Every element of the permutation group the generators generate."""
    elems = set()
    frontier = [tuple(range(len(gens[0])))]
    while frontier:
        g = frontier.pop()
        if g not in elems:
            elems.add(g)
            frontier += [_compose(g, h) for h in gens]
    return sorted(elems)


def test_recognize_group_catalog():
    ident3 = tuple(range(3))
    assert recognize_group([ident3]) == "trivial"
    z2 = [tuple(range(2)), (1, 0)]
    assert recognize_group(z2) == "Z_2"
    z4 = [tuple((i + k) % 4 for i in range(4)) for k in range(4)]
    assert recognize_group(z4) == "Z_4"
    klein = [
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    ]
    assert recognize_group(klein) == "D_2 (Klein four)"
    # dihedral of order 8 acting on the square's corners
    elems = _generate((1, 2, 3, 0), (3, 2, 1, 0))
    assert recognize_group(elems) == "D_4"
    # the same group acting on its own 8 elements by left multiplication:
    # another faithful action, the same label
    index = {g: i for i, g in enumerate(elems)}
    regular = [tuple(index[_compose(g, h)] for h in elems) for g in elems]
    assert len(set(regular)) == 8
    assert recognize_group(regular) == "D_4"
    # symmetric group S4 = order 24 > 16
    s4 = list(itertools.permutations(range(4)))
    assert recognize_group(s4) == "unrecognized(24)"
    # elementary abelian: three commuting transpositions, two disjoint 3-cycles
    z2_cubed = _generate((1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4))
    assert recognize_group(z2_cubed) == "elementary-abelian (Z_2^3)"
    z3_squared = _generate((1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3))
    assert recognize_group(z3_squared) == "elementary-abelian (Z_3^2)"
    # outside the catalog: Z_4 x Z_2 (abelian, not dihedral) and A_4
    z4_z2 = _generate((1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4))
    assert len(z4_z2) == 8 and recognize_group(z4_z2) == "unrecognized(8)"
    a4 = _generate((1, 2, 0, 3), (1, 0, 3, 2))
    assert len(a4) == 12 and recognize_group(a4) == "unrecognized(12)"


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_canonical_code_random_relabelings_property(seed):
    rng = random.Random(seed)
    flm = random.Random(seed).choice([TETRAHEDRON, CUBE, OCTAHEDRON])
    base = canonical_code(build_from_faces(flm))
    assert canonical_code(build_from_faces(relabeled(flm, rng))) == base


# SHA-256 of each output over the 48 maps below, recorded before the
# canonical scan was cached on the map; the cache must not change a byte
PINNED_DIGESTS = {
    "analyze": "265f2127f50856806b211594c9eba1eaaeee54373c4d2d8585baafa138784e1d",
    "dumps": "7b12663d69a84fcfdc34130a0f8049e70c9b39b3d3942ba5cdbc1042af6bb3a5",
    "aut": "bf3847010cd673ca65dd5a38b45fc7c0da86b99b1dca2081a37c5543f4d8a433",
    "iso": "e6d1a3d4bd5bf0e77a8d15497a854c7d3214e5ae8c9a00bce3bd81d3175cc8ed",
}


def test_outputs_pinned_over_fixtures_and_transforms():
    # every fixture, its truncation and its rectification
    maps = []
    for name in fixture_names():
        m = fixture_map(name)
        maps += [m, truncate(m), rectify(m)]
    assert len(maps) == 48
    h = {key: hashlib.sha256() for key in PINNED_DIGESTS}
    rng = random.Random(5)
    for m in maps:
        h["analyze"].update(json.dumps(analyze_map(m), sort_keys=True).encode())
        h["dumps"].update(dumps(m).encode())
        g = automorphism_group(m)
        h["aut"].update(repr((g.elements, g.vertex_action, g.structure)).encode())
        other = build_from_faces(relabeled(face_list_of(m), rng))
        h["iso"].update(repr(sorted(isomorphic(m, other).items())).encode())
    assert {key: d.hexdigest() for key, d in h.items()} == PINNED_DIGESTS


def test_one_canonical_scan_per_map(monkeypatch):
    scans = []

    def counting_scan(m):
        scans.append(m)
        return scan(m)

    scan = symmetry._scan
    monkeypatch.setattr(symmetry, "_scan", counting_scan)
    m = fixture_map("chi-1-4e3-5e1-1")
    analyze_map(m)
    dumps(m)
    assert isomorphic(m, m) is not None
    assert scans == [m]


def test_scan_matches_full_scan_oracle():
    # ties dominate on the symmetric maps, early stops on the asymmetric
    # ones; relabelled copies change which start flags come first
    rng = random.Random(11)
    for name in fixture_names():
        m = fixture_map(name)
        for base in (m, truncate(m), rectify(m)):
            copies = [build_from_faces(relabeled(face_list_of(base), rng)) for _ in range(3)]
            for x in [base] + copies:
                form = symmetry._scan(x)
                assert (form.code, form.starts, form.order) == canonical_scan_full(x), name


def shuffled(m, rng: random.Random):
    """A copy of m with its vertices renamed and its faces reordered,
    rotated and reversed, so that its flags are numbered afresh."""
    copy = relabeled(face_list_of(m), rng)
    faces = []
    for f in copy.faces:
        k = rng.randrange(len(f))
        f = f[k:] + f[:k]
        faces.append(f[::-1] if rng.random() < 0.5 else f)
    rng.shuffle(faces)
    return build_from_faces(FaceListMap(copy.vertex_count, tuple(faces)))


def _scan_cases():
    """Sphere maps with large groups, the chi = -1 census fixtures, and
    shuffled copies of each."""
    from semeq.enumerator import enumerate_maps

    rng = random.Random(23)
    bases = [enumerate_maps(t, n, 2).maps[0]
             for t, n in [("[3^4]", 6), ("[4^3]", 8), ("[3^5]", 12), ("[5^3]", 20)]]
    bases += [fixture_map(name) for name in fixture_names() if name.startswith("chi-1-")]
    return [x for m in bases for x in [m] + [shuffled(m, rng) for _ in range(3)]]


def test_pruned_scan_matches_full_scan():
    replaced_after_tie = 0
    for x in _scan_cases():
        form = symmetry._scan(x)
        assert (form.code, form.starts, form.order) == canonical_scan_full(x)
        # the cases must include a least code so far that is tied, then
        # beaten by a later start, or the orbits found before it go untested
        best, tied = None, False
        for start in range(x.flag_count):
            code = symmetry._traverse(x, start)[0]
            if best is None or code < best:
                replaced_after_tie += tied
                best, tied = code, False
            elif code == best:
                tied = True
    assert replaced_after_tie > 0


def test_scan_orbits_are_automorphism_orbits():
    for x in _scan_cases():
        group = automorphism_group(x)
        want = tuple(min(g[fl] for g in group.elements) for fl in range(x.flag_count))
        assert symmetry._scan(x).orbits == want


def test_bounded_traversal_matches_unbounded():
    # a bounded traversal is None exactly when its code is above the bound,
    # and otherwise gives the unbounded traversal's code and order; the
    # pairs must include a code that first drops below the bound at each of
    # a flag's three image entries, and codes that tie it
    rng = random.Random(31)
    maps = _scan_cases() + [truncate(fixture_map(name)) for name in fixture_names()]
    first_below_at, ties = set(), 0
    for x in maps:
        least = symmetry._scan(x).starts
        targets = [least[0]] + rng.sample(range(x.flag_count), 2)
        starts = list(least[:2]) + rng.sample(range(x.flag_count), min(8, x.flag_count))
        full = {s: symmetry._traverse(x, s) for s in targets + starts}
        for t in targets:
            bound = full[t][0]
            for s in starts:
                code, order = full[s]
                got = symmetry._traverse(x, s, bound)
                if code > bound:
                    assert got is None
                    continue
                assert got == (code, order)
                assert got[0] is not bound
                diff = [i for i, (a, b) in enumerate(zip(code, bound)) if a != b]
                if diff:
                    first_below_at.add(diff[0] % 3)
                else:
                    ties += 1
    assert first_below_at == {0, 1, 2}
    assert ties > 0


def test_small_groups_named_from_the_vertex_action():
    # the vertex action is faithful, so it names the same group as the flag
    # action; the chi = -1 fixtures are the 11 maps of the rows with n <= 24
    for name in fixture_names():
        m = fixture_map(name)
        for x in (m, truncate(m), rectify(m)):
            g = automorphism_group(x)
            if g.order <= 16:
                assert recognize_group(g.elements) == recognize_group(g.vertex_action) \
                    == g.structure, name


def test_pruned_scan_skips_covered_starts(monkeypatch):
    # the cube's 48 flags form one orbit: once a few ties have generated the
    # group, every later start is skipped untraversed
    traversed = []

    def counting_traverse(m, start, bound=None, *args):
        traversed.append(start)
        return traverse(m, start, bound, *args)

    traverse = symmetry._traverse
    monkeypatch.setattr(symmetry, "_traverse", counting_traverse)
    cube = fixture_map("cube")
    form = symmetry._scan(cube)
    assert cube.flag_count == len(form.starts) == 48
    assert len(traversed) <= 8


@pytest.mark.parametrize("code,data", [
    ([], b""),
    ([0, 254], b"\x00\xfe"),
    ([0, 255], b"\x00\x00\x00\xff"),
    ([1, 65535], b"\x00\x01\xff\xff"),
    ([1, 65536], b"\x00\x00\x01\x01\x00\x00"),
    ([2, 1 << 24], b"\x00\x00\x00\x02\x01\x00\x00\x00"),
], ids=["empty", "one-byte", "two-byte-from-255", "two-byte-max", "three-byte", "four-byte"])
def test_encode_widths_pinned(code, data):
    # one byte below 255 and two below 65,536 are the widths every stored
    # digest was made with; only a larger entry widens the code
    assert symmetry._encode(code) == data


def quad_torus(k: int) -> FaceListMap:
    """The k x k grid of squares with opposite sides glued, {4,4}_(k,0)."""
    def v(i, j):
        return (i % k) * k + j % k + 1

    return FaceListMap(k * k, tuple((v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1))
                                    for i in range(k) for j in range(k)))


def test_canonical_code_past_two_byte_entries():
    # 91 x 91 squares give 66,248 flags, so the largest code entry needs
    # three bytes; the code, the isomorphism test and dumps still work
    flm = quad_torus(91)
    m = build_from_faces(flm)
    assert m.flag_count == 66248
    data = canonical_code(m).data
    assert len(data) == 3 * 3 * m.flag_count
    other = build_from_faces(relabeled(flm, random.Random(91)))
    assert canonical_code(other).data == data
    bijection = isomorphic(m, other)
    assert bijection is not None and len(set(bijection.values())) == flm.vertex_count
    assert dumps(m).startswith("vertices 8281\nface ")
    # the map is regular: every flag starts the least code
    assert len(symmetry._canonical_form(m).starts) == m.flag_count


def test_group_summary_reads_the_scan():
    # a regular map: 2,048 automorphisms, so writing the group out would
    # hold 2,048 x 2,048 flag images; analyze_map, vertex_orbits and the
    # aut command read the order and orbits from the scan instead
    m = build_from_faces(quad_torus(16))
    assert m.flag_count == 2048
    tracemalloc.start()
    try:
        a = analyze_map(m)
        orbits = vertex_orbits(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a["aut_order"] == 2048 and a["aut_structure"] == "unrecognized(2048)"
    assert a["orbit_count"] == 1 and a["vertex_transitive"]
    assert orbits == [tuple(range(1, 257))] and is_vertex_transitive(m)
    assert peak < 5 * 2**20, peak
    # the summary against the written-out group, on groups of order 2 to 48
    for name in fixture_names():
        for m in (fixture_map(name), truncate(fixture_map(name))):
            g = automorphism_group(m)
            assert symmetry._group_summary(m) == (g.order, g.structure, g.vertex_orbits())
