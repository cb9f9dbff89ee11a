"""Flag-model construction and topology queries."""

import pytest

from conftest import BIPYRAMID, CUBE, DOUBLED_TRIANGLE, ICOSAHEDRON, TETRAHEDRON
from oracles import disc_star_failures, polyhedral_two_part, polyhedral_violations_all_pairs

from semeq import enumerator
from semeq.enumerator import EnumOptions, enumerate_maps
from semeq.fixtures import fixture_map, fixture_names
from semeq.mapcore import (
    DisconnectedError,
    EdgeDegreeError,
    FaceListMap,
    NoSuchVertexError,
    PinchedVertexError,
    RepeatedVertexInFaceError,
    build_from_faces,
    dual_map,
    euler_characteristic,
    face_cycle_type,
    face_list_of,
    link_cycle,
    semi_equivelar_type,
    surface_signature,
    validate_polyhedral,
)
from semeq.symmetry import canonical_code
from semeq.transforms import rectify, truncate
from semeq.typecalc import normalize_cycle


def k5_torus():
    """K5 on the torus: the twisted quad faces (i, i+1, i+3, i+2) mod 5."""
    faces = tuple(tuple((i + k) % 5 + 1 for k in (0, 1, 3, 2)) for i in range(5))
    return build_from_faces(FaceListMap(5, faces))


def k7_torus():
    faces = tuple((i + 1, (i + 1) % 7 + 1, (i + 3) % 7 + 1) for i in range(7)) + tuple(
        (i + 1, (i + 2) % 7 + 1, (i + 3) % 7 + 1) for i in range(7)
    )
    return build_from_faces(FaceListMap(7, faces))


def test_tetrahedron_counts(tetrahedron):
    m = tetrahedron
    assert (m.f0, m.f1, m.f2) == (4, 6, 4)
    assert m.flag_count == 24 == 4 * m.f1
    assert euler_characteristic(m) == 2


def test_cube_counts(cube):
    assert (cube.f0, cube.f1, cube.f2) == (8, 12, 6)
    assert euler_characteristic(cube) == 2


def test_doubled_triangle_builds_but_fails_polyhedrality():
    m = build_from_faces(DOUBLED_TRIANGLE)
    assert (m.f0, m.f1, m.f2) == (3, 3, 2)
    report = validate_polyhedral(m)
    assert not report.ok
    assert any(kind == "big-face-intersection" for kind, _ in report.violations)


def test_open_disc_rejected():
    with pytest.raises(EdgeDegreeError):
        build_from_faces(FaceListMap(4, ((1, 2, 3), (1, 2, 4))))


def test_same_orientation_double_builds_nonpolyhedral():
    # both triangles traversed the same way: still one side pair per edge, so
    # the map builds (direction-agnostic counting is what lets non-orientable
    # face lists through), and polyhedrality rejects it
    m = build_from_faces(FaceListMap(3, ((1, 2, 3), (1, 2, 3))))
    assert not validate_polyhedral(m).ok


def test_repeated_vertex_in_face_rejected():
    with pytest.raises(RepeatedVertexInFaceError):
        FaceListMap(3, ((1, 2, 3, 2), (1, 3, 2)))


def test_pinched_vertex_rejected():
    # the icosahedron with antipodal vertices 12 and 1 identified: label 1
    # carries two umbrellas of 5 corners each
    faces = tuple(tuple(1 if v == 12 else v for v in f) for f in ICOSAHEDRON)
    with pytest.raises(PinchedVertexError, match="vertex 1 has 10 corners but an umbrella of only 5"):
        build_from_faces(FaceListMap(11, faces))


def test_vertices_beyond_edge_witness():
    # any two faces of K5 on the torus share one edge and a third vertex
    m = k5_torus()
    assert surface_signature(m) == (0, True, 2)
    report = validate_polyhedral(m)
    assert not report.ok
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert report.violations == tuple(
        ("big-face-intersection", (i, j, "vertices-beyond-edge")) for i, j in pairs
    )


def test_face_pair_test_decides_polyhedrality(monkeypatch):
    # the completions that disable_pair_prune searches reject as
    # non-polyhedral, each of which also fails the disc-star rule, with the
    # doubled triangle, K5 on the torus and the fixtures with their
    # truncations and rectifications
    rejected = []

    def recording(m):
        report = validate_polyhedral(m)
        if not report.ok:
            rejected.append(m)
        return report

    monkeypatch.setattr(enumerator, "validate_polyhedral", recording)
    for tstr, n, chi in (("[3^5,4^1]", 12, -1), ("[4^4]", 12, 0), ("[3^2,4^1,3^1,4^1]", 16, 0)):
        assert enumerate_maps(tstr, n, chi, EnumOptions(disable_pair_prune=True)).complete
    assert len(rejected) == 20
    assert all(disc_star_failures(m) for m in rejected)
    maps = rejected + [build_from_faces(DOUBLED_TRIANGLE), k5_torus()]
    for name in fixture_names():
        m = fixture_map(name)
        maps += [m, truncate(m), rectify(m)]
    for m in maps:
        report = validate_polyhedral(m)
        # the fan count gives every entry of the all-pairs test, in order
        assert report.violations == polyhedral_violations_all_pairs(m)
        assert report.ok == polyhedral_two_part(m)
        if disc_star_failures(m):
            assert any(kind == "big-face-intersection" for kind, _ in report.violations)


def test_disconnected_rejected():
    faces = TETRAHEDRON.faces + tuple(
        tuple(v + 4 for v in f) for f in TETRAHEDRON.faces
    )
    with pytest.raises(DisconnectedError):
        build_from_faces(FaceListMap(8, faces))


def test_involutions_and_commutation(cube, tetrahedron):
    for m in (cube, tetrahedron):
        nf = m.flag_count
        for s in (m.s0, m.s1, m.s2):
            assert all(s[s[f]] == f for f in range(nf))
            assert all(s[f] != f for f in range(nf))
        assert all(m.s0[m.s2[f]] == m.s2[m.s0[f]] for f in range(nf))
        assert all(m.s0[m.s2[f]] != f for f in range(nf))


def test_surface_signature(cube):
    assert surface_signature(cube) == (2, True, 0)
    hexmap = dual_map(k7_torus())
    assert surface_signature(hexmap) == (0, True, 2)
    assert str(semi_equivelar_type(hexmap)) == "[6^3]"


def test_link_cycle(tetrahedron, cube):
    lk = link_cycle(tetrahedron, 1)
    assert sorted(lk.boundary) == [2, 3, 4]
    lk = link_cycle(cube, 1)
    assert len(lk.boundary) == 6
    assert 1 not in lk.boundary
    assert len(set(lk.boundary)) == 6
    with pytest.raises(NoSuchVertexError):
        link_cycle(cube, 9)


def test_face_cycle_type(cube, tetrahedron):
    assert face_cycle_type(cube, 3) == (4, 4, 4)
    assert face_cycle_type(tetrahedron, 2) == (3, 3, 3)
    bip = build_from_faces(BIPYRAMID)
    assert normalize_cycle(face_cycle_type(bip, 1)) == (3, 3, 3)
    assert normalize_cycle(face_cycle_type(bip, 2)) == (3, 3, 3, 3)


def test_semi_equivelar_type(cube, tetrahedron):
    assert str(semi_equivelar_type(cube)) == "[4^3]"
    assert str(semi_equivelar_type(tetrahedron)) == "[3^3]"
    assert semi_equivelar_type(build_from_faces(BIPYRAMID)) is None


def test_edge_count_degree_identity(cube):
    # semi-equivelar with degree d forces 2*E = n*d
    assert 2 * cube.f1 == cube.f0 * 3


def test_round_trip_same_canonical_code(cube):
    rebuilt = build_from_faces(face_list_of(cube))
    assert canonical_code(rebuilt) == canonical_code(cube)


def test_euler_invariant_under_relabeling():
    import random

    rng = random.Random(11)
    for _ in range(10):
        p = list(range(1, 9))
        rng.shuffle(p)
        perm = {i + 1: p[i] for i in range(8)}
        faces = tuple(tuple(perm[v] for v in f) for f in CUBE.faces)
        m = build_from_faces(FaceListMap(8, faces))
        assert euler_characteristic(m) == 2
