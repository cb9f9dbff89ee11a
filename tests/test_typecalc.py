"""Vertex-type arithmetic tests."""

import hashlib
import subprocess
import sys

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from semeq.typecalc import (
    DegreeTooSmall,
    FilterOptions,
    SizeTooSmall,
    TypeSyntaxError,
    VertexTypeSpec,
    admissible_types,
    closed_star_size,
    datta_maity_admissible,
    face_counts,
    normalize_cycle,
    parse_type,
    vertex_count_for,
)

from conftest import checkout_env
from oracles import admissible_types_bruteforce


def test_parse_bracket_forms():
    assert parse_type("[3^1,4^1,3^1,4^2]").cycle == (3, 4, 3, 4, 4)
    assert parse_type("[4^3,5^1]").cycle == (4, 4, 4, 5)
    assert parse_type("3,4,8,4") == parse_type("[3^1,4^1,8^1,4^1]")
    assert parse_type(" [ 3 , 3 , 3 ] ").cycle == (3, 3, 3)


def test_parse_errors():
    with pytest.raises(TypeSyntaxError):
        parse_type("[3,4")
    with pytest.raises(TypeSyntaxError):
        parse_type("[]")
    with pytest.raises(TypeSyntaxError):
        parse_type("[3^0,4]")
    with pytest.raises(SizeTooSmall):
        parse_type("[2,4,4]")
    with pytest.raises(DegreeTooSmall):
        parse_type("[3,4]")


@pytest.mark.parametrize("text", ["[3^\u00b2]", "[\u0663^2,4]", "[3^5,\uff14]", "[3^2,4^\u0661]"],
                         ids=["superscript", "arabic-indic", "fullwidth", "arabic-indic-exp"])
def test_parse_non_ascii_digits_rejected(text):
    # str.isdigit passes these; int() refuses the superscript and silently
    # reads the others as ASCII digits
    with pytest.raises(TypeSyntaxError):
        parse_type(text)


def test_normalize_cycle():
    assert normalize_cycle((5, 4, 4, 4)) == (4, 4, 4, 5)
    assert normalize_cycle((3, 5, 4, 5)) == (3, 5, 4, 5)
    assert normalize_cycle((5, 3, 5, 4)) == (3, 5, 4, 5)
    assert normalize_cycle((3, 4, 3, 4, 4)) == (3, 4, 3, 4, 4)


@given(st.lists(st.integers(min_value=3, max_value=12), min_size=3, max_size=8))
def test_normalize_idempotent_and_class_constant(cyc):
    cyc = tuple(cyc)
    norm = normalize_cycle(cyc)
    assert normalize_cycle(norm) == norm
    for r in range(len(cyc)):
        rot = cyc[r:] + cyc[:r]
        assert normalize_cycle(rot) == norm
        assert normalize_cycle(rot[::-1]) == norm


def test_runs_and_collapsed():
    t = parse_type("[3^2,4^1,3^1,5^1]")
    assert t.runs == ((3, 2), (4, 1), (3, 1), (5, 1))
    assert t.collapsed == {3: 3, 4: 1, 5: 1}
    assert t.degree == 5
    assert sum(t.collapsed.values()) == t.degree


def test_runs_wrap_merge():
    # a run split across the linearization boundary is one cyclic run
    t = VertexTypeSpec((3, 4, 4, 3))
    assert sorted(t.runs) == [(3, 2), (4, 2)]


def test_datta_maity_rules():
    assert datta_maity_admissible(parse_type("[3^1,5^1,4^1,5^1]")) == (False, "iii")
    assert datta_maity_admissible(parse_type("[4^3,5^1]")) == (True, None)
    assert datta_maity_admissible(parse_type("[4^1,6^1,15^1]")) == (False, "ii")
    assert datta_maity_admissible(parse_type("[3^3,5^2]")) == (False, "i")
    assert datta_maity_admissible(parse_type("[3^1,7^1,3^1,7^1]")) == (True, None)
    assert datta_maity_admissible(parse_type("[5^1,8^2]")) == (True, None)


def test_vertex_count_for():
    assert vertex_count_for(parse_type("[4^3,5^1]"), -1) == 20
    assert vertex_count_for(parse_type("[3^1,6^1,4^1,6^1]"), -1) == 12
    assert vertex_count_for(parse_type("[4^3]"), 2) == 8
    assert vertex_count_for(parse_type("[3^4,4^1,5^1]"), -1) is None  # 60/13
    assert vertex_count_for(parse_type("[6^3]"), 0) is None  # flat


def test_face_counts():
    assert face_counts(parse_type("[4^3,5^1]"), 20) == {4: 15, 5: 4}
    assert face_counts(parse_type("[3^2,4^1,3^1,5^1]"), 20) == {3: 20, 4: 5, 5: 4}
    assert face_counts(parse_type("[4^1,6^1,15^1]"), 60) == {4: 15, 6: 10, 15: 4}
    assert face_counts(parse_type("[3^1,4^1,3^1,4^1]"), 6) == {3: 4, 4: 3}
    assert face_counts(parse_type("[4^1,6^1,15^1]"), 59) is None


def test_closed_star_size():
    assert closed_star_size(parse_type("[3,8,3,8]")) == 15
    assert closed_star_size(parse_type("[3,3,3,5,5]")) == 10
    assert closed_star_size(parse_type("[4^3]")) == 7


PAPER_SEVENTEEN = {
    (12, (3, 3, 3, 3, 3, 4)),
    (42, (3, 3, 3, 3, 7)),
    (20, (3, 3, 4, 3, 5)),
    (12, (3, 4, 3, 4, 4)),
    (24, (3, 3, 3, 3, 8)),
    (42, (3, 4, 7, 4)),
    (24, (3, 4, 8, 4)),
    (15, (3, 5, 5, 5)),
    (12, (3, 6, 4, 6)),
    (21, (3, 7, 3, 7)),
    (84, (4, 6, 14)),
    (48, (4, 6, 16)),
    (40, (4, 8, 10)),
    (24, (6, 6, 8)),
    (42, (3, 14, 14)),
    (42, (6, 6, 7)),
    (20, (4, 4, 4, 5)),
}


def test_admissible_chi_minus_one_defaults():
    """The engine's default filters reproduce the published census arithmetic
    except for three divergences that the filters themselves force; see the
    acceptance suite for the full discussion."""
    got = {(p.n, p.type.cycle) for p in admissible_types(-1)}
    # every published pair except the one the closed-star rule excludes
    assert PAPER_SEVENTEEN - got == {(12, (3, 6, 4, 6))}
    # the two arithmetic solutions the published list omits
    assert got - PAPER_SEVENTEEN == {(20, (4, 10, 10)), (20, (5, 8, 8))}
    assert len(got) == 18


def test_admissible_rejects_chi_zero():
    with pytest.raises(ValueError):
        admissible_types(0)
    with pytest.raises(ValueError):
        admissible_types(-1, FilterOptions(min_vertices=0))


@pytest.mark.parametrize("chi,opts,name", [
    (-1.5, None, "chi"),
    (-1.0, None, "chi"),
    (True, None, "chi"),
    (-1, FilterOptions(min_vertices=7.5), "min_vertices"),
    (-1, FilterOptions(min_face_count=2.5), "min_face_count"),
])
def test_admissible_rejects_non_int_arguments(chi, opts, name):
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        admissible_types(chi, opts)


@pytest.mark.parametrize("chi", [0, 2])
def test_admissible_chi_nonnegative_message(chi):
    # the arithmetic admits infinitely many pairs for chi >= 0, whatever
    # the degree bound
    with pytest.raises(ValueError, match="infinitely many pairs"):
        admissible_types(chi)


def test_admissible_exact_euler_identity():
    for p in admissible_types(-1):
        d = p.type.degree
        coeff = Fraction(1) - Fraction(d, 2) + sum(Fraction(1, q) for q in p.type.cycle)
        assert p.n * coeff == -1
        for q, x in p.face_counts.items():
            assert Fraction(p.n * p.type.collapsed[q], q) == x
            assert x >= 3


def test_admissible_relaxed_face_count():
    base = {(p.n, p.type.cycle) for p in admissible_types(-1)}
    relaxed = {(p.n, p.type.cycle) for p in admissible_types(-1, FilterOptions(min_face_count=1))}
    extras = relaxed - base
    assert (12, (4, 4, 4, 6)) in extras
    assert (24, (4, 8, 12)) in extras
    assert (18, (6, 6, 9)) in extras
    assert (36, (4, 6, 18)) in extras


OPTION_SETS = {
    "default": FilterOptions(),
    "min-face-count-1": FilterOptions(min_face_count=1),
    "no-parity-no-star": FilterOptions(prop1=False, closed_star=False),
}


def _rows(pairs):
    return [(p.n, p.type.cycle, sorted(p.face_counts.items()), p.filters_passed) for p in pairs]


def test_bruteforce_oracle_agreement():
    # each toggle the per-multiset prefilter reads, against the oracle that
    # puts every arrangement of every window multiset through the full check
    for chi in (-1, -2):
        for name, opts in OPTION_SETS.items():
            fast = _rows(admissible_types(chi, opts))
            assert fast == _rows(admissible_types_bruteforce(chi, opts)), (chi, name)


# SHA-256 of repr(_rows(admissible_types(chi, opts))), recorded before the
# classification was reordered to filter size multisets first
PINNED_ROWS = {
    (-1, "default"): "c247cdc5bb488d89c239afd0ece32ed66b89f4521dbd7adfb5d8fae9cf724bd9",
    (-1, "min-face-count-1"): "6b77ecdb9201c7ac963e16f9f308a29727474a1adabfd98679053637bfe35bbc",
    (-1, "no-parity-no-star"): "6263206051e7abeb03afa8d1d82e17cea5642d67de0b198c0bf6c76f3b988cc4",
    (-2, "default"): "05a1b4e8770e30d98d3604e72fe54940e79a657c9ad8059d013d3d930b2b7a2f",
    (-2, "min-face-count-1"): "1ae4db17a54345d8a65854801ae2614cf86020b1d9a11a001b96f69596e2494a",
    (-2, "no-parity-no-star"): "ff921f169d7abff1443b334c03e63d44f42d546b4c2393ccee726a41bded5013",
    (-3, "default"): "3928dd2acc62eb605fe754f071f1716cdbc3e7675ef3e3449ccaf189891cd11e",
    (-3, "min-face-count-1"): "e6d84f68db2fd908dbf0cf468c9a543f4ac84eb173d306a6509e8512c9a8ed99",
    (-3, "no-parity-no-star"): "c44b318b532ce41c78facc6327d220a6f1b9f1dea7d8d9b7e9ad407837c52b1c",
}


@pytest.mark.parametrize("chi,name", PINNED_ROWS.keys())
def test_admissible_rows_pinned(chi, name):
    rows = _rows(admissible_types(chi, OPTION_SETS[name]))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_ROWS[chi, name]


def test_admissible_chi_minus_four():
    pairs = admissible_types(-4)
    assert len(pairs) == 91
    assert all(p.euler_characteristic() == -4 for p in pairs)


def test_small_min_vertices_finishes():
    # with min_vertices = 1 the Euler window floor never stops the growth of
    # a face size; the bounds on n from above and below must, so the call
    # runs in a child process that is stopped if it hangs
    code = ("from semeq.typecalc import FilterOptions, admissible_types\n"
            "print(len(admissible_types(-4, FilterOptions(min_vertices=1))))")
    out = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    assert int(out.stdout) >= 91


def test_admissible_chi_minus_two():
    # independent surface: every emitted pair satisfies the Euler identity
    pairs = admissible_types(-2)
    assert pairs
    for p in pairs:
        assert p.euler_characteristic() == -2
