"""Census assembly, report schema, and bundled fixtures."""

import json
import subprocess
import sys

import pytest

from conftest import checkout_env

from semeq.census import census, census_report_json
from semeq.enumerator import EnumOptions
from semeq.fixtures import fixture_face_list, fixture_map, fixture_names, fixtures_for_type, manifest
from semeq.mapcore import build_from_faces, face_list_of, semi_equivelar_type
from semeq.mapfile import dumps, loads
from semeq.symmetry import canonical_code, isomorphic
from semeq.typecalc import FilterOptions


def test_fixture_counts():
    assert len(fixtures_for_type("[4^3,5^1]")) == 3
    assert len(fixtures_for_type("[3^5,4^1]")) == 3
    assert len(fixtures_for_type("[3^1,4^1,3^1,4^2]")) == 1
    assert len(fixtures_for_type("[3^1,4^1,8^1,4^1]")) == 2
    assert len(fixtures_for_type("[6^2,8^1]")) == 2
    for name in ("tetrahedron", "cube", "octahedron", "cuboctahedron", "torus-hex"):
        assert name in fixture_names()


def test_chi_minus_one_fixture_topology():
    # odd Euler characteristic forces a non-orientable surface of Euler
    # genus 3; every vertex link of the [4^3,5^1] maps is a 9-cycle
    from semeq.mapcore import link_cycle, surface_signature

    for name in fixtures_for_type("[4^3,5^1]"):
        m = fixture_map(name)
        assert surface_signature(m) == (-1, False, 3)
        for v in range(1, m.f0 + 1):
            lk = link_cycle(m, v)
            assert len(lk.boundary) == 9
            assert len(set(lk.boundary)) == 9 and v not in lk.boundary


def test_fixture_round_trip_and_digests():
    meta = manifest()["fixtures"]
    for name in fixture_names():
        m = fixture_map(name)
        code = canonical_code(m)
        assert code.digest() == meta[name]["canonical_digest"]
        again = build_from_faces(loads(dumps(m)))
        assert isomorphic(m, again) is not None
        assert canonical_code(again) == code
        assert str(semi_equivelar_type(m)) == meta[name]["type"]


def test_census_rows_structure():
    # a cheap census pass: budget-capped so even the deep rows return quickly;
    # statuses must then be one of the documented values
    rows = census(-1, enum_opts=EnumOptions(node_budget=20000))
    assert len(rows) == 18
    for row in rows:
        assert row.status in {"empty", "not-run(long)", "not-run(budget)"} or row.status.startswith("exists(")
    long_rows = [r for r in rows if r.pair.n >= 40]
    assert long_rows and all(r.status == "not-run(long)" for r in long_rows)


def test_census_report_json_stable():
    rows = census(-1, enum_opts=EnumOptions(node_budget=5000))
    a = census_report_json(-1, rows)
    b = census_report_json(-1, rows)
    assert a == b
    doc = json.loads(a)
    assert doc["schema_version"] == 1
    assert doc["euler_characteristic"] == -1
    assert {r["type"] for r in doc["rows"]} >= {"[4^3,5^1]", "[3^5,4^1]"}


@pytest.fixture(scope="module")
def short_census():
    """The default chi = -1 census (long rows gated), computed once."""
    return census(-1, enum_opts=EnumOptions(threads=2))


@pytest.mark.slow_census
def test_census_exists_set_matches_short_census(short_census):
    """Default census: the short rows with maps are exactly the five short
    types of the published existence table; the long rows stay gated."""
    rows = short_census
    exists = {str(r.pair.type) for r in rows if r.status.startswith("exists")}
    assert exists == {
        "[3^1,4^1,3^1,4^2]",
        "[3^5,4^1]",
        "[3^1,4^1,8^1,4^1]",
        "[6^2,8^1]",
        "[4^3,5^1]",
    }
    counts = {str(r.pair.type): len(r.maps) for r in rows if r.maps}
    assert counts == {
        "[3^1,4^1,3^1,4^2]": 1,
        "[3^5,4^1]": 3,
        "[3^1,4^1,8^1,4^1]": 2,
        "[6^2,8^1]": 2,
        "[4^3,5^1]": 3,
    }
    # the overlooked candidates are certified empty, keeping the existence
    # census aligned with the published table
    for t in ("[4^1,10^2]", "[5^1,8^2]"):
        row = next(r for r in rows if str(r.pair.type) == t)
        assert row.status == "empty" and row.complete


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "semeq.cli", *args],
                          capture_output=True, text=True, env=checkout_env())


@pytest.mark.slow_census
def test_cli_census_checkpoint_per_row(tmp_path, short_census):
    # --checkpoint PATH gives every searched row its own file, so a
    # budget-cut census exits cleanly and a rerun resumes each row
    path = tmp_path / "census.ckpt"
    base = ["census", "--chi", "-1", "--checkpoint", str(path), "--json"]
    cut = _cli(*base, "--budget", "2000")
    assert cut.returncode == 0, cut.stderr
    statuses = [row["status"] for row in json.loads(cut.stdout)["rows"]]
    assert "not-run(budget)" in statuses
    assert (tmp_path / "census.ckpt.3e5-4e1.n12").exists()
    assert not path.exists()
    resumed = _cli(*base, "--threads", "2")
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == census_report_json(-1, short_census) + "\n"
