"""Map files, fixtures, and the command-line surface."""

import json
import subprocess
import sys

import pytest

from conftest import CUBE, TETRAHEDRON, checkout_env

from semeq.cli import build_parser, main
from semeq.mapcore import build_from_faces, face_list_of
from semeq.mapfile import MapFileError, dumps, loads, read_map_file, write_map_file
from semeq.symmetry import canonical_code, isomorphic


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "semeq.cli", *args], capture_output=True, text=True,
        env=checkout_env(),
    )
    return proc


def test_text_round_trip(cube):
    text = dumps(cube, comment="unit cube")
    flm = loads(text)
    again = build_from_faces(flm)
    assert canonical_code(again) == canonical_code(cube)
    assert text.startswith("# unit cube\nvertices 8\n")


def test_json_round_trip(tetrahedron):
    doc = {"vertices": 4, "faces": [list(f) for f in TETRAHEDRON.faces]}
    flm = loads(json.dumps(doc))
    assert canonical_code(build_from_faces(flm)) == canonical_code(tetrahedron)


def test_writer_face_order_is_relabel_invariant(cube):
    import random

    rng = random.Random(3)
    p = list(range(1, 9))
    rng.shuffle(p)
    perm = {i + 1: p[i] for i in range(8)}
    relabeled = build_from_faces(
        type(CUBE)(8, tuple(tuple(perm[v] for v in f) for f in CUBE.faces))
    )
    # identical canonical face ordering: the sequence of face SIZES in the
    # emitted files agrees even though labels differ
    sizes_a = [len(line.split()) for line in dumps(cube).splitlines() if line.startswith("face")]
    sizes_b = [len(line.split()) for line in dumps(relabeled).splitlines() if line.startswith("face")]
    assert sizes_a == sizes_b


def test_loads_errors():
    with pytest.raises(MapFileError):
        loads("face 1 2 3\n")  # missing vertices line
    with pytest.raises(MapFileError):
        loads("vertices 3\nvertices 3\n")
    with pytest.raises(MapFileError):
        loads("vertices x\n")
    with pytest.raises(MapFileError):
        loads("{bad json")
    with pytest.raises(MapFileError):
        loads("vertices 4\nfface 1 2 3\n")
    with pytest.raises(MapFileError):
        loads('{"vertices": 3, "faces": [[1, 2, 2]]}')  # repeated vertex
    with pytest.raises(MapFileError):
        loads('{"vertices": 2, "faces": [[1, 2]]}')  # face too short


@pytest.mark.parametrize("text", [
    "vertices \u00b2\nface 1 2 3\n",
    "vertices \u0664\nface 1 2 3\nface 1 2 4\nface 1 3 4\nface 2 3 4\n",
    "vertices 4\nface \u0661 2 3\nface 1 2 4\nface 1 3 4\nface 2 3 4\n",
    "vertices 4\nface +1 2 3\nface 1 2 4\nface 1 3 4\nface 2 3 4\n",
    "vertices 4\nface 1 2 3\nface 1 2 4\nface 1 3 4\nface 2 3 0_4\n",
], ids=["superscript-count", "arabic-indic-count", "arabic-indic-label", "signed-label",
        "underscore-label"])
def test_loads_needs_ascii_digits(text):
    # int() reads other scripts' digits, signs and underscores, and
    # str.isdigit passes a superscript that int() then refuses
    with pytest.raises(MapFileError):
        loads(text)


@pytest.mark.parametrize("doc", [
    '{"vertices": 4.9, "faces": [[1,2,3.7],[1,2,4],[1,3,4],[2,3,4]]}',
    '{"vertices": 4, "faces": [[1,2,3.0],[1,2,4],[1,3,4],[2,3,4]]}',
    '{"vertices": true, "faces": [[1,2,3],[1,2,4],[1,3,4],[2,3,4]]}',
    '{"vertices": 4, "faces": [[true,2,3],[1,2,4],[1,3,4],[2,3,4]]}',
    '{"vertices": "4", "faces": [[1,2,3],[1,2,4],[1,3,4],[2,3,4]]}',
    '{"vertices": 4, "faces": ["123",[1,2,4],[1,3,4],[2,3,4]]}',
], ids=["fractions", "float", "bool-count", "bool-label", "string-count", "string-face"])
def test_loads_json_needs_integers(doc):
    # a JSON number is taken as it is written, never truncated
    with pytest.raises(MapFileError, match="integer"):
        loads(doc)


def test_map_file_round_trip(cube, tmp_path):
    path = tmp_path / "cube.map"
    write_map_file(path, cube, comment="unit cube\nsecond line")
    assert path.read_text().startswith("# unit cube\n# second line\nvertices 8\n")
    again = build_from_faces(read_map_file(str(path)))
    assert canonical_code(again) == canonical_code(cube)
    assert read_map_file(path) == loads(dumps(cube))


def test_comments_and_whitespace():
    flm = loads("# a comment\n\nvertices 4\nface 1 2 3 # trailing\nface 1 2 4\nface 1 3 4\nface 2 3 4\n")
    assert flm.vertex_count == 4
    assert len(flm.faces) == 4


@pytest.fixture(scope="module")
def cube_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "cube.map"
    path.write_text(dumps(build_from_faces(CUBE)))
    return str(path)


def test_cli_verify(cube_file):
    proc = run_cli("verify", cube_file)
    assert proc.returncode == 0
    assert "euler_characteristic=2" in proc.stdout
    assert "orientable=True" in proc.stdout
    assert "semi_equivelar_type=[4^3]" in proc.stdout


def test_cli_verify_nonpolyhedral(tmp_path):
    path = tmp_path / "dbl.map"
    path.write_text("vertices 3\nface 1 2 3\nface 1 3 2\n")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 1
    assert "big-face-intersection" in proc.stdout


def test_cli_classify_json():
    proc = run_cli("classify", "--chi", "-1", "--json")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert {r["type"] for r in rows} >= {"[4^3,5^1]", "[3^5,4^1]", "[6^2,8^1]"}


def test_cli_classify_deterministic():
    a = run_cli("classify", "--chi", "-1", "--json").stdout
    b = run_cli("classify", "--chi", "-1", "--json").stdout
    assert a == b


def test_cli_iso(cube_file, tmp_path):
    import random

    rng = random.Random(9)
    p = list(range(1, 9))
    rng.shuffle(p)
    perm = {i + 1: p[i] for i in range(8)}
    other = tmp_path / "cube2.map"
    other.write_text(
        "vertices 8\n"
        + "".join("face " + " ".join(str(perm[v]) for v in f) + "\n" for f in CUBE.faces)
    )
    proc = run_cli("iso", cube_file, str(other))
    assert proc.returncode == 0
    assert "isomorphic" in proc.stdout
    # and against a non-isomorphic map
    tet = tmp_path / "tet.map"
    tet.write_text(
        "vertices 4\n"
        + "".join("face " + " ".join(str(v) for v in f) + "\n" for f in TETRAHEDRON.faces)
    )
    proc = run_cli("iso", cube_file, str(tet))
    assert proc.returncode == 1


def test_cli_aut(cube_file):
    proc = run_cli("aut", cube_file, "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["order"] == 48
    assert doc["vertex_transitive"] is True


def test_cli_gi(cube_file):
    proc = run_cli("gi", cube_file, "--i", "4", "--json")
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_cli_truncate_rectify(cube_file):
    proc = run_cli("truncate", cube_file)
    assert proc.returncode == 0
    assert "type=[3^1,8^2]" in proc.stdout
    proc = run_cli("rectify", cube_file)
    assert proc.returncode == 0
    assert "type=[3^1,4^1,3^1,4^1]" in proc.stdout


def test_cli_enumerate_json():
    proc = run_cli("enumerate", "--type", "[3^3]", "--n", "4", "--chi", "2", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["count"] == 1
    assert doc["complete"] is True
    assert doc["maps"][0]["aut_order"] == 24


def test_cli_enumerate_emit_in_both_modes(tmp_path):
    # --emit writes the same files with and without --json; in JSON mode the
    # "wrote" notes go to stderr, so stdout stays one JSON document
    base = ["enumerate", "--type", "[3^5,4^1]", "--n", "12", "--chi", "-1"]
    text = run_cli(*base, "--emit", str(tmp_path / "text"))
    js = run_cli(*base, "--json", "--emit", str(tmp_path / "js"))
    assert text.returncode == 0 and js.returncode == 0
    doc = json.loads(js.stdout)
    assert doc["count"] == 3
    for i in range(1, 4):
        assert f"wrote {tmp_path / 'text'}-{i}.map" in text.stdout
        assert f"wrote {tmp_path / 'js'}-{i}.map" in js.stderr
        written = (tmp_path / f"js-{i}.map").read_text()
        assert written == (tmp_path / f"text-{i}.map").read_text()
        m = build_from_faces(loads(written))
        assert canonical_code(m).digest() == doc["maps"][i - 1]["canonical_digest"]
    assert not (tmp_path / "js-4.map").exists()


def test_cli_enumerate_long_gate():
    proc = run_cli("enumerate", "--type", "[4^1,8^1,10^1]", "--n", "40", "--chi", "-1")
    assert proc.returncode == 2
    assert "--long" in proc.stderr


def test_cli_usage_error():
    proc = run_cli("enumerate", "--type", "[3^3]")
    assert proc.returncode == 2


@pytest.mark.parametrize("command", [
    ["enumerate", "--type", "[3^3]", "--n", "4", "--chi", "2"],
    ["census", "--chi", "-1"],
])
def test_cli_threads_must_be_positive(command):
    proc = run_cli(*command, "--threads", "0")
    assert proc.returncode == 2
    assert "--threads" in proc.stderr


@pytest.mark.parametrize("command", [
    ["classify", "--chi", "-1"],
    ["census", "--chi", "-1"],
])
def test_cli_min_vertices_must_be_positive(command):
    proc = run_cli(*command, "--min-vertices", "0")
    assert proc.returncode == 2
    assert "--min-vertices" in proc.stderr


@pytest.mark.parametrize("command", [
    ["enumerate", "--type", "[3^3]", "--n", "4", "--chi", "2"],
    ["census", "--chi", "-1"],
])
def test_cli_negative_budget_rejected(command):
    proc = run_cli(*command, "--budget", "-7")
    assert proc.returncode == 2
    assert "--budget" in proc.stderr


@pytest.mark.parametrize("command", [
    ["enumerate", "--type", "[3^5,4^1]", "--n", "12", "--chi", "-1"],
    ["census", "--chi", "-1"],
])
def test_cli_empty_checkpoint_refused(command, tmp_path, monkeypatch, capsys):
    # an empty path split the run like a checkpoint without reading or
    # writing one, and census wrote its per-row files as .<type>.n<n>
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--checkpoint", "", "--budget", "100"])
    assert exc.value.code == 2
    assert "argument --checkpoint: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_empty_emit_refused(tmp_path, monkeypatch, capsys):
    # an empty --emit read as no option: the maps were listed, none written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--type", "[3^5,4^1]", "--n", "12", "--chi", "-1", "--emit", ""])
    assert exc.value.code == 2
    assert "argument --emit: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_unreadable_map_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.map")
    for command in (["verify", missing], ["truncate", missing], ["iso", missing, missing]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err


def test_cli_unwritable_emit(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    assert main(["enumerate", "--type", "[3^5,4^1]", "--n", "12", "--chi", "-1",
                 "--emit", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{target}-1.map" in err


def test_cli_gi_negative_index_refused(cube_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gi", cube_file, "--i", "-1"])
    assert exc.value.code == 2
    assert "argument --i: " in capsys.readouterr().err


def test_cli_enumerate_nonpositive_vertex_count_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--type", "[3^5,4^1]", "--n", "0", "--chi", "-1"])
    assert exc.value.code == 2
    assert "argument --n: must be at least 1, got 0" in capsys.readouterr().err


# each integer option after a command that parses without it
INTEGER_OPTIONS = {
    "--chi": ["classify", "--chi", "-1"],
    "--n": ["enumerate", "--type", "[3^3]", "--n", "4", "--chi", "2"],
    "--i": ["gi", "unread.map", "--i", "4"],
    "--threads": ["census", "--chi", "-1"],
    "--budget": ["census", "--chi", "-1"],
    "--min-vertices": ["classify", "--chi", "-1"],
}


@pytest.mark.parametrize("text", ["١", "-١", "٣٠", "+1", "1_0", " 1"],
                         ids=["arabic-indic", "arabic-indic-negative", "arabic-indic-30",
                              "plus", "underscore", "space"])
@pytest.mark.parametrize("option", sorted(INTEGER_OPTIONS))
def test_cli_integer_options_need_ascii_digits(option, text, capsys):
    # int() reads other scripts' digits, a plus sign, underscores and spaces
    command = INTEGER_OPTIONS[option]
    build_parser().parse_args(command)
    with pytest.raises(SystemExit) as exc:
        main([*command, option, text])
    assert exc.value.code == 2
    assert f"argument {option}: " in capsys.readouterr().err


def test_cli_verify_has_no_json_flag(cube_file):
    # verify, iso, truncate and rectify print text only
    proc = run_cli("verify", cube_file, "--json")
    assert proc.returncode == 2


def test_cli_json_byte_stable():
    a = run_cli("enumerate", "--type", "[3^3]", "--n", "4", "--chi", "2", "--json").stdout
    b = run_cli("enumerate", "--type", "[3^3]", "--n", "4", "--chi", "2", "--json").stdout
    assert a == b


def test_cli_json_byte_stable_across_threads():
    base = ["enumerate", "--type", "[3^5,4^1]", "--n", "12", "--chi", "-1", "--json"]
    a = run_cli(*base, "--threads", "1").stdout
    b = run_cli(*base, "--threads", "2").stdout
    assert a == b
