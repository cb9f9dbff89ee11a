"""Reading and writing maps as text or JSON files.

Text format: optional ``#`` comment lines, one ``vertices N`` line, then one
``face v1 v2 ... vk`` line per face with 1-based whitespace-separated labels,
each count and label written in ASCII digits.
A file whose first non-blank byte is ``{`` is parsed instead as a JSON
document ``{"vertices": N, "faces": [[...], ...]}``, whose count and labels
must be JSON integers: ``4.9``, ``3.0``, ``true`` or ``"4"`` are refused, not
converted.

The writer emits faces in canonical-traversal order: the order in which the
map's cached canonical traversal (``symmetry.canonical_order``, the flag
order from the first code-minimizing start) first reaches each face, so
isomorphic relabelings of a map serialize with the same face ordering and
files diff cleanly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .mapcore import CombMap, FaceListMap, MapBuildError, build_from_faces
from .symmetry import canonical_order

__all__ = ["MapFileError", "loads", "dumps", "read_map_file", "write_map_file"]


class MapFileError(ValueError):
    """Unparseable map file."""


def _json_int(x) -> int:
    # a JSON number with a fraction, or true/false, is no count or label
    if type(x) is not int:
        raise MapFileError(f"JSON map file holds {x!r} where an integer belongs")
    return x


def _digits(token: str) -> bool:
    # ASCII only: int() also reads signs, underscores and other scripts'
    # digits, and str.isdigit passes superscripts that int() refuses
    return token.isascii() and token.isdigit()


def loads(text: str) -> FaceListMap:
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MapFileError(f"bad JSON map file: {exc}") from exc
        try:
            n = _json_int(doc["vertices"])
            faces = [tuple(_json_int(v) for v in f) for f in doc["faces"]]
        except (KeyError, TypeError) as exc:
            raise MapFileError(f"JSON map file missing fields: {exc}") from exc
    else:
        n = None
        faces = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "vertices":
                if n is not None:
                    raise MapFileError(f"line {lineno}: duplicate vertices line")
                if len(parts) != 2 or not _digits(parts[1]):
                    raise MapFileError(f"line {lineno}: expected 'vertices N'")
                n = int(parts[1])
            elif parts[0] == "face":
                if not _digits("".join(parts[1:])):
                    raise MapFileError(f"line {lineno}: bad face labels")
                faces.append(tuple(map(int, parts[1:])))
            else:
                raise MapFileError(f"line {lineno}: unknown directive {parts[0]!r}")
        if n is None:
            raise MapFileError("missing 'vertices N' line")
    try:
        return FaceListMap(vertex_count=n, faces=tuple(faces))
    except MapBuildError as exc:
        raise MapFileError(str(exc)) from exc


def dumps(m: Union[CombMap, FaceListMap], comment: str = "") -> str:
    if isinstance(m, FaceListMap):
        m = build_from_faces(m)
    # each face once, in the order the canonical traversal first reaches it
    face_order = dict.fromkeys(m.face_of[fl] for fl in canonical_order(m))
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    lines.append(f"vertices {m.f0}")
    for fi in face_order:
        lines.append("face " + " ".join(str(v) for v in m.faces[fi]))
    return "\n".join(lines) + "\n"


def read_map_file(path) -> FaceListMap:
    return loads(Path(path).read_text())


def write_map_file(path, m: Union[CombMap, FaceListMap], comment: str = "") -> None:
    Path(path).write_text(dumps(m, comment=comment))
