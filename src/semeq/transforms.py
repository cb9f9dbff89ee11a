"""Combinatorial truncation and rectification of polyhedral maps.

Truncation cuts every corner: the new vertices are the directed edges of the
original map, each original q-gon becomes a 2q-gon, and each original vertex
of degree d leaves a d-gon scar.  Rectification contracts to edge midpoints:
the new vertices are the undirected edges, each original face survives with
its size, and each original vertex again contributes a d-gon.  Both preserve
the Euler characteristic and obey clean type laws: a map of type [q^p] has
truncation of type [p^1,(2q)^2] and rectification [p^1,q^1,p^1,q^1]; a map of
type [p,q,p,q] has truncation [4^1,(2p)^1,(2q)^1] and rectification
[4^1,p^1,4^1,q^1].

Both operations are computed from the vertex rotation data of the flag model,
so they work unchanged on non-orientable surfaces.
"""

from __future__ import annotations

from .mapcore import CombMap, FaceListMap, build_from_faces, validate_polyhedral

__all__ = ["NotPolyhedralError", "truncate", "rectify"]


class NotPolyhedralError(ValueError):
    """Input map fails the polyhedrality conditions."""


def _require_polyhedral(m: CombMap) -> None:
    report = validate_polyhedral(m)
    if not report.ok:
        raise NotPolyhedralError(
            f"map is not polyhedral: {report.violations[:3]}..."
            if len(report.violations) > 3
            else f"map is not polyhedral: {report.violations}"
        )


def _with_vertex_faces(m: CombMap, faces: list, node, vertex_count: int) -> CombMap:
    """The map of faces plus each original vertex's rotation d-gon of nodes."""
    for v in range(1, m.f0 + 1):
        faces.append(tuple(node(v, w) for w in m.vertex_fan_junctions(v)))
    return build_from_faces(FaceListMap(vertex_count=vertex_count, faces=tuple(faces)))


def truncate(m: CombMap) -> CombMap:
    """The truncation: one vertex per directed edge of the input.

    Faces: for each original face (v_0..v_{k-1}) the 2k-gon alternating the
    two corner nodes at each v_i, and for each original vertex its rotation
    d-gon of corner nodes.
    """
    _require_polyhedral(m)
    node_of: dict[tuple[int, int], int] = {}

    def node(tail: int, headv: int) -> int:
        key = (tail, headv)
        if key not in node_of:
            node_of[key] = len(node_of) + 1
        return node_of[key]

    faces = []
    for f in m.faces:
        k = len(f)
        cyc = []
        for i in range(k):
            prev_v = f[(i - 1) % k]
            next_v = f[(i + 1) % k]
            cyc.append(node(f[i], prev_v))
            cyc.append(node(f[i], next_v))
        faces.append(tuple(cyc))
    # every directed edge lies on a face, so the nodes are all numbered
    return _with_vertex_faces(m, faces, node, len(node_of))


def rectify(m: CombMap) -> CombMap:
    """The rectification: one vertex per edge of the input.

    Faces: each original face shrunk to the cycle of its edges, plus each
    original vertex's rotation d-gon of incident edges.
    """
    _require_polyhedral(m)
    edge_id = {e: i + 1 for i, e in enumerate(m.edges)}

    def node(a: int, b: int) -> int:
        return edge_id[(a, b) if a < b else (b, a)]

    faces = []
    for f in m.faces:
        k = len(f)
        faces.append(tuple(node(f[i], f[(i + 1) % k]) for i in range(k)))
    return _with_vertex_faces(m, faces, node, len(m.edges))
