"""Combinatorial maps on closed surfaces via flags.

A map is stored as three fixed-point-free involutions s0, s1, s2 on its flag
set (one flag per incident vertex-edge-face triple, 4 per edge).  s0 moves a
flag to the other vertex of its edge, s1 to the other edge at its vertex
inside its face, s2 across the edge to the other face.  This encoding handles
orientable and non-orientable surfaces uniformly, which matters here: the
census surface has odd Euler characteristic and admits no rotation system.

Maps are built from a human-readable face list (labeled vertices, faces as
cyclic vertex sequences) and are immutable afterwards.  The builder decides
each per-map fact once, in the walk that finds it: its connectivity walk of
the flag graph also 2-colours the flags, which gives orientability, and its
pinch check walks every vertex umbrella, which gives the fans.  Both are
stored on the CombMap; the other topology queries (Euler characteristic,
links, face-cycle types) read the counts, the fans and the face tuples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .typecalc import VertexTypeSpec, normalize_cycle

__all__ = [
    "FaceListMap",
    "CombMap",
    "LinkCycle",
    "PolyhedralityReport",
    "MapBuildError",
    "EdgeDegreeError",
    "RepeatedVertexInFaceError",
    "DisconnectedError",
    "PinchedVertexError",
    "NoSuchVertexError",
    "build_from_faces",
    "validate_polyhedral",
    "euler_characteristic",
    "surface_signature",
    "link_cycle",
    "face_cycle_type",
    "semi_equivelar_type",
    "face_list_of",
    "dual_map",
]


class MapBuildError(ValueError):
    """Base class for face-list construction failures."""


class EdgeDegreeError(MapBuildError):
    """Some vertex pair occurs as a face edge a number of times other than 0 or 2."""


class RepeatedVertexInFaceError(MapBuildError):
    """A face visits some vertex twice."""


class DisconnectedError(MapBuildError):
    """The flag graph is not connected."""


class PinchedVertexError(MapBuildError):
    """A vertex label whose corners form more than one umbrella."""


class NoSuchVertexError(KeyError):
    """Vertex label outside 1..vertex_count."""


@dataclass(frozen=True)
class FaceListMap:
    """A map presented as labeled faces: vertices 1..vertex_count, each face a
    cyclic sequence of distinct labels."""

    vertex_count: int
    faces: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "faces", tuple(tuple(f) for f in self.faces))
        if self.vertex_count < 1:
            raise MapBuildError("vertex_count must be positive")
        seen = set()
        for f in self.faces:
            if len(f) < 3:
                raise MapBuildError(f"face {f} has fewer than 3 vertices")
            if len(set(f)) != len(f):
                raise RepeatedVertexInFaceError(f"face {f} repeats a vertex")
            for v in f:
                if not (1 <= v <= self.vertex_count):
                    raise MapBuildError(f"label {v} outside 1..{self.vertex_count}")
            seen.update(f)
        if seen != set(range(1, self.vertex_count + 1)):
            missing = sorted(set(range(1, self.vertex_count + 1)) - seen)
            raise MapBuildError(f"labels never used in any face: {missing}")


@dataclass(frozen=True)
class LinkCycle:
    """Boundary cycle of the closed star of a vertex, in rotation order."""

    center: int
    boundary: tuple[int, ...]


@dataclass(frozen=True)
class PolyhedralityReport:
    ok: bool
    violations: tuple[tuple[str, tuple], ...] = ()


class CombMap:
    """Flag model of a closed-surface map.

    The face tuples used to build the map are retained (`faces`) so that
    reports and transforms can speak in vertex labels; the flag arrays are the
    source of truth for everything topological.  Build one with
    build_from_faces, which also fills `_fans` (each vertex's faces and
    neighbours in rotation order) and `_orientable`.
    """

    __slots__ = (
        "flag_count",
        "s0",
        "s1",
        "s2",
        "vertex_of",
        "face_of",
        "f0",
        "f1",
        "f2",
        "faces",
        "edges",
        "_fans",
        "_orientable",
        "_canon",
    )

    def __init__(self, s0, s1, s2, vertex_of, face_of, f0, f1, f2, faces, edges):
        self.flag_count = len(s0)
        self.s0 = s0
        self.s1 = s1
        self.s2 = s2
        self.vertex_of = vertex_of
        self.face_of = face_of
        self.f0 = f0
        self.f1 = f1
        self.f2 = f2
        self.faces = faces
        self.edges = edges
        self._canon = None  # symmetry's canonical scan, filled on first use

    def vertex_fan(self, v: int) -> tuple[int, ...]:
        """Faces incident to vertex v in rotation order (face indices)."""
        return self._fans[v - 1][0]

    def vertex_fan_junctions(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in rotation order: junction j sits between fan
        face j-1 and fan face j (indices mod degree)."""
        return self._fans[v - 1][1]


def build_from_faces(flm: FaceListMap) -> CombMap:
    """Construct the flag model from a face list.

    Raises EdgeDegreeError unless every unordered vertex pair occurs as a
    consecutive face pair exactly 0 or 2 times, DisconnectedError when the
    flag graph splits, and PinchedVertexError when a label's corners form
    more than one umbrella.
    """
    faces = flm.faces
    # slot = (face index, position); slot id global; flag = 2*slot + side
    slot_base = []
    total_slots = 0
    for f in faces:
        slot_base.append(total_slots)
        total_slots += len(f)
    nflags = 2 * total_slots

    edge_slots: dict[tuple[int, int], list[int]] = {}
    for fi, f in enumerate(faces):
        k = len(f)
        for i in range(k):
            a, b = f[i], f[(i + 1) % k]
            key = (a, b) if a < b else (b, a)
            edge_slots.setdefault(key, []).append(slot_base[fi] + i)
    for key, slots in edge_slots.items():
        if len(slots) != 2:
            raise EdgeDegreeError(
                f"edge {key} lies on {len(slots)} face sides (must be exactly 2)"
            )

    edges = sorted(edge_slots)

    s0 = [0] * nflags
    s1 = [0] * nflags
    s2 = [0] * nflags
    vertex_of = [0] * nflags
    face_of = [0] * nflags

    for fi, f in enumerate(faces):
        k = len(f)
        base = slot_base[fi]
        for i in range(k):
            a, b = f[i], f[(i + 1) % k]
            s = base + i
            fl0, fl1 = 2 * s, 2 * s + 1
            s0[fl0], s0[fl1] = fl1, fl0
            vertex_of[fl0], vertex_of[fl1] = a - 1, b - 1
            face_of[fl0] = face_of[fl1] = fi
            # s1 joins the two edge-sides meeting at vertex f[i+1] inside f
            nxt = base + (i + 1) % k
            s1[2 * s + 1] = 2 * nxt
            s1[2 * nxt] = 2 * s + 1

    # s2 pairs the flags of an edge's two sides that sit at the same vertex:
    # the first flags of the sides match, or each matches the other's second
    for sa, sb in edge_slots.values():
        fa, fb = 2 * sa, 2 * sb
        if vertex_of[fa] != vertex_of[fb]:
            fb += 1
        s2[fa], s2[fb] = fb, fa
        s2[fa ^ 1], s2[fb ^ 1] = fb ^ 1, fa ^ 1

    # one walk of the flag graph checks that it is connected and 2-colours
    # the flags: the surface is orientable exactly when s0, s1 and s2 all
    # swap colours
    color = bytearray(nflags)  # 0 until reached, then 1 or 2
    color[0] = 1
    stack = [0]
    orientable = True
    while stack:
        fl = stack.pop()
        c = 3 - color[fl]
        for img in (s0[fl], s1[fl], s2[fl]):
            if not color[img]:
                color[img] = c
                stack.append(img)
            elif color[img] != c:
                orientable = False
    if 0 in color:
        raise DisconnectedError("flag graph is not connected")

    # the fan of each label: from its first flag, alternately applying s1
    # and s2 walks the umbrella of corners around it, recording the face at
    # every step and the far end of the edge crossed (the vertex of the
    # flag's s0 image).  The label carries a single umbrella exactly when
    # the walk meets all of its corners, two flags each.
    first = [-1] * flm.vertex_count
    flags_at = [0] * flm.vertex_count
    for fl in range(nflags):
        v = vertex_of[fl]
        flags_at[v] += 1
        if first[v] < 0:
            first[v] = fl
    fans = []
    for v, start in enumerate(first):
        fan, nbrs = [], []
        fl = start
        while True:
            fan.append(face_of[fl])
            nbrs.append(vertex_of[s0[fl]] + 1)
            fl = s2[s1[fl]]
            if fl == start:
                break
        if 2 * len(fan) != flags_at[v]:
            raise PinchedVertexError(
                f"vertex {v + 1} has {flags_at[v] // 2} corners but an "
                f"umbrella of only {len(fan)}"
            )
        fans.append((tuple(fan), tuple(nbrs)))

    m = CombMap(
        s0=s0,
        s1=s1,
        s2=s2,
        vertex_of=vertex_of,
        face_of=face_of,
        f0=flm.vertex_count,
        f1=len(edges),
        f2=len(faces),
        faces=faces,
        edges=tuple(edges),
    )
    m._fans = fans
    m._orientable = orientable
    return m


def euler_characteristic(m: CombMap) -> int:
    return m.f0 - m.f1 + m.f2


def surface_signature(m: CombMap) -> tuple[int, bool, int]:
    """(Euler characteristic, orientable?, Euler genus).

    Orientability is decided by build_from_faces: its connectivity walk
    2-colours the flags, and the map is orientable exactly when s0, s1 and
    s2 all swap colours.
    """
    chi = euler_characteristic(m)
    return chi, m._orientable, 2 - chi


def _check_vertex(m: CombMap, v: int) -> None:
    if not (1 <= v <= m.f0):
        raise NoSuchVertexError(f"no vertex {v} (map has 1..{m.f0})")


def face_cycle_type(m: CombMap, v: int) -> tuple[int, ...]:
    """Sizes of the faces around v in rotation order (raw, not normalized)."""
    _check_vertex(m, v)
    return tuple(len(m.faces[fi]) for fi in m.vertex_fan(v))


def link_cycle(m: CombMap, v: int) -> LinkCycle:
    """Boundary cycle of the closed star of v.

    Each face of the fan contributes its boundary path between the two edges
    at v; consecutive contributions share their junction neighbor.  The
    paths always chain: fan face j meets v once, between junctions j, j + 1.
    """
    _check_vertex(m, v)
    fan = m.vertex_fan(v)
    nbrs = m.vertex_fan_junctions(v)
    boundary = []
    for j, fi in enumerate(fan):
        f = m.faces[fi]
        i = f.index(v)
        path = f[i + 1:] + f[:i]  # the face minus v, one junction to the other
        if path[0] != nbrs[j]:
            path = path[::-1]
        boundary.extend(path[:-1])
    return LinkCycle(center=v, boundary=tuple(boundary))


def validate_polyhedral(m: CombMap) -> PolyhedralityReport:
    """Check the polyhedrality conditions and report every violation.

    ok requires any two distinct faces to share at most one edge and, if not
    an edge, at most one vertex.  That pair test alone decides
    polyhedrality: it also implies that every vertex star is a disc whose
    link is a simple cycle.  The builder guarantees distinct labels in a
    face (so no loops, and each link path avoids its centre), two face
    sides per edge (a doubled vertex pair is an edge-degree error) and one
    umbrella per vertex, so each face at v is one face of v's fan.  A
    vertex w met twice on v's link lies on two distinct faces F and G at
    v that do not share the edge vw (that edge has only two sides and puts
    w on the link once).  With no common edge, F and G share the two
    vertices v and w; with one, it is not vw, so its ends and v, w make a
    third common vertex; otherwise they share two edges.  Each case is a
    big-face-intersection entry, listed by face pair in ascending order.

    One pass over the builder's fans counts what each meeting pair shares.
    A face has one corner at each of its vertices, so faces i and j share v
    exactly when both are in v's fan; an edge's two sides lie on distinct
    faces, and each edge i and j share is the fan junction between them at
    both of its ends, so it is counted twice.
    """
    verts: Counter = Counter()
    junctions: Counter = Counter()
    for fan, _ in m._fans:
        verts.update(combinations(sorted(fan), 2))
        # a junction sits between two consecutive faces of the fan
        junctions.update((f, g) if f < g else (g, f) for f, g in zip(fan, fan[1:] + fan[:1]))
    violations: list[tuple[str, tuple]] = []
    for (i, j), nv in sorted(verts.items()):
        ne = junctions[i, j] >> 1
        if ne > 1:
            violations.append(("big-face-intersection", (i, j, "edges", ne)))
        elif ne == 1 and nv > 2:
            violations.append(("big-face-intersection", (i, j, "vertices-beyond-edge")))
        elif not ne and nv > 1:
            violations.append(("big-face-intersection", (i, j, "vertices", nv)))
    return PolyhedralityReport(ok=not violations, violations=tuple(violations))


def semi_equivelar_type(m: CombMap) -> Optional[VertexTypeSpec]:
    """The common vertex type, or None when face-cycle types differ (or some
    vertex has degree below 3, which no vertex type covers)."""
    spec = None
    for v in range(1, m.f0 + 1):
        raw = face_cycle_type(m, v)
        if len(raw) < 3:
            return None
        t = normalize_cycle(raw)
        if spec is None:
            spec = t
        elif spec != t:
            return None
    return VertexTypeSpec._of_canonical(spec)


def face_list_of(m: CombMap) -> FaceListMap:
    """Round-trip a CombMap back to its face-list presentation."""
    return FaceListMap(vertex_count=m.f0, faces=m.faces)


def dual_map(m: CombMap) -> CombMap:
    """The dual map: swap the roles of vertices and faces (s0 <-> s2).

    Vertex labels of the dual are the original face indices + 1; the dual's
    faces are the vertex umbrellas of the original.
    """
    dual_faces = []
    for v in range(1, m.f0 + 1):
        dual_faces.append(tuple(fi + 1 for fi in m.vertex_fan(v)))
    return build_from_faces(FaceListMap(vertex_count=m.f2, faces=tuple(dual_faces)))
