"""Combinatorial maps on closed surfaces via flags.

A map is stored as three fixed-point-free involutions s0, s1, s2 on its flag
set (one flag per incident vertex-edge-face triple, 4 per edge).  s0 moves a
flag to the other vertex of its edge, s1 to the other edge at its vertex
inside its face, s2 across the edge to the other face.  This encoding handles
orientable and non-orientable surfaces uniformly, which matters here: the
census surface has odd Euler characteristic and admits no rotation system.

Maps are built from a human-readable face list (labeled vertices, faces as
cyclic vertex sequences) and are immutable afterwards; all topology queries
(Euler characteristic, orientability, links, face-cycle types) read the flag
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    source of truth for everything topological.
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
        self._fans = None
        self._canon = None  # symmetry's canonical scan, filled on first use

    def vertex_fan(self, v: int) -> tuple[int, ...]:
        """Faces incident to vertex v in rotation order (face indices)."""
        return self._all_fans()[v - 1][0]

    def vertex_fan_junctions(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in rotation order: junction j sits between fan
        face j-1 and fan face j (indices mod degree)."""
        return self._all_fans()[v - 1][1]

    def _all_fans(self):
        if self._fans is None:
            self._fans = _compute_fans(self)
        return self._fans


def _compute_fans(m: CombMap):
    """Rotation order of faces around every vertex, from the flag arrays.

    Starting at any flag of v, alternately applying s1 and s2 walks the
    umbrella of corners around v; recording the face at every step and the
    far end of the edge crossed between steps (the vertex of the flag's s0
    image) yields the face cycle with its junctions.
    """
    start_flag = [-1] * m.f0
    for fl in range(m.flag_count):
        v = m.vertex_of[fl]
        if start_flag[v] == -1:
            start_flag[v] = fl
    fans = []
    for v in range(m.f0):
        fl = start_flag[v]
        fan = []
        nbrs = []
        cur = fl
        while True:
            fan.append(m.face_of[cur])
            nbrs.append(m.vertex_of[m.s0[cur]] + 1)
            cur = m.s2[m.s1[cur]]
            if cur == fl:
                break
        fans.append((tuple(fan), tuple(nbrs)))
    return fans


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

    for key, (sa, sb) in edge_slots.items():
        for side_a in (0, 1):
            fa = 2 * sa + side_a
            for side_b in (0, 1):
                fb = 2 * sb + side_b
                if vertex_of[fa] == vertex_of[fb]:
                    s2[fa], s2[fb] = fb, fa
                    break

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

    # connectivity of the flag graph
    seen = bytearray(nflags)
    stack = [0]
    seen[0] = 1
    count = 1
    while stack:
        fl = stack.pop()
        for img in (s0[fl], s1[fl], s2[fl]):
            if not seen[img]:
                seen[img] = 1
                count += 1
                stack.append(img)
    if count != nflags:
        raise DisconnectedError("flag graph is not connected")

    # every label must carry a single umbrella: orbits of <s1, s2> at the
    # label's flags are exactly the fan walk, so compare corner counts
    per_vertex_flags = [0] * flm.vertex_count
    for fl in range(nflags):
        per_vertex_flags[vertex_of[fl]] += 1
    for v in range(flm.vertex_count):
        fan = m.vertex_fan(v + 1)
        # one corner carries 2 flags at its vertex
        if 2 * len(fan) != per_vertex_flags[v]:
            raise PinchedVertexError(
                f"vertex {v + 1} has {per_vertex_flags[v] // 2} corners but an "
                f"umbrella of only {len(fan)}"
            )
    return m


def euler_characteristic(m: CombMap) -> int:
    return m.f0 - m.f1 + m.f2


def surface_signature(m: CombMap) -> tuple[int, bool, int]:
    """(Euler characteristic, orientable?, Euler genus).

    Orientability is a 2-coloring test: the map is orientable exactly when
    flags can be 2-colored with s0, s1 and s2 all color-swapping.
    """
    chi = euler_characteristic(m)
    color = [-1] * m.flag_count
    color[0] = 0
    stack = [0]
    orientable = True
    while stack and orientable:
        fl = stack.pop()
        c = color[fl] ^ 1
        for img in (m.s0[fl], m.s1[fl], m.s2[fl]):
            if color[img] == -1:
                color[img] = c
                stack.append(img)
            elif color[img] != c:
                orientable = False
                break
    return chi, orientable, 2 - chi


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
    at v; consecutive contributions share their junction neighbor.
    """
    _check_vertex(m, v)
    fan = m.vertex_fan(v)
    nbrs = m.vertex_fan_junctions(v)
    d = len(fan)
    boundary = []
    for j, fi in enumerate(fan):
        f = m.faces[fi]
        i = f.index(v)
        path = f[i + 1:] + f[:i]  # the face minus v, one junction to the other
        if path[0] != nbrs[j]:
            path = path[::-1]
        if path[0] != nbrs[j] or path[-1] != nbrs[(j + 1) % d]:
            raise MapBuildError(f"fan of vertex {v} does not chain into a link")
        boundary.extend(path[:-1])
    return LinkCycle(center=v, boundary=tuple(boundary))


def validate_polyhedral(m: CombMap) -> PolyhedralityReport:
    """Check the polyhedrality conditions and report every violation.

    ok requires: any two distinct faces sharing at most one edge and, if not
    an edge, at most one vertex, and every vertex star a disc whose link is a
    simple cycle.  The builder already guarantees the rest: FaceListMap
    rejects a face that repeats a vertex, so there are no loops and each
    link path (a face with v removed) avoids v; edges are keyed by vertex
    pair, so a doubled pair is an edge-degree error at build time.
    """
    violations: list[tuple[str, tuple]] = []
    face_sets = [frozenset(f) for f in m.faces]
    face_edges = []
    for f in m.faces:
        k = len(f)
        es = set()
        for i in range(k):
            a, b = f[i], f[(i + 1) % k]
            es.add((a, b) if a < b else (b, a))
        face_edges.append(es)
    nf = len(m.faces)
    for i in range(nf):
        for j in range(i + 1, nf):
            shared_e = face_edges[i] & face_edges[j]
            if len(shared_e) > 1:
                violations.append(("big-face-intersection", (i, j, "edges", len(shared_e))))
            elif len(shared_e) == 1:
                if len(face_sets[i] & face_sets[j]) > 2:
                    violations.append(("big-face-intersection", (i, j, "vertices-beyond-edge",)))
            else:
                if len(face_sets[i] & face_sets[j]) > 1:
                    violations.append(("big-face-intersection", (i, j, "vertices", len(face_sets[i] & face_sets[j]))))
    for v in range(1, m.f0 + 1):
        lk = link_cycle(m, v)
        if len(set(lk.boundary)) != len(lk.boundary):
            violations.append(("non-disc-star", (v,)))
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
