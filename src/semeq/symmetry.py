"""Canonical forms, isomorphism, automorphisms and orbit analysis.

The canonical code of a connected map is a complete isomorphism invariant:
from every start flag, a breadth-first traversal that follows s0, s1, s2 in
that fixed order numbers the flags by first visit; writing each flag's image
triple in the new numbering gives one candidate code, and the lexicographic
minimum over all starts is the canonical code.  Two connected maps are
isomorphic exactly when their codes agree, and each code-minimizing start
flag yields one automorphism, so the automorphism group falls out of the same
scan for free.  A start is dropped at the first code entry above the least
code so far (McKay, J. Algorithms 26, 1998); one that ties or wins runs to
the end.  While a start's code matches the least code so far it is only
compared, never written: a tie copies the least code, and a start that wins
writes from the first entry below it on.  The image triples (s0, s1, s2) of
all flags are built once per scan and read by every traversal.  Each tie is
an automorphism, and the scan keeps the flag orbits of the automorphisms
found so far in a union-find whose roots are the least flags of their
orbits.  A start in the orbit of an earlier flag has that flag's code, so
it is skipped (orbit pruning, as in McKay & Piperno, J. Symb. Comput. 60,
2014): on a map with a large group a few ties generate it, and the other
starts in their orbits are never traversed.  At the end the orbits are those
of the whole group, since the ties reach every least-code flag and the group
acts freely on flags, and the minimizing starts are the orbit of the first,
as in a full scan.  The scan runs once per map and is cached on the CombMap:
canonical_code, automorphism_group, isomorphic, canonical_order and
vertex_orbits all read that one record (code, minimizing starts, traversal
order from the first, flag orbits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .mapcore import CombMap

__all__ = [
    "CanonicalCode",
    "PermGroup",
    "GiGraph",
    "canonical_code",
    "canonical_order",
    "isomorphic",
    "automorphism_group",
    "recognize_group",
    "vertex_orbits",
    "is_vertex_transitive",
    "gi_graph",
]


@dataclass(frozen=True)
class CanonicalCode:
    data: bytes

    def digest(self) -> str:
        import hashlib  # on first use: importing it loads OpenSSL (+3.7 MB RSS)

        return hashlib.sha256(self.data).hexdigest()


def _encode(code: list[int]) -> bytes:
    """One byte per entry while every entry is below 255, else two bytes
    each, big-endian, or as many as the largest entry needs when two do
    not hold it.  The largest entry is the flag count less one, so maps
    with the same flag count share a width."""
    top = max(code, default=0)
    if top < 255:
        return bytes(code)
    width = 2 if top < 1 << 16 else (top.bit_length() + 7) // 8
    out = bytearray()
    for x in code:
        out += x.to_bytes(width, "big")
    return bytes(out)


@dataclass(frozen=True)
class _CanonicalForm:
    """Result of one canonical scan: the encoded least code, the start flags
    attaining it in flag order, the traversal order from the first, and
    for each flag the least flag of its automorphism orbit."""

    code: bytes
    starts: tuple[int, ...]
    order: tuple[int, ...]
    orbits: tuple[int, ...]


def _traverse(m: CombMap, start: int, bound: Optional[list[int]] = None,
              nbr: Optional[list[tuple[int, int, int]]] = None
              ) -> Optional[tuple[list[int], list[int]]]:
    """BFS flag numbering from one start flag: each visited flag adds the
    numbers of its s0, s1, s2 images, read from nbr, the image triples of
    all flags (built here when not given).  Returns (code, order), order[k]
    being the k-th visited flag.

    With a bound, no code is written while it matches bound: each visited
    flag's three numbers are compared with bound's entries.  At the first
    flag that differs, None is returned when its numbers are the greater;
    otherwise the code so far is bound's prefix plus those three numbers,
    and the traversal goes on writing without comparing.  A code equal to
    bound is returned as a copy of bound."""
    if nbr is None:
        nbr = list(zip(m.s0, m.s1, m.s2))
    num = [-1] * len(nbr)
    num[start] = 0
    order = [start]
    flags = iter(order)  # the list grows while it is read
    code: list[int] = []
    if bound is not None:
        pos = 0
        for fl in flags:
            x, y, z = nbr[fl]
            kx = num[x]
            if kx < 0:
                kx = num[x] = len(order)
                order.append(x)
            ky = num[y]
            if ky < 0:
                ky = num[y] = len(order)
                order.append(y)
            kz = num[z]
            if kz < 0:
                kz = num[z] = len(order)
                order.append(z)
            if kx != bound[pos] or ky != bound[pos + 1] or kz != bound[pos + 2]:
                break
            pos += 3
        else:
            return bound[:], order
        if [kx, ky, kz] > bound[pos:pos + 3]:
            return None
        code = bound[:pos]
        code += kx, ky, kz
    for fl in flags:
        for img in nbr[fl]:
            k = num[img]
            if k < 0:
                k = num[img] = len(order)
                order.append(img)
            code.append(k)
    return code, order


def _flag_code(m: CombMap, start: int, nbr: list[tuple[int, int, int]]) -> bytes:
    """The encoded code of the whole traversal from one start flag; two
    flags have the same code exactly when an isomorphism of their maps
    carries one to the other.  nbr: the image triples, as in _traverse."""
    return _encode(_traverse(m, start, nbr=nbr)[0])


def _scan(m: CombMap) -> _CanonicalForm:
    """Traverse from every start flag and keep the least code, dropping a
    start at its first code entry above the least code so far and skipping
    a start in the orbit of an earlier flag.  The flags' image triples are
    built once and shared by every traversal."""
    nbr = list(zip(m.s0, m.s1, m.s2))
    parent = list(range(m.flag_count))  # union-find; a root is its orbit's least flag

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    best: Optional[list[int]] = None
    for start in range(m.flag_count):
        if root(start) != start:
            continue
        found = _traverse(m, start, best, nbr)
        if found is None:
            continue
        code, order = found
        if best is None or code < best:
            best, best_order = code, order
            continue
        # a tie: the automorphism best_order[k] -> order[k] joins its cycles
        for a, b in zip(best_order, order):
            a, b = root(a), root(b)
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    orbits = tuple(root(x) for x in range(m.flag_count))
    first = best_order[0]
    starts = tuple(x for x, r in enumerate(orbits) if r == first)
    return _CanonicalForm(_encode(best), starts, tuple(best_order), orbits)


def _canonical_form(m: CombMap) -> _CanonicalForm:
    if m._canon is None:
        m._canon = _scan(m)
    return m._canon


def canonical_code(m: CombMap) -> CanonicalCode:
    """Lexicographically least traversal code over all start flags."""
    return CanonicalCode(_canonical_form(m).code)


def canonical_order(m: CombMap) -> tuple[int, ...]:
    """Flags in the traversal order of the first code-minimizing start."""
    return _canonical_form(m).order


def isomorphic(m1: CombMap, m2: CombMap) -> Optional[dict[int, int]]:
    """A vertex bijection carrying m1 onto m2, or None.

    When the canonical codes agree, matching the two canonical traversals
    flag-by-flag is a flag isomorphism: it commutes with s0, s1 and s2, so
    it carries each vertex's flags (an orbit of s1 and s2) onto one vertex's
    flags and maps faces to faces.  Read at every flag it gives one
    consistent vertex bijection.
    """
    if m1.flag_count != m2.flag_count:
        return None
    form1, form2 = _canonical_form(m1), _canonical_form(m2)
    if form1.code != form2.code:
        return None
    return {m1.vertex_of[a] + 1: m2.vertex_of[b] + 1
            for a, b in zip(form1.order, form2.order)}


@dataclass(frozen=True)
class PermGroup:
    """A finite permutation group on flags: every element (not a generating
    set), with the projected vertex action in the same order."""

    degree: int
    elements: tuple[tuple[int, ...], ...]
    vertex_action: tuple[tuple[int, ...], ...]
    order: int
    structure: str

    def vertex_orbits(self) -> list[tuple[int, ...]]:
        # the element list is the whole group, so a vertex's orbit is the
        # set of its images
        n = len(self.vertex_action[0]) if self.vertex_action else 0
        orbits = {tuple(sorted({p[i] + 1 for p in self.vertex_action})) for i in range(n)}
        return sorted(orbits)


def _perm_order(p: tuple[int, ...]) -> int:
    n = len(p)
    seen = [False] * n
    out = 1
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            out = math.lcm(out, length)
    return out


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[x] for x in q)


_CATALOG_ORDER = 16  # the largest group order recognize_group names


def recognize_group(elements) -> str:
    """Structure label for a small permutation group, given as its full
    element list.  The label depends only on the abstract group (element
    orders, commutation, the dihedral relation), so any faithful action of
    one group gets the same label; automorphism_group passes the vertex
    action, the smallest it has.

    The catalog covers the groups met in the census: trivial, cyclic Z_n,
    dihedral D_n of order 2n (with the Klein four-group reported as "D_2
    (Klein four)"), and elementary abelian groups, all up to order 16.
    Anything else is labeled unrecognized(order).
    """
    order = len(elements)
    if order == 1:
        return "trivial"
    if order > _CATALOG_ORDER:
        return f"unrecognized({order})"
    orders = sorted(_perm_order(g) for g in elements)
    abelian = all(
        _compose(a, b) == _compose(b, a) for a in elements for b in elements
    )
    if order == 4 and abelian and orders == [1, 2, 2, 2]:
        return "D_2 (Klein four)"
    if max(orders) == order:
        return f"Z_{order}"
    for p in (2, 3):
        if all(o in (1, p) for o in orders) and abelian:
            k = round(math.log(order, p))
            return f"elementary-abelian (Z_{p}^{k})"
    if order % 2 == 0:
        half = order // 2
        cyc = [g for g in elements if _perm_order(g) == half]
        if cyc:
            g = cyc[0]
            powers = [g]  # g, g^2, ..., g^half = identity
            for _ in range(half - 1):
                powers.append(_compose(powers[-1], g))
            ident, ginv = powers[-1], powers[-2]
            for h in elements:
                if h not in powers and _compose(h, h) == ident:
                    if _compose(_compose(h, g), h) == ginv:
                        return f"D_{half}"
    return f"unrecognized({order})"


def _automorphisms(m: CombMap):
    """Aut(m) from the canonical-code scan, in the order of its starts: one
    (flag permutation, vertex permutation) pair per element, 0-based.  The
    flag permutation is one list, overwritten for the next element.

    Every code-minimizing start flag s gives exactly one automorphism, the
    one carrying the first minimizing start to s.  An automorphism commutes
    with s0, s1 and s2, so a flag's image is read from that of the earlier
    flag it was reached from in the reference traversal, with no traversal
    from s, and a vertex's image is the vertex of its first flag's image.
    The vertex action is checked to be faithful; polyhedral maps never trip
    this."""
    form = _canonical_form(m)
    order, vertex_of = form.order, m.vertex_of
    # (flag, earlier flag, involution carrying the earlier one to it)
    steps = []
    reached = [False] * m.flag_count
    reached[order[0]] = True
    for fl in order:
        for inv in (m.s0, m.s1, m.s2):
            img = inv[fl]
            if not reached[img]:
                reached[img] = True
                steps.append((img, fl, inv))
    first = [0] * m.f0  # each vertex's first flag in the traversal
    for fl in reversed(order):
        first[vertex_of[fl]] = fl
    seen = set()
    perm = [0] * m.flag_count
    for s in form.starts:
        perm[order[0]] = s
        for fl, prev, inv in steps:
            perm[fl] = inv[perm[prev]]
        vt = tuple([vertex_of[perm[fl]] for fl in first])
        if vt in seen:
            raise ValueError("vertex projection of the automorphism group is not faithful")
        seen.add(vt)
        yield perm, vt


def automorphism_group(m: CombMap) -> PermGroup:
    """The full automorphism group from the canonical-code scan, every
    element written out (_automorphisms).  The structure label is named
    from the vertex action: a faithful action names the same group, and its
    permutations are on f0 points, not on the 2d points per vertex of
    degree d that the flags give.
    """
    elements, vertex_elements = [], []
    for perm, vt in _automorphisms(m):
        elements.append(tuple(perm))
        vertex_elements.append(vt)
    return PermGroup(
        degree=m.flag_count,
        elements=tuple(elements),
        vertex_action=tuple(vertex_elements),
        order=len(elements),
        structure=recognize_group(vertex_elements),
    )


def _group_summary(m: CombMap) -> tuple[int, str, list[tuple[int, ...]]]:
    """The order, structure label and vertex orbits of Aut(m), read from the
    cached scan without writing the group out: the order is the number of
    code-minimizing start flags.  The vertex action alone is written
    (_automorphisms) only when recognize_group needs it, up to its catalog
    order; a larger group is unrecognized by its order alone."""
    order = len(_canonical_form(m).starts)
    if order <= _CATALOG_ORDER:
        structure = recognize_group([vt for _, vt in _automorphisms(m)])
    else:
        structure = f"unrecognized({order})"
    return order, structure, vertex_orbits(m)


def vertex_orbits(m: CombMap) -> list[tuple[int, ...]]:
    """The vertex orbits of Aut(m), from the flag orbits of the cached scan:
    each flag orbit's vertex set is one vertex orbit, since an automorphism
    carrying a flag at v to a flag at w carries v to w."""
    orbits: dict[int, set[int]] = {}
    for fl, root in enumerate(_canonical_form(m).orbits):
        orbits.setdefault(root, set()).add(m.vertex_of[fl] + 1)
    return sorted({tuple(sorted(o)) for o in orbits.values()})


def is_vertex_transitive(m: CombMap) -> bool:
    return len(vertex_orbits(m)) == 1


@dataclass(frozen=True)
class GiGraph:
    """Graph on the map's vertices joining u, v when their link-vertex sets
    share exactly i elements."""

    i: int
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def degree_multiset(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for a, b in self.edges:
            deg[a - 1] += 1
            deg[b - 1] += 1
        return tuple(sorted(deg))

    def is_perfect_matching_on_support(self) -> bool:
        # every vertex of an edge has degree 1: no endpoint repeats
        ends = [v for e in self.edges for v in e]
        return bool(ends) and len(set(ends)) == len(ends)


def _link_masks(m: CombMap) -> list[int]:
    """L(v) for each label v as an int bitmask (bit w set for w in L(v);
    entry 0 unused): the vertices of v's faces other than v.  This is the
    vertex set of v's link, since the builder refuses pinched vertices, so
    v's faces are exactly its fan."""
    masks = [0] * (m.f0 + 1)
    for f in m.faces:
        fm = 0
        for v in f:
            fm |= 1 << v
        for v in f:
            masks[v] |= fm
    for v in range(1, m.f0 + 1):
        masks[v] &= ~(1 << v)
    return masks


def _gi_degrees(m: CombMap) -> dict[int, list[int]]:
    """For each i such that G_i has an edge, the degree of every vertex in
    G_i (vertex v at index v - 1), from one popcount of L(a) & L(b) per
    vertex pair a < b.  Only pairs with a common link vertex are counted;
    G_0 takes the rest of each vertex's n - 1 pairs, and is kept only when
    some vertex has such a pair."""
    n = m.f0
    masks = _link_masks(m)
    degs: dict[int, list[int]] = {}
    for a in range(1, n):
        la = masks[a]
        for b in range(a + 1, n + 1):
            k = (la & masks[b]).bit_count()
            if k:
                deg = degs.get(k)
                if deg is None:
                    deg = degs[k] = [0] * n
                deg[a - 1] += 1
                deg[b - 1] += 1
    zero = [n - 1 - sum(col) for col in zip(*degs.values())] if degs else [n - 1] * n
    if any(zero):
        degs[0] = zero
    return degs


def gi_graph(m: CombMap, i: int) -> GiGraph:
    masks = _link_masks(m)
    n = m.f0
    edges = tuple((a, b) for a in range(1, n) for b in range(a + 1, n + 1)
                  if (masks[a] & masks[b]).bit_count() == i)
    return GiGraph(i=i, vertex_count=n, edges=edges)
