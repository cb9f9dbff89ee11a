"""Reference implementations the tests hold the library against."""

from fractions import Fraction
from itertools import permutations

from semeq.mapcore import link_cycle
from semeq.symmetry import GiGraph, _encode
from semeq.typecalc import (AdmissiblePair, FilterOptions, VertexTypeSpec, closed_star_size,
                            datta_maity_admissible, face_counts, normalize_cycle, vertex_count_for)


def _admissible_pair(t: VertexTypeSpec, chi: int, opts: FilterOptions):
    """Every enabled rule on one cyclic type, in Fraction arithmetic; the
    AdmissiblePair it passes as, or None."""
    n = vertex_count_for(t, chi)
    if n is None or n < opts.min_vertices:
        return None
    xs = face_counts(t, n)
    if xs is None or any(x < opts.min_face_count for x in xs.values()):
        return None
    applied = ["euler", "integral-face-counts", f"min-vertices>={opts.min_vertices}"]
    if opts.prop1:
        if not datta_maity_admissible(t)[0]:
            return None
        applied.append("parity-rules")
    if opts.closed_star:
        star = closed_star_size(t)
        if star > n or (star == n and t.degree != n - 1):
            return None
        applied.append("closed-star")
    return AdmissiblePair(n=n, type=t, face_counts=xs, filters_passed=tuple(applied))


def admissible_types_bruteforce(
    chi: int, opts: FilterOptions | None = None, p_max: int = 100
) -> list[AdmissiblePair]:
    """Independent oracle for admissible_types: exhaust every cyclic sequence
    of degree 3..6 with entries up to p_max through every rule at once
    (_admissible_pair), with no per-multiset prefilter and no window pruning
    beyond the feasibility cut."""
    if chi >= 0:
        raise ValueError("requires chi < 0")
    opts = opts or FilterOptions()
    found: dict[tuple[int, ...], AdmissiblePair] = {}
    for d in range(3, 7):
        # plain exhaustive loop over nondecreasing tuples, feasibility cut only
        stack: list[tuple[list[int], int, Fraction]] = [([], 3, Fraction(0))]
        while stack:
            prefix, start, acc = stack.pop()
            r = d - len(prefix)
            if r == 0:
                if acc < Fraction(d, 2) - 1:
                    for cyc in {normalize_cycle(p) for p in set(permutations(prefix))}:
                        if cyc not in found:
                            pair = _admissible_pair(VertexTypeSpec(cyc), chi, opts)
                            if pair is not None:
                                found[cyc] = pair
                continue
            for p in range(start, p_max + 1):
                nacc = acc + Fraction(1, p)
                # all remaining entries are >= p, so the final sum is at most
                # acc + r/p; once that dips below the window floor stop growing p
                if acc + Fraction(r, p) < Fraction(d, 2) - 1 - Fraction(-chi, opts.min_vertices):
                    break
                stack.append((prefix + [p], p, nacc))
    return sorted(found.values(), key=lambda a: (a.type.degree, a.n, a.type.cycle))


def canonical_scan_full(m) -> tuple[bytes, tuple[int, ...], tuple[int, ...]]:
    """Oracle for symmetry._scan: traverse from every start flag to the end,
    write each code in full, and compare whole codes.  Returns the encoded
    least code, the start flags attaining it in flag order, and the
    traversal order from the first of them."""
    best = None
    for start in range(m.flag_count):
        num = [-1] * m.flag_count
        num[start] = 0
        order = [start]
        for fl in order:  # BFS: the list grows while it is read
            for img in (m.s0[fl], m.s1[fl], m.s2[fl]):
                if num[img] < 0:
                    num[img] = len(order)
                    order.append(img)
        code = []
        for fl in order:
            code += (num[m.s0[fl]], num[m.s1[fl]], num[m.s2[fl]])
        if best is None or code < best:
            best, best_order, starts = code, order, [start]
        elif code == best:
            starts.append(start)
    return _encode(best), tuple(starts), tuple(best_order)


def disc_star_failures(m) -> list[int]:
    """The vertices whose link cycle, as link_cycle reads it, repeats a
    vertex: the disc-star rule validate_polyhedral applied next to its
    face-pair test until that test was shown to imply it."""
    out = []
    for v in range(1, m.f0 + 1):
        boundary = link_cycle(m, v).boundary
        if len(set(boundary)) != len(boundary):
            out.append(v)
    return out


def polyhedral_two_part(m) -> bool:
    """Oracle for validate_polyhedral(m).ok: the two-part rule written out
    on its own.  Any two distinct faces share at most one edge, and at most
    two vertices with an edge or one without; and no vertex fails the
    disc-star rule."""
    edge_sets = [{frozenset((f[i - 1], f[i])) for i in range(len(f))} for f in m.faces]
    for i, f in enumerate(m.faces):
        for j in range(i + 1, len(m.faces)):
            shared_e = len(edge_sets[i] & edge_sets[j])
            if shared_e > 1 or len(set(f) & set(m.faces[j])) > (2 if shared_e else 1):
                return False
    return not disc_star_failures(m)


def polyhedral_violations_all_pairs(m) -> tuple:
    """Oracle for validate_polyhedral(m).violations: every pair of faces
    i < j in order, each face's vertex set and edge set built on its own
    and intersected with every other's."""
    face_sets = [set(f) for f in m.faces]
    edge_sets = [{frozenset((f[i - 1], f[i])) for i in range(len(f))} for f in m.faces]
    out = []
    for i in range(len(m.faces)):
        for j in range(i + 1, len(m.faces)):
            shared_e = len(edge_sets[i] & edge_sets[j])
            shared_v = len(face_sets[i] & face_sets[j])
            if shared_e > 1:
                out.append(("big-face-intersection", (i, j, "edges", shared_e)))
            elif shared_e == 1:
                if shared_v > 2:
                    out.append(("big-face-intersection", (i, j, "vertices-beyond-edge")))
            elif shared_v > 1:
                out.append(("big-face-intersection", (i, j, "vertices", shared_v)))
    return tuple(out)


def gi_buckets_pairwise(m) -> dict[int, list[tuple[int, int]]]:
    """Oracle for the G_i graphs: every vertex pair a < b in label order,
    bucketed by |L(a) & L(b)|, where L(v) is the vertex set of v's link
    cycle as link_cycle reads it; each link set is built once."""
    links = [set(link_cycle(m, v).boundary) for v in range(1, m.f0 + 1)]
    buckets: dict[int, list[tuple[int, int]]] = {}
    for a in range(1, m.f0 + 1):
        la = links[a - 1]
        for b in range(a + 1, m.f0 + 1):
            buckets.setdefault(len(la & links[b - 1]), []).append((a, b))
    return buckets


def gi_summary_pairwise(m) -> dict:
    """analyze_map's gi_graphs record, from the pairwise buckets and the
    degree multiset of each bucket's graph."""
    buckets = gi_buckets_pairwise(m)
    out = {}
    for i in sorted(buckets):
        degs = GiGraph(i, m.f0, tuple(buckets[i])).degree_multiset()
        out[str(i)] = {"edges": len(buckets[i]), "degree_multiset_constant": len(set(degs)) == 1}
    return out


def validate_vertex(st, v: int, a: int, b: int, c: str) -> bool:
    """The written fan rule the search kernel applies inline: whether the
    fan of v in the search state st stays valid when a corner between
    neighbours a and b, of a face with size character c, joins it.  The
    corner is not added.

    The fan is read from the arc-end table ``st.ends[v]``.  The corner joins
    at most two arcs, the ones ending at a and at b, so the test is two
    lookups plus one lookup of the joined size word in ``st.words``; the
    word has at most d sizes.  A d-th corner is accepted only when it
    closes the fan, so a fan is closed exactly when it has d corners.
    Closing an arc into a cycle is legal only as the whole fan; otherwise
    every arc must embed in the type cycle, and joining k arcs into the fan
    takes at least k more corners.  A fan one corner short needs no further
    test: a word of d - 1 sizes that embeds is completed by the missing
    size.
    """
    count = st.corner_count[v] + 1
    d = st.d
    if count > d:
        return False
    ends = st.ends[v]
    arc_a = ends.get(a)
    arc_b = ends.get(b)
    arcs = len(ends) >> 1
    if arc_a is None:
        if arc_b is None:
            arcs += 1
            word = c
        else:
            word = c + arc_b[1]
    elif arc_b is None:
        word = c + arc_a[1]
    elif arc_a[0] == b:
        # the arc closes into a cycle: legal only as the whole fan (a valid
        # fan one corner short is a single arc)
        return count == d and c + arc_a[1] in st.words
    else:
        arcs -= 1
        word = ends[arc_a[0]][1] + c + arc_b[1]
    if count == d or d - count < arcs:
        return False
    return word in st.words


def size_corners(st) -> dict[int, list[int]]:
    """The corner-quota rule written out on its own: for each face size q
    of the search state st, the number of q-corners at each label 0..n,
    counted from the face paths.  A closed face (its path holds fsize
    vertices) has a corner at each of its vertices; the open one has one
    at each inner vertex of its path, and its ends get theirs later.  In a
    map of the type every vertex has as many q-corners as q occurs in the
    type cycle."""
    out = {q: [0] * (st.n + 1) for q in set(st.cycle)}
    for path, q in zip(st.fpath, st.fsize):
        for y in path if len(path) == q else path[1:-1]:
            out[q][y] += 1
    return out


def size_supply_holds(st, q) -> bool:
    """The size supply after a step of the search state st that closed a
    q-gon: it holds while q-gons are left to place, and once all n*m_q/q
    are closed it needs all n labels taken, each with its m_q q-corners
    (counted by size_corners)."""
    m_q = st.cycle.count(q)
    if st.fsize.count(q) * q < st.n * m_q:
        return True
    return st.labels_used == st.n and size_corners(st)[q][1:] == [m_q] * st.n
