"""Early rejection in the search kernel is exact.

The search tests each extension candidate with ``_Search._passing`` before
it applies anything, using the arc-end tables of the vertex fans, and an
extension node keeps only the candidates that pass, from the end of the
open face that has fewer of them.  These tests walk whole search trees and
hold every candidate at both ends against an oracle that appends the vertex
to a copy of the face paths and re-derives, from the paths alone, each check
the step made when it was applied before being checked: edge loads,
adjacent-size words, the face-pair intersection rules and, corner by
corner, the fans that get a new corner.  The corner quota (a label with
all m_q of its q-corners joins no further q-gon) is held against the
oracle's own count of q-corners from the face paths (oracles.size_corners).
The walk also holds the kernel's shortcuts against plain derivations: the
children of each node against the passing candidates of both ends, taken
in branching order, less the labels the quota drops, and the sizes of each
start node against the arc word and the quota of both ends of the new
face; the candidate sets against the face paths and corner counts, the
integer-keyed edge table, the vertex mask of each face, the face list of
each vertex and the quota table against the face paths (after every apply
and every undo, with or without the pair prune), the saturated-neighbour
sets against the edge table, the open-label set against the corner
counts, and the once-per-end fan verdict against the fan test of each
candidate that ends no arc of the fan; where that verdict is False, every
child ends an arc.  Each undo must restore the whole search state, journal
length included.  At every node it checks the facts the kernel reads
instead of storing: only the last face can be open, a fan is closed
exactly when it has d corners, no label holds more than m_q q-corners, and
under the pair prune no two faces share two edges.  It also checks the
facts that spare the kernel a test: at a closing node neither end of the
open face has a full fan; closing the last q-gon leaves all n labels taken,
each with its m_q q-corners (the size supply, so no closing step checks it);
and at a completion the last face is closed and all n labels are taken
exactly when every size has its n*m_q/q faces.  The oracle reads
closedness from path lengths and tests words against the type cycle
itself, not against the kernel's tables.
"""

import pytest

from oracles import size_corners, size_supply_holds, validate_vertex
from semeq.enumerator import EnumOptions, _Search, enumerate_maps
from semeq.typecalc import parse_type


def _embeds(st, word):
    """word is a run of consecutive sizes of the type cycle, read in either
    direction."""
    cycle = "".join(st.size_char[s] for s in st.cycle)
    return word in cycle * 2 or word in cycle[::-1] * 2


class _View:
    """The state after extending the open face ``fid`` by ``y`` (and closing
    it, when ``close``), rebuilt from face paths."""

    def __init__(self, st, edges, fid, y, close=False):
        self.st = st
        self.fid = fid
        self.paths = list(st.fpath)
        self.paths[fid] = path = st.fpath[fid] + [y]
        self.closed = [len(p) == s for p, s in zip(st.fpath, st.fsize)]
        self.closed[fid] = close
        self.edges = edges
        self.new_edges = {frozenset(path[-2:])}
        if close:
            self.new_edges.add(frozenset((y, path[0])))

    def faces_on(self, a, b):
        key = frozenset((a, b))
        faces = self.edges.get(key, [])
        return faces + [self.fid] if key in self.new_edges else faces

    def face_edges(self, f):
        p = self.paths[f]
        k = len(p)
        return [frozenset((p[i], p[(i + 1) % k])) for i in range(k if self.closed[f] else k - 1)]

    def char(self, f):
        return self.st.size_char[self.st.fsize[f]]

    def embeds(self, word):
        return _embeds(self.st, word)

    def corners(self, v):
        out = {}
        for f, p in enumerate(self.paths):
            if v not in p:
                continue
            i = p.index(v)
            if self.closed[f]:
                out[f] = (p[i - 1], p[(i + 1) % len(p)])
            elif 0 < i < len(p) - 1:
                out[f] = (p[i - 1], p[i + 1])
        return out

    def partner(self, v, cdict, f, u):
        """The other corner face of v across the edge {v, u}, or None."""
        faces = self.faces_on(v, u)
        if len(faces) == 2:
            other = faces[1] if faces[0] == f else faces[0]
            if other in cdict:
                return other
        return None

    def walk(self, v, cdict, f, start):
        """Corner faces from f along v's fan, leaving f away from start."""
        comp = [f]
        prev, cur = start, f
        while True:
            a, b = cdict[cur]
            out = b if prev == a else a
            nxt = self.partner(v, cdict, cur, out)
            if nxt is None or nxt == f:
                return comp
            comp.append(nxt)
            prev, cur = out, nxt

    def edge_ok(self, a, b):
        """fid may be laid along {a, b}: at most one other face on it, of an
        adjacent size, sharing no other edge with fid (pair prune)."""
        others = [f for f in self.faces_on(a, b) if f != self.fid]
        if len(others) >= 2:
            return False
        if others:
            g = others[0]
            if not self.embeds(self.char(g) + self.char(self.fid)):
                return False
            key = frozenset((a, b))
            if self.st.pair_prune and any(
                e != key and g in self.faces_on(*e) for e in self.face_edges(self.fid)
            ):
                return False
        return True

    def pair_ok(self, f, g, u, w):
        faces = self.faces_on(u, w)
        if any(h != f and h != g for h in faces):
            return False
        for p in (f, g):
            if p in faces:
                continue
            # only the open face may lack the edge, and only when this step
            # fills its path: closing it then lays the edge between its ends
            path = self.paths[p]
            if (self.closed[p] or len(path) < self.st.fsize[p]
                    or {path[0], path[-1]} != {u, w}):
                return False
        return True

    def shared_ok(self, y):
        mine = set(self.paths[self.fid])
        for g, p in enumerate(self.paths):
            if g == self.fid or y not in p:
                continue
            shared = mine.intersection(p)
            if len(shared) > 2:
                return False
            if len(shared) == 2:
                (u,) = shared - {y}
                if not self.pair_ok(self.fid, g, u, y):
                    return False
        return True

    def fan_ok(self, v):
        cdict = self.corners(v)
        count, d = len(cdict), self.st.d
        if count > d:
            return False
        if count == 1:
            return True
        words, visited = [], set()
        for f, (a, b) in cdict.items():
            if f in visited:
                continue
            if self.partner(v, cdict, f, a) is None:
                comp = self.walk(v, cdict, f, a)
            elif self.partner(v, cdict, f, b) is None:
                comp = self.walk(v, cdict, f, b)
            else:
                continue
            visited.update(comp)
            words.append("".join(self.char(g) for g in comp))
        if len(visited) != count:
            # corners in a cycle: legal only as the whole fan
            if visited or count != d:
                return False
            f = next(iter(cdict))
            comp = self.walk(v, cdict, f, cdict[f][0])
            return len(comp) == count and self.embeds("".join(self.char(g) for g in comp))
        if count == d or d - count < len(words):
            return False
        if not all(self.embeds(w) for w in words):
            return False
        if count == d - 1:
            return any(self.embeds(words[0] + self.st.size_char[s])
                       for s in self.st.sizes_sorted)
        return True

    def half_corner_ok(self, y, v):
        faces = self.faces_on(v, y)
        if len(faces) != 2:
            return True
        g = faces[1] if faces[0] == self.fid else faces[0]
        cdict = self.corners(y)
        if g not in cdict:
            return True
        comp = self.walk(y, cdict, g, v)
        return self.embeds("".join(self.char(f) for f in reversed(comp)) + self.char(self.fid))


def _step_ok(st, edges, fid, y):
    """The checks of extending fid by y, in the order the step applied them."""
    step = _View(st, edges, fid, y)
    path = step.paths[fid]
    v = path[-2]
    if not step.edge_ok(v, y):
        return False
    if st.pair_prune and not step.shared_ok(y):
        return False
    if not step.fan_ok(v):
        return False
    if len(path) < st.fsize[fid]:
        return step.half_corner_ok(y, v)
    first = path[0]
    if not step.edge_ok(y, first):
        return False
    closed = _View(st, edges, fid, y, close=True)
    return closed.fan_ok(y) and closed.fan_ok(first)


def _edge_map(st):
    edges = {}
    for f, (p, s) in enumerate(zip(st.fpath, st.fsize)):
        k = len(p)
        for i in range(k if k == s else k - 1):
            edges.setdefault(frozenset((p[i], p[(i + 1) % k])), []).append(f)
    return edges


def _edges_of(st):
    """The edge table, keyed a*W + b for a < b, read back as vertex pairs;
    an edge that carries no face holds None, never an empty list."""
    out = {}
    for key, faces in enumerate(st.edge_faces):
        if faces is not None:
            a, b = divmod(key, st.width)
            assert faces and 0 < a < b <= st.n, (key, faces)
            out[frozenset((a, b))] = faces
    return out


def _vertex_tables_ok(st):
    """fmask and vfaces equal their recomputation from the face paths: each
    face's mask has the bits of its vertices, and each vertex lists the
    faces on it in ascending order, the order it joined them, since a face
    is begun only when every older face is closed."""
    masks = [sum(1 << y for y in p) for p in st.fpath]
    faces = [[f for f, p in enumerate(st.fpath) if y in p] for y in range(st.n + 1)]
    return st.fmask == masks and st.vfaces == faces


def _quota(st, q):
    """m_q, the q-corners of a vertex of the type."""
    return st.cycle.count(q)


def _tables_ok(st):
    """The edge table, the vertex tables of the faces, the quota table and
    the saturated-neighbour sets equal their recomputation from the face
    paths."""
    edges = _edges_of(st)
    if edges != _edge_map(st) or not _vertex_tables_ok(st):
        return False
    counts = size_corners(st)
    if st.lacks != {q: [_quota(st, q) - k for k in ks] for q, ks in counts.items()}:
        return False
    want = [set() for _ in st.saturated]
    for key, faces in edges.items():
        if len(faces) == 2:
            a, b = key
            want[a].add(b)
            want[b].add(a)
    return st.saturated == want


def _invariants_ok(st):
    """The facts the kernel reads rather than stores, derived from the face
    paths and the fans, and the open-label set it keeps, derived from the
    corner counts."""
    if any(len(p) != s for p, s in zip(st.fpath[:-1], st.fsize)):
        return False  # a face other than the last is open
    if st.open != {y for y in range(2, st.labels_used + 1) if st.corner_count[y] < st.d}:
        return False
    for v in range(1, st.n + 1):
        if (st.corner_count[v] == st.d) != (st.corner_count[v] > 0 and not st.ends[v]):
            return False  # a full fan that is open, or a closed one short of d
    if any(k > _quota(st, q) for q, ks in size_corners(st).items() for k in ks):
        return False  # a label over its corner quota
    if st.pair_prune:
        pairs = [tuple(faces) for faces in _edge_map(st).values() if len(faces) == 2]
        if len(pairs) != len({frozenset(p) for p in pairs}):
            return False  # two faces share two edges
    return True


def _snapshot(st):
    """A copy of the whole search state, to compare before a step and after
    its undo."""
    def lists(table):
        return [None if x is None else list(x) for x in table]

    return (lists(st.fpath), list(st.fsize), lists(st.edge_faces), list(st.fmask),
            lists(st.vfaces), [set(x) for x in st.saturated], [dict(x) for x in st.ends],
            list(st.corner_count), lists(st.lacks.values()), st.labels_used, set(st.open),
            len(st.journal))


def _candidates(st, fid, edges):
    """extend_candidates, rebuilt from the face paths and the corner counts
    as lists in branching order."""
    path = st.fpath[fid]
    last, first = path[-1], path[0]
    closing = len(path) + 1 == st.fsize[fid]
    tail, head = [], []
    for y in range(2, st.labels_used + 1):
        if y in path or st.corner_count[y] >= st.d:
            continue
        free_tail = len(edges.get(frozenset((last, y)), [])) < 2
        free_head = len(edges.get(frozenset((first, y)), [])) < 2
        if closing:
            free_tail = free_head = free_tail and free_head
        if free_tail:
            tail.append(y)
        if free_head:
            head.append(y)
    if st.labels_used < st.n:
        for out in (tail, head):
            out.insert(0 if st.fresh_first else len(out), st.labels_used + 1)
    return tail, head


def _passing(st, edges, fid, cands, raw, at_head):
    """The candidates of one end of the open face that pass the kernel's
    _passing, each tested on its own, in the order of the oracle's list
    cands, each verdict held against the oracle; then the kernel's _passing
    on the raw set must give the same list.  The head is read by reversing
    the path for the duration, as find_slot does."""
    path = st.fpath[fid]
    if at_head:
        path.reverse()
    v, c = path[-1], st.size_char[st.fsize[fid]]
    off_arc = validate_vertex(st, v, path[-2], 0, c)
    out = []
    for y in cands:
        ok = bool(st._passing(fid, {y}, 1))
        assert ok == _step_ok(st, edges, fid, y), (fid, y, st.fpath)
        if y not in st.ends[v]:
            # one verdict stands for every candidate that ends no arc at v
            assert off_arc == validate_vertex(st, v, path[-2], y, c)
        if ok:
            out.append(y)
    # the whole set at once, with the verdict _passing takes once per end
    assert st._passing(fid, raw, len(raw)) == out
    if at_head:
        path.reverse()
    return out


def _faces_spent(st, q):
    """Whether st holds all n*m_q/q faces of size q."""
    return st.fsize.count(q) * q == st.n * _quota(st, q)


def _walk(st, tally):
    """The search tree of _run, checking every candidate at both ends of the
    open face, the children find_slot keeps, the sizes of each start node,
    the candidate sets, the edge table, the vertex tables of the faces and
    the quota table, the saturated sets, the open-label set, the state each
    undo restores, the facts the kernel reads instead of storing and those
    that spare it a test.  The tables are checked after every step applied,
    rejected or not, and after every undo."""
    assert _invariants_ok(st), st.fpath
    counts = size_corners(st)
    if len(st.fpath[-1]) < st.fsize[-1]:  # a seeded state always has faces
        fid = len(st.fsize) - 1
        edges = _edge_map(st)
        raw = st.extend_candidates(fid)
        ordered = _candidates(st, fid, edges)
        assert raw == tuple(set(cands) for cands in ordered)
        passing = [_passing(st, edges, fid, cands, raw[at_head], at_head)
                   for at_head, cands in enumerate(ordered)]
        before = list(st.fpath[fid])
        closing = len(before) + 1 == st.fsize[fid]
        if closing:
            # extend_candidates gives both ends their candidates untested
            assert st.corner_count[before[0]] < st.d, st.fpath
            assert st.corner_count[before[-1]] < st.d, st.fpath
        if closing and raw[0] and raw[1]:
            # a closing step lays both edges: the same verdicts at either end
            assert set(passing[0]) == set(passing[1]), st.fpath
    slot = st.find_slot()
    if slot[0] == "complete":
        # _on_complete tests the label count alone
        assert len(st.fpath[-1]) == st.fsize[-1], st.fpath
        spent = all(_faces_spent(st, q) for q in counts)
        assert (st.labels_used == st.n) == spent, st.fpath
        tally["short"] += st.labels_used != st.n
        return
    if slot[0] == "extend":
        _, fid, rejected, kids = slot
        chosen = int(st.fpath[fid] != before)  # 1 when find_slot reversed the path
        first = int(len(raw[1]) < len(raw[0]))
        # the children are the passing candidates of the chosen end, in
        # order, less those that already have all their q-corners
        q = st.fsize[fid]
        assert kids == [y for y in passing[chosen] if counts[q][y] < _quota(st, q)], st.fpath
        assert rejected == len(raw[chosen]) - len(kids)
        tally["quota"] += len(passing[chosen]) - len(kids)
        # the other end never has strictly fewer passing candidates
        assert len(passing[1 - chosen]) >= len(passing[chosen]), st.fpath
        if closing or not passing[first]:
            # closing nodes, and dead ends, keep the shorter raw list
            assert chosen == first, st.fpath
        elif len(passing[1 - first]) == len(passing[first]):
            assert chosen == first, st.fpath  # a tie keeps the first end
        path = st.fpath[fid]
        v, c = path[-1], st.size_char[st.fsize[fid]]
        if not validate_vertex(st, v, path[-2], 0, c):
            # a forced fan: only labels that end an arc of v can pass
            assert all(y in st.ends[v] for y in kids), st.fpath
        tally["early"] += rejected
        tally["switched"] += chosen != first
        for y in kids:
            m = len(st.journal)
            before_step = _snapshot(st)
            st._append_vertex(fid, y)  # a child is never rejected once applied
            assert _tables_ok(st), st.fpath
            if closing:
                # once the last q-gon closes, every label is taken and has
                # its m_q q-corners: the size supply no step needs to check
                assert size_supply_holds(st, q), st.fpath
                tally["last"] += _faces_spent(st, q)
            tally["nodes"] += 1
            _walk(st, tally)
            st.undo_to(m)
            assert _tables_ok(st), st.fpath
            assert _snapshot(st) == before_step, st.fpath
    else:
        _, v, x, sizes = slot
        # the sizes whose face extends the arc of v that ends at x, read
        # from x, and that both v and x lack a corner of
        word = st.ends[v][x][1]
        assert x == min(st.ends[v]), st.fpath
        assert sizes == [s for s in st.sizes_sorted
                         if _embeds(st, st.size_char[s] + word)
                         and max(counts[s][v], counts[s][x]) < _quota(st, s)], st.fpath
        for s in sizes:
            m = len(st.journal)
            before_step = _snapshot(st)
            ok = st._start_face(s, x, v)
            assert _tables_ok(st), st.fpath
            if ok:
                tally["nodes"] += 1
                _walk(st, tally)
            else:
                tally["late"] += 1
            st.undo_to(m)
            assert _tables_ok(st), st.fpath
            assert _snapshot(st) == before_step, st.fpath


ROWS = [
    ("[3^3]", 4, 2),
    ("[3^4]", 6, 2),
    ("[4^3]", 8, 2),
    ("[3,4,3,4]", 12, 2),
    ("[3^5,4^1]", 12, -1),
    ("[3^6]", 9, 0),  # 5 of its 21 completions take fewer than 9 labels
    ("[3^2,4^1,3^1,4^1]", 16, 0),  # faces that fail once begun
]


@pytest.mark.parametrize("pair_prune", [True, False], ids=["pair-prune", "no-pair-prune"])
@pytest.mark.parametrize("tstr,n,chi", ROWS)
def test_early_rejection_matches_full_step(tstr, n, chi, pair_prune):
    _check_walk(tstr, n, chi, pair_prune)


def test_early_rejection_matches_full_step_with_pair_prune():
    # the pair prune cuts this row's tree from 680,501 nodes to 26, so it is
    # walked with the prune only: without it the tree is too large to hold
    # against the oracle here
    _check_walk("[4^1,10^2]", 20, -1, True)


def _check_walk(tstr, n, chi, pair_prune):
    spec = parse_type(tstr)
    st = _Search(spec.cycle, n, pair_prune)
    tally = {"nodes": 0, "early": 0, "late": 0, "switched": 0, "short": 0, "quota": 0,
             "last": 0}
    assert _tables_ok(st)
    _walk(st, tally)
    stats = enumerate_maps(tstr, n, chi, EnumOptions(disable_pair_prune=not pair_prune)).stats
    assert tally["nodes"] == stats.nodes
    assert tally["early"] + tally["late"] == stats.prunes.get("constraint", 0)
    assert tally["short"] == stats.rejected_wrong_size
    if stats.nodes > 1000:
        assert tally["early"] > 0 and tally["switched"] > 0
        assert tally["quota"] > 0 and tally["last"] > 0
    if (tstr, n) == ("[3^2,4^1,3^1,4^1]", 16):
        # only a face begun before its second vertex is tested can fail
        # once applied; [3^5,4^1]/12 has none
        assert tally["late"] > 0
