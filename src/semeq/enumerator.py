"""Exhaustive generation of semi-equivelar maps, one per isomorphism class.

The generator mechanizes link completion: fix the closed star of vertex 1 in
canonical position (its fan is the type cycle, boundary labeled 2, 3, ... in
rotation order), then repeatedly work on the open vertex whose fan is
fullest.  At most one face is ever incomplete: a face begun at a fan corner
is extended vertex by vertex until it closes, so the face occupying any
chosen corner is either already present or genuinely new.  Branches reuse
existing labels in ascending order and may introduce at most the single next
fresh label, which together with the fixed root star eliminates label
symmetry, but not the choice of root: the search completes a class C once
for every flag rooting it in that position, n*s/|Aut(C)| times, where s
counts the rotations and reflections that fix the type cycle.  So the
completions are deduplicated by canonical code, and a class table spares the
scan: the first completion of a class is scanned and kept, and a later one
is known by the traversal code of one of its flags (_class_code) and dropped.

State is mutated in place with an undo journal of one record per applied
step, which carries the undo data of every change the step made, so a step
is undone by one pop (a trail, as in reversible backtracking).  Each
candidate extension of the open face is tested before it is applied: the
checks are pure functions of the state and the candidate, so the many
candidates that fail cost no journal record and no undo.  The open face can
grow at either end, and a node branches on the end with fewer passing
candidates (fail first): the end with fewer raw candidates is filtered
first, and the other end is counted only up to that number.  The choice
depends on the state alone and every completion passes the checks at either
end, so the search stays exhaustive.  Every vertex fan is kept as a table of
its open arcs (see _Search), so a fan check is a few lookups with no walk
around the fan (see _passing), and the raw candidates of an end are built
by set operations (see extend_candidates).  Every prune is a necessary
condition (edge used by at most two faces, the polyhedral face-intersection
rules, partial fans embedding into the type cycle, face and label budgets),
hence the search is exhaustive: it visits a superset of every map of the
requested type, and each surviving completion is checked again by the full
polyhedrality validator before being emitted.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from .mapcore import CombMap, FaceListMap, build_from_faces, semi_equivelar_type, validate_polyhedral
from .symmetry import _canonical_form, _flag_code, canonical_code
from .typecalc import (VertexTypeSpec, closed_star_size, euler_characteristic_for, face_counts,
                       parse_type)

__all__ = [
    "EnumOptions",
    "EnumerationResult",
    "InconsistentParametersError",
    "CorruptCheckpointError",
    "enumerate_maps",
    "exists_any",
]

_CKPT_FORMAT = "semeq-checkpoint/3"
_SPLIT_TARGET = 64  # subtree roots a split run deepens the frontier to
_SAVE_EVERY_S = 1.0  # least seconds between checkpoint rewrites mid-run

# the class table of the _drive call running in this process, the only one
# a search uses (see _class_code): code of a flag -> canonical code of its map
_classes: dict[bytes, bytes] = {}


class InconsistentParametersError(ValueError):
    """(type, n, chi) fail the exact Euler arithmetic."""


class CorruptCheckpointError(ValueError):
    """Checkpoint is not a format-3 JSON document of the expected layout, was
    written for other parameters, holds a face list that does not build into
    a polyhedral map of the type, records a subtree path the search does
    not have, or records one subtree twice."""


@dataclass(frozen=True)
class EnumOptions:
    """Search controls.

    threads > 1 splits the tree into independent subtrees, one worker task
    each; the result set never depends on the split.  A checkpoint path
    splits it the same way, in-process when threads == 1, and rewrites the
    checkpoint as subtrees finish, at most once a second, and when the run
    ends.  The path is a str or any os.PathLike whose os.fspath is a str
    (a pathlib.Path), stored as that str; it may not be empty, and a bytes
    path is refused.  Subtrees are merged in queue order, so a split run's
    maps, counts and checkpoint bytes do not depend on threads.
    node_budget (at least 0) bounds expanded nodes (complete=False when
    hit); a split run divides it evenly into per-subtree quotas of at least
    1 each, and the nodes spent building its frontier of subtrees are not
    charged to the budget, so any budget below the number of subtrees acts
    as a quota of 1.
    branch_shuffle_seed randomizes the order of each node's children, after
    the end of the open face is chosen (testing aid).  fresh_first tries the
    new-label branch before label reuse: irrelevant for exhaustive counts,
    but existence searches on large types typically find a witness orders
    of magnitude sooner with it.  Neither
    changes which end a node branches on, so a finished run visits the same
    nodes and counts the same prunes.  Both branch-order options need an
    unsplit run, since subtree paths and checkpoints assume the default
    order: a path's indices name a node's children, the candidates that
    passed.
    disable_pair_prune skips the face-pair test of each step (two faces
    meet in nothing, one vertex or one edge), leaving the final validator
    to reject those completions (testing aid).
    """

    threads: int = 1
    node_budget: Optional[int] = None
    checkpoint_path: Optional[str] = None
    branch_shuffle_seed: Optional[int] = None
    disable_pair_prune: bool = False
    fresh_first: bool = False

    def __post_init__(self):
        # a bool is an int subclass, and a float count would reach the pool
        if type(self.threads) is not int or self.threads < 1:
            raise ValueError(f"threads must be an integer of at least 1, not {self.threads!r}")
        if self.node_budget is not None and (type(self.node_budget) is not int
                                             or self.node_budget < 0):
            raise ValueError(f"node_budget must be a non-negative integer, "
                             f"not {self.node_budget!r}")
        path = self.checkpoint_path
        if path is not None:
            # stored as a str: the saves append a suffix to it
            path = os.fspath(path) if isinstance(path, os.PathLike) else path
            if not isinstance(path, str):
                raise ValueError(f"checkpoint_path must be a str or a str path, "
                                 f"not {self.checkpoint_path!r}")
            if not path:
                # a split run that would neither read nor write its checkpoint
                raise ValueError("checkpoint_path must not be empty")
            object.__setattr__(self, "checkpoint_path", path)
        if (self.threads > 1 or self.checkpoint_path is not None) and (
            self.branch_shuffle_seed is not None or self.fresh_first
        ):
            raise ValueError("branch_shuffle_seed and fresh_first are incompatible "
                             "with subtree replay (threads > 1 or a checkpoint)")


# the integer counters of EnumerationStats, in the order to_dict writes them
_COUNTS = ("nodes", "completions", "rejected_nonpolyhedral", "rejected_wrong_type",
           "rejected_wrong_size")


@dataclass
class EnumerationStats:
    nodes: int = 0
    prunes: dict = field(default_factory=dict)
    completions: int = 0
    rejected_nonpolyhedral: int = 0
    rejected_wrong_type: int = 0
    rejected_wrong_size: int = 0
    wall_seconds: float = 0.0

    def merge(self, other: "EnumerationStats") -> None:
        for k in _COUNTS:
            setattr(self, k, getattr(self, k) + getattr(other, k))
        for k, v in other.prunes.items():
            self.prunes[k] = self.prunes.get(k, 0) + v

    def to_dict(self) -> dict:
        return {**{k: getattr(self, k) for k in _COUNTS},
                "prunes": dict(sorted(self.prunes.items()))}


@dataclass(frozen=True)
class EnumerationResult:
    """maps[i] has canonical code codes[i], in code order.  Each map is the
    first completion of its class, the copy the search scanned, and it
    carries that scan: canonical_code and automorphism_group on it scan
    nothing."""

    maps: tuple[CombMap, ...]
    codes: tuple[bytes, ...]
    stats: EnumerationStats
    complete: bool
    diagnostic: Optional[str] = None


class _Search:
    """Mutable search state with an undo journal, seeded when it is built:
    a _Search always holds the closed star of vertex 1 (see seed), so it
    always has faces, and its journal starts with the star's records.

    The fan of a vertex v is kept as its open arcs, maximal chains of corner
    faces at v that meet along edges of v: ``ends[v]`` maps each arc's end
    neighbour u to ``(w, word)``, where w is the arc's other end neighbour and
    word spells the arc's face sizes, one character per corner, read from
    the corner at u to the corner at w.  A closed fan has no arcs.
    ``edge_faces[a*W + b]`` (a < b, W = n + 1) lists the faces laid along
    edge {a, b}, oldest first, or is None: a flat list, one slot per vertex
    pair, so a lookup builds no key.  ``fmask[f]`` has bit y set when y is
    on face f, so faces g and f share the vertices of fmask[g] & fmask[f],
    and ``vfaces[y]`` lists the faces on y, in the order y joined them.
    ``saturated[v]`` holds the neighbours u whose edge {v, u} carries two
    faces, kept with the edge table.  ``open`` holds the labels up to
    labels_used whose fan is still open (fewer than d corners): a label
    joins when it is taken fresh and leaves with its d-th corner.  seed
    starts it as the root star's labels, and vertex 1 leaves when the star
    closes, so during the search it is {2..labels_used} less the closed
    fans.  ``words`` holds every run of 1 to d consecutive sizes around the
    type cycle, read in either direction, one character per size; a word of
    at most d sizes embeds in the cycle exactly when it is in the set.

    Some facts are read, not stored.  A face is closed exactly when its
    path holds fsize vertices, since _append_vertex closes it in the step
    that fills the path, and only the last face can be open.  A fan is
    closed exactly when it has d corners, since the fan test (_fan_facts)
    refuses a d-th corner that does not close the cycle.  The multiplicity
    of a size in the type is counted in ``cycle`` when a size runs out.

    find_slot gives the next node as ("extend", fid, rejected, children),
    ("start", v, x, sizes) or ("complete", None, None, ()).  The children of
    an extension node are the candidate labels that pass at the chosen end
    of the open face, in branching order, with that end turned last in the
    path (a journaled reversal); rejected counts the candidates of that
    end that failed, raw count less children.  One loop (_passing) tests
    every candidate of an end, and one rule (_fan_facts) decides every fan
    it tests.  A step lays each edge with _put_edge, the only edge writer,
    and each corner with _put_corner, which writes a copy of the vertex's
    arc table.

    The journal holds one record per applied step: (0, fid, y, fresh, edge
    keys, corners) for an extension, with the closing edge's key among the
    keys when the step closes the face; (1, fid, x) for a face begun at x,
    which the extension by its second vertex follows; (7, fid) for a
    reversed path.  corners holds one (v, replaced arc table) pair for each
    corner the step added: none for the second vertex of a face, the one at
    the path's old end otherwise, and those at y and at the first vertex
    too when the step closes the face.  A step that adds y to fid sets y's
    bit of fmask[fid] and appends fid to vfaces[y].
    """

    def __init__(self, cycle: tuple[int, ...], n: int, budgets: dict[int, int],
                 pair_prune: bool = True, fresh_first: bool = False):
        self.cycle = cycle
        self.d = len(cycle)
        self.n = n
        chars = {s: chr(s) for s in set(cycle)}
        self.size_char = chars
        t2 = "".join(chars[s] for s in cycle) * 2
        runs = {t2[i:i + k] for i in range(self.d) for k in range(1, self.d + 1)}
        self.words = runs | {w[::-1] for w in runs}
        self.pair_prune = pair_prune
        self.fresh_first = fresh_first

        self.fsize: list[int] = []
        self.fpath: list[list[int]] = []
        self.width = n + 1
        self.edge_faces: list[Optional[list[int]]] = [None] * (n + 1) ** 2
        self.saturated: list[set[int]] = [set() for _ in range(n + 1)]
        self.fmask: list[int] = []
        self.vfaces: list[list[int]] = [[] for _ in range(n + 1)]
        self.budget = dict(budgets)
        self.sizes_sorted = sorted(budgets)
        self.corner_count = [0] * (n + 1)
        self.ends: list[dict[int, tuple[int, str]]] = [dict() for _ in range(n + 1)]
        self.labels_used = 0
        self.open: set[int] = set()
        self.journal: list[tuple] = []
        self.seed()

    # -- journal ----------------------------------------------------------

    def undo_to(self, mark: int) -> None:
        """Unwind the journal to mark, one record per applied step.  The
        changes of a step touch distinct table slots (its corners sit at
        distinct vertices), so their order of undoing is free: here the
        face's vertex entries, then the path and the corners, each put back
        by restoring the arc table it replaced, then the edges."""
        j = self.journal
        fpath, ef, sat, width = self.fpath, self.edge_faces, self.saturated, self.width
        fmask, vfaces, all_ends, cc = self.fmask, self.vfaces, self.ends, self.corner_count
        for _ in range(len(j) - mark):
            op = j.pop()
            tag = op[0]
            if tag == 7:  # path reversed
                fpath[op[1]].reverse()
                continue
            fid, y = op[1], op[2]
            vfaces[y].pop()
            if tag == 1:  # face fid begun at y, its only vertex
                self.budget[self.fsize.pop()] += 1
                fpath.pop()
                fmask.pop()
            else:  # face fid extended by y
                fmask[fid] ^= 1 << y
                fpath[fid].pop()
                for v, arcs in op[5]:
                    if cc[v] == self.d:
                        self.open.add(v)
                    cc[v] -= 1
                    all_ends[v] = arcs
                for key in op[4]:
                    lst = ef[key]
                    lst.pop()
                    if not lst:
                        ef[key] = None
                    else:
                        a, b = divmod(key, width)
                        sat[a].discard(b)
                        sat[b].discard(a)
                if op[3]:  # y was the fresh label
                    self.labels_used -= 1
                    self.open.remove(y)

    # -- checks: pure functions of the state and one prospective change -----

    def _fan_facts(self, v: int, a: int, c: str) -> tuple:
        """The fan test at v for a corner between neighbours a and y of a face
        with size character c, for every label y at once, as (off, room,
        head, closer, close_ok).  The rule: a d-th corner must close the fan,
        an arc closes into a cycle only as the whole fan, every arc must
        embed in the type cycle (its word is in words), and joining k arcs
        takes at least k more corners.  A y that ends no arc of v gets off;
        the other end of the arc at a, closer (0 when a ends none), gets
        close_ok; a y that ends any other arc passes when room holds and
        head plus the word of y's arc is in words.  k counts the corners
        still missing once this one joins.  Words are closed under
        reversal, so the arc at a may as well be read from its other end."""
        ends = self.ends[v]
        k = self.d - self.corner_count[v] - 1
        arcs = len(ends) >> 1
        arc = ends.get(a)
        if arc is None:  # the corner starts an arc, or extends y's by c
            return k > arcs, k >= arcs, c, 0, False
        words = self.words
        return (k >= arcs and c + arc[1] in words, k >= arcs - 1, ends[arc[0]][1] + c,
                arc[0], not k and c + arc[1] in words)

    def _passing(self, fid: int, raw: set, limit: int) -> list:
        """The labels of raw, in branching order, whose extension of the
        open face fid passes the checks of the step that the current state
        decides, stopping once limit of them pass.  Mutates nothing; the
        size supply, which needs the closed face, is checked in
        _append_vertex once a closing step is applied.  Branching order is
        ascending, with the fresh label (the largest) first under
        fresh_first.

        One loop tests each label: the fan at v (the path's last vertex)
        with its new corner, the face pairs meeting at y, then either the
        half corner at y or, when the step closes the face, the fans at
        first and y with their new corners.  Every fan test reads the facts
        of one rule, _fan_facts, for a corner between two neighbours, and
        looks up the other neighbour in the arc table: one that ends no arc
        there takes the shared verdict, and one that ends an arc takes one
        word lookup.  The facts at v and first do not depend on y and are
        read once per call; those at y, whose corner joins the arcs ending
        at v and at first, once per label that reaches the test.  When the
        verdict at v is False the fan is forced, and only the labels of raw
        that end an arc of v are tried (the fresh label ends none).  A begun
        face gives v the new edge but no corner: where an arc of v ends at
        y, the face is forced next to it, so c must extend the arc's word,
        and the half corner at y is the same test from y.

        The pair test decides each pair of faces when it forms: a closed
        face g that already shares one vertex u with fid may share y only
        along the edge {u, y}, which must carry g alone, and fid must lay
        that edge now: u is v, or first on a closing step.  After a step
        that does not fill the path, first and y are its ends; every later
        step makes one of them interior, and the closing edge joins the
        final ends, so {first, y} never becomes an edge of fid.

        Candidates exclude the saturated neighbours of the end (of both
        ends for a closing step), so the edge {v, y} holds at most one face
        g, and g is closed.  So y ends an arc of v exactly when v ends an
        arc of y, and the new edges need no test of their own: the arc's
        word starts with g's size, and the fan test at v requires c next to
        it in the type cycle; the fan test at first covers the closing edge
        {y, first}.  Nor does a face on a new edge need a test for sharing
        another edge with fid: the open face laid along a second edge of it
        would either share a third vertex with it, which the pair test
        rejects, or repeat its corner at the path's end, which the fan test
        rejects first.  The closing tests may read the state before the
        step: its edge {v, y} and corner at v touch neither the fans of y
        and first nor the edge {y, first}."""
        path = self.fpath[fid]
        v, first = path[-1], path[0]
        c = self.size_char[self.fsize[fid]]
        ends, fan_facts = self.ends[v], self._fan_facts
        if len(path) == 1:  # begun: a half corner at v
            off, room, head, closer, close_ok = True, True, c, 0, False
        else:
            off, room, head, closer, close_ok = fan_facts(v, path[-2], c)
        if off:
            cands = sorted(raw)
            if self.fresh_first and cands and cands[-1] > self.labels_used:
                cands.insert(0, cands.pop())
        else:
            cands = sorted(raw.intersection(ends))
        closing = len(path) + 1 == self.fsize[fid]
        if closing:
            f_off, f_room, f_head, f_closer, f_close_ok = fan_facts(first, path[1], c)
            f_ends = self.ends[first]
        words, all_ends, pair_prune, vfaces = self.words, self.ends, self.pair_prune, self.vfaces
        fmask, ef, width = self.fmask, self.edge_faces, self.width
        # the vertices fid may share with a face it meets at y
        fm, vbit, fbit = fmask[fid], 1 << v, 1 << first if closing else 0
        out = []
        for y in cands:
            # the fan test comes first: it rejects the most candidates
            if y in ends:
                if not (close_ok if y == closer else room and head + ends[y][1] in words):
                    continue
                if not closing and c + all_ends[y][v][1] not in words:
                    continue  # the half corner at y
            if pair_prune:
                ok = True
                for g in vfaces[y]:
                    shared = fmask[g] & fm
                    if shared:
                        u = v if shared == vbit else first if shared == fbit else 0
                        # an edge lists distinct faces
                        efs = u and ef[u * width + y if u < y else y * width + u]
                        if not efs or efs[0] != g or efs[-1] != g:
                            ok = False
                            break
                if not ok:
                    continue
            if closing:
                if y in f_ends:
                    if not (f_close_ok if y == f_closer
                            else f_room and f_head + f_ends[y][1] in words):
                        continue
                elif not f_off:
                    continue
                # the fan at y, whose corner joins the arcs ending at v and
                # at first
                y_off, y_room, y_head, y_closer, y_close_ok = fan_facts(y, v, c)
                y_ends = all_ends[y]
                if first in y_ends:
                    if not (y_close_ok if first == y_closer
                            else y_room and y_head + y_ends[first][1] in words):
                        continue
                elif not y_off:
                    continue
            out.append(y)
            limit -= 1
            if not limit:
                break
        return out

    def _size_supply_ok(self, s: int) -> bool:
        """No s-faces remain (budget spent, none open): every vertex must
        already own its full quota of s-corners, and no vertex can still be
        missing.  A fan with d corners is closed and owns its quota; the
        quota is the number of times s occurs in the type cycle."""
        if self.labels_used < self.n:
            return False
        # an open fan's corners are those of its arcs, each arc listed at
        # both of its ends
        need = 2 * self.cycle.count(s)
        ch = self.size_char[s]
        return all(sum(word.count(ch) for _, word in self.ends[v].values()) >= need
                   for v in self.open)

    # -- mutators (the checks above have passed) --------------------------
    #
    # _put_edge and _put_corner return their undo data, and the step that
    # calls them journals one record holding all of it.

    def _put_edge(self, a: int, b: int, fid: int) -> int:
        key = a * self.width + b if a < b else b * self.width + a
        lst = self.edge_faces[key]
        if lst is None:
            self.edge_faces[key] = [fid]
        else:
            lst.append(fid)
            self.saturated[a].add(b)
            self.saturated[b].add(a)
        return key

    def _put_corner(self, v: int, fid: int, a: int, b: int) -> tuple:
        """Add the corner of fid at v between neighbours a and b, joining the
        arcs that end at a and at b, in a copy of v's arc table; v leaves
        the open labels with its d-th corner.  Returns (v, the replaced
        table), which undo_to puts back."""
        old = self.ends[v]
        ends = self.ends[v] = old.copy()
        c = self.size_char[self.fsize[fid]]
        arc_a = ends.pop(a, None)
        arc_b = ends.pop(b, None)
        self.corner_count[v] += 1
        if arc_a is not None and arc_a[0] == b:
            # the last arc closes into the full fan cycle
            self.open.remove(v)
        else:
            end_a, fwd_a, back_a = a, "", ""
            if arc_a is not None:
                end_a = arc_a[0]
                fwd_a, back_a = ends[end_a][1], arc_a[1]
            end_b, fwd_b, back_b = b, "", ""
            if arc_b is not None:
                end_b = arc_b[0]
                fwd_b, back_b = arc_b[1], ends[end_b][1]
            ends[end_a] = (end_b, fwd_a + c + fwd_b)
            ends[end_b] = (end_a, back_b + c + back_a)
        return v, old

    def _start_face(self, size: int, x: int, v: int) -> bool:
        """Begin a face of the given size on edge {x, v}: open it at x (one
        journal record), then extend it by v.  Applied before it is checked;
        the caller unwinds on False."""
        fid = len(self.fsize)
        self.budget[size] -= 1
        self.fsize.append(size)
        self.fpath.append([x])
        self.fmask.append(1 << x)
        self.vfaces[x].append(fid)
        self.journal.append((1, fid, x))
        return bool(self._passing(fid, {v}, 1)) and self._append_vertex(fid, v)

    def _append_vertex(self, fid: int, y: int) -> bool:
        """Extend face fid by y, a step that passed _passing, and journal
        it as one record; y is fresh when it is the next unused label.  The
        step lays the edge {v, y} and records that fid now contains y, in
        fmask and vfaces.  A step that fills the path also closes the face
        along edge {y, first}, and then the size supply is checked on the
        closed state: only such a step can still fail, and the caller
        unwinds it on False."""
        fresh = y > self.labels_used
        if fresh:
            self.labels_used = y
            self.open.add(y)
        path = self.fpath[fid]
        v = path[-1]
        key = self._put_edge(v, y, fid)
        self.fmask[fid] |= 1 << y
        self.vfaces[y].append(fid)
        corners = (self._put_corner(v, fid, path[-2], y),) if len(path) > 1 else ()
        path.append(y)
        size = self.fsize[fid]
        if len(path) < size:
            self.journal.append((0, fid, y, fresh, (key,), corners))
            return True
        first = path[0]
        keys = (key, self._put_edge(y, first, fid))
        corners += (self._put_corner(y, fid, v, first), self._put_corner(first, fid, y, path[1]))
        # journaled before the check: the caller unwinds a failing close
        self.journal.append((0, fid, y, fresh, keys, corners))
        return self.budget[size] > 0 or self._size_supply_ok(size)

    # -- seeding -----------------------------------------------------------

    def seed(self) -> None:
        """Fix the closed star of vertex 1 (run by __init__): fan = the type
        cycle in order, boundary labels 2.. in rotation order.  Decides no
        rule: once _diagnostic passes, n >= closed star >= q + 1 for every
        size q, so the star's labels are distinct and x_q = n*m_q/q > m_q.
        A rejected step is a fault of the kernel, and raises."""
        star = 1 + sum(c - 2 for c in self.cycle)
        ring = list(range(2, star + 1))
        m = len(ring)
        self.labels_used = star
        # vertex 1 is open until the star's last face closes its fan
        self.open = set(range(1, star + 1))
        off = 0
        for size in self.cycle:
            ok = self._start_face(size, 1, ring[off % m])
            fid = len(self.fsize) - 1
            for j in range(1, size - 1):
                y = ring[(off + j) % m]
                ok = ok and bool(self._passing(fid, {y}, 1)) and self._append_vertex(fid, y)
            if not ok:
                raise RuntimeError(f"root star step of a {size}-gon rejected for type "
                                   f"{self.cycle} with n={self.n}")
            off += size - 2

    # -- deterministic slot and branching ----------------------------------

    def find_slot(self):
        fid = len(self.fsize) - 1
        if len(self.fpath[fid]) < self.fsize[fid]:
            # near: the candidates at the end that is last in the path
            near, far = self.extend_candidates(fid)
            path = self.fpath[fid]
            # the end with fewer raw candidates is filtered first; the other
            # end is taken only when fewer of its candidates pass (fail
            # first).  A closing step lays both edges, so its verdicts are
            # the same at either end.  _passing reads the end being filtered
            # as the path's last, so the path is reversed in place to read
            # the other end, and the reversal is journaled when it stays.
            flipped = len(far) < len(near)
            if flipped:
                path.reverse()
                near, far = far, near
            kids = self._passing(fid, near, len(near))
            if kids and len(path) + 1 < self.fsize[fid]:
                path.reverse()
                other = self._passing(fid, far, len(kids))
                if len(other) < len(kids):
                    flipped, near, kids = not flipped, far, other
                else:
                    path.reverse()
            if flipped:
                self.journal.append((7, fid))
            return ("extend", fid, len(near) - len(kids), kids)
        # activate the open vertex with the fullest fan (ties to the lowest
        # label): nearly-closed fans propagate contradictions soonest
        cc = self.corner_count
        v, best = 0, -1
        for u in self.open:
            k = cc[u]
            if k > best or (k == best and u < v):
                v, best = u, k
        if not v:
            return ("complete", None, None, ())
        # the new face goes at the lowest arc end; its size must extend the
        # arc read from that end
        ends = self.ends[v]
        best_nbr = min(ends)
        word = ends[best_nbr][1]
        sizes = [s for s in self.sizes_sorted
                 if self.budget[s] > 0 and self.size_char[s] + word in self.words]
        return ("start", v, best_nbr, sizes)

    def extend_candidates(self, fid: int) -> tuple[set, set]:
        """The raw candidates that may extend the open face fid at its tail
        (after the last path vertex) and at its head (before the first), as
        sets of labels: the open labels off the path whose edge to that end
        has a free side, read from the saturated-neighbour sets, and the
        next unused label when one is left.  A closing step lays both edges,
        so both ends get the same set.

        No end has a full fan: each joined the path open (a candidate is
        open or fresh, and a face begins at an arc end of the active
        vertex), and while the face is open no other face changes and it
        puts no corner at an end of its path."""
        path = self.fpath[fid]
        last, first = path[-1], path[0]
        sat = self.saturated
        fresh = self.labels_used + 1 if self.labels_used < self.n else 0
        if len(path) + 1 == self.fsize[fid]:
            both = self.open.difference(path, sat[last], sat[first])
            if fresh:
                both.add(fresh)
            return both, both
        tail = self.open.difference(path, sat[last])
        head = self.open.difference(path, sat[first])
        if fresh:
            tail.add(fresh)
            head.add(fresh)
        return tail, head


# -- DFS driver -------------------------------------------------------------


def _rejection(m: CombMap, cycle: tuple[int, ...]) -> Optional[str]:
    """None when m is a polyhedral map of the type cycle; otherwise the
    EnumerationStats count that records why it is not.  The check that a
    completion and a checkpoint map both pass before they are collected."""
    if not validate_polyhedral(m).ok:
        return "rejected_nonpolyhedral"
    t = semi_equivelar_type(m)
    if t is None or t.cycle != cycle:
        return "rejected_wrong_type"
    return None


def _class_code(m: CombMap, cycle: tuple[int, ...]) -> bytes:
    """The canonical code of m, a map of the type cycle, scanning m only
    when no map of its class is in the class table _classes.

    The table maps the code of every flag in a face of one size, the size
    on the fewest flags, to the canonical code of its map (symmetry's
    _flag_code: two flags have the same code exactly when an isomorphism
    carries one to the other).  An isomorphism carries a flag to a flag in
    a face of the same size, so m belongs to a class in the table exactly
    when the code of its probe, its first flag in a face of that size, is a
    key.  A new class is scanned once, and each automorphism orbit of its
    flags in faces of that size adds one key: the flags of an orbit have
    the same code."""
    size = min(cycle, key=cycle.count)
    faces, face_of = m.faces, m.face_of
    flags = [fl for fl in range(m.flag_count) if len(faces[face_of[fl]]) == size]
    nbr = list(zip(m.s0, m.s1, m.s2))  # shared by this map's _flag_code calls
    key = _flag_code(m, flags[0], nbr)
    code = _classes.get(key)
    if code is None:
        code = _classes[key] = canonical_code(m).data
        orbits = _canonical_form(m).orbits
        for fl in flags:
            if orbits[fl] == fl and fl != orbits[flags[0]]:
                _classes[_flag_code(m, fl, nbr)] = code
    return code


def _on_complete(st: _Search, stats: EnumerationStats, collector: dict,
                 first_only: bool = False) -> bool:
    """Collect the completed state if it is a polyhedral map of the type,
    as the CombMap validated here, under its canonical code.  The first
    copy of a class is kept, and it carries its scan: it misses the class
    table _classes (see _class_code), which scans it, while a later copy
    is a hit and is dropped unscanned.  A first_only search, which keeps a
    single map, scans it and leaves the table alone.

    Only the label count is tested.  find_slot reports a completion only
    when the last face is closed and no fan is open; once all n fans are
    closed on the type cycle, each size q has exactly n*m_q/q faces, so
    every face budget is spent."""
    stats.completions += 1
    if st.labels_used != st.n:
        stats.rejected_wrong_size += 1
        return False
    m = build_from_faces(FaceListMap(st.n, st.fpath))
    why = _rejection(m, st.cycle)
    if why is not None:
        setattr(stats, why, getattr(stats, why) + 1)
        return False
    code = canonical_code(m).data if first_only else _class_code(m, st.cycle)
    collector.setdefault(code, m)
    return True


def _run(st: _Search, stats: EnumerationStats, collector: dict,
         prefix: tuple[int, ...] = (), node_quota: Optional[int] = None,
         rng=None, split_depth: Optional[int] = None,
         frontier: Optional[list] = None, first_only: bool = False) -> bool:
    """Depth-first search from the current state.

    ``prefix`` is replayed first: a path of child indices from the current
    state to the root of the subtree to search (the subtree addressing used
    by parallel workers and checkpoints).  An index that names no child (a
    leaf has none), or whose step is rejected, raises
    CorruptCheckpointError: a valid path only records steps that were
    applied, so the subtree it names would otherwise be lost unseen.
    Replayed nodes count no nodes and no prunes.  When ``split_depth`` is
    set, the subtrees rooted that many levels below the start are appended
    to ``frontier`` (as their paths) instead of being explored.  Returns
    False when the subtree was cut before it was finished: the node quota
    ran out, or ``first_only`` collected a map.

    find_slot filters an extension node's candidates: each candidate of the
    chosen end that fails _passing counts one ``constraint`` prune when the
    node is opened, and the children, the candidates that passed, are
    applied untested.  A closing step still checks the size supply once
    applied, and a new face is applied before it is checked; each step
    rejected there, and unwound, counts one ``constraint`` prune more.

    A loop over a stack, not a recursion: CPython allocates and frees a
    frame chunk on each call that crosses a chunk boundary, so under
    recursion the cost of the checks would depend on the depth they run at.
    """
    nodes = 0
    pruned = 0
    journal = st.journal
    mark0 = len(journal)
    try:
        for idx in prefix:
            kind, a, b, cands = st.find_slot()
            if idx >= len(cands):
                raise CorruptCheckpointError("recorded branch index does not exist at replay")
            if not (st._start_face(cands[idx], b, a) if kind == "start"
                    else st._append_vertex(a, cands[idx])):
                raise CorruptCheckpointError("recorded branch is rejected at replay")
        # one entry per open node, root first: [children left, a, b of its
        # slot, whether it starts a new face, the journal mark before its
        # children, the index of its applied child]
        stack: list[list] = []
        start_face, append_vertex = st._start_face, st._append_vertex
        while True:
            kind, a, b, cands = st.find_slot()  # the node the state stands at
            if kind == "complete":
                if _on_complete(st, stats, collector, first_only) and first_only:
                    return False
            elif split_depth is not None and len(stack) >= split_depth:
                frontier.append(tuple(entry[5] for entry in stack))
            else:
                start = kind == "start"
                if not start:
                    pruned += b  # the candidates find_slot rejected
                if rng is not None:
                    rng.shuffle(cands)  # a list find_slot made for this node
                stack.append([enumerate(cands), a, b, start, len(journal), 0])
            # apply the next child of the deepest open node, closing the
            # nodes that have none left
            while stack:
                entry = stack[-1]
                children, a, b, start, m, _ = entry
                if len(journal) > m:  # not on a node just opened
                    st.undo_to(m)
                for idx, cand in children:
                    # a new face of size cand at vertex a, next to b; or
                    # face a extended by the label cand
                    ok = start_face(cand, b, a) if start else append_vertex(a, cand)
                    if ok:
                        break
                    pruned += 1
                    st.undo_to(m)
                else:
                    stack.pop()
                    continue
                nodes += 1
                if node_quota is not None and nodes > node_quota:
                    stats.prunes["budget"] = stats.prunes.get("budget", 0) + 1
                    return False
                entry[5] = idx
                break
            else:
                return True
    finally:
        st.undo_to(mark0)
        stats.nodes += nodes
        if pruned:
            stats.prunes["constraint"] = stats.prunes.get("constraint", 0) + pruned


def _expand_frontier(st: _Search, collector: dict, stats: EnumerationStats) -> list:
    """Iteratively deepen until at least _SPLIT_TARGET subtree roots exist
    (or the whole tree fits above the split depth).  Completions found above
    the split land directly in the collector."""
    depth = 4
    while True:
        frontier: list[tuple[int, ...]] = []
        tmp = EnumerationStats()
        _run(st, tmp, collector, split_depth=depth, frontier=frontier)
        if len(frontier) >= _SPLIT_TARGET or not frontier:
            stats.merge(tmp)
            return frontier
        depth += 3


def _run_path(task) -> tuple:
    """The executor of _drive: seed a search and run one subtree path.
    Returns its maps, its stats and whether it finished (False when the
    node quota ran out, or first_only collected a map).  Every task in one
    process shares that process's class table, except first_only ones,
    which use none."""
    params, quota, seed, first_only, path = task
    rng = None if seed is None else random.Random(seed)
    found, stats = {}, EnumerationStats()
    finished = _run(_Search(*params), stats, found, prefix=path,
                    node_quota=quota, rng=rng, first_only=first_only)
    return found, stats, finished


# -- checkpoints ------------------------------------------------------------


def _checkpoint_bytes(header: dict, pending: list, collector: dict,
                      stats: EnumerationStats) -> bytes:
    doc = {"format": _CKPT_FORMAT, "header": header, "pending": pending,
           "maps": [collector[code].faces for code in sorted(collector)],
           "stats": stats.to_dict()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _count(x) -> int:
    if type(x) is not int or x < 0:  # JSON true is a bool, not a count
        raise CorruptCheckpointError(f"{x!r} is not a non-negative integer")
    return x


def _checkpoint_parse(blob: bytes, expected: Optional[dict] = None
                      ) -> tuple[dict, list, dict, EnumerationStats]:
    """Decode a checkpoint; each map is rebuilt, passes the check a
    completion passes (_rejection), and has its code recomputed, which
    scans it.  The first copy of a code is kept.  No pending path may
    repeat another or extend it.

    When ``expected`` is given, the header must equal it, and this is checked
    before any map is rebuilt."""
    if blob.startswith(b"SEMQCKPT"):
        raise CorruptCheckpointError("format-1 checkpoint (magic SEMQCKPT) is no "
                                     "longer read: start the run afresh")
    try:
        doc = json.loads(blob)
        if doc["format"] == "semeq-checkpoint/2":
            # its paths index raw candidate lists, not the passing children
            raise CorruptCheckpointError("format-2 checkpoint is no longer read: "
                                         "start the run afresh")
        if doc["format"] != _CKPT_FORMAT:
            raise CorruptCheckpointError(f"unsupported checkpoint format {doc['format']!r}")
        header = doc["header"]
        if expected is not None and header != expected:
            raise CorruptCheckpointError("checkpoint was written for different parameters")
        pending = [tuple(_count(i) for i in path) for path in doc["pending"]]
        # sorted, a path is followed by its extensions, so an overlap is
        # between neighbours; queue order is not required
        ordered = sorted(pending)
        for a, b in zip(ordered, ordered[1:]):
            if b[:len(a)] == a:
                raise CorruptCheckpointError("pending paths overlap: a subtree would be "
                                             "searched twice")
        collector = {}
        cycle = tuple(header["cycle"])
        for faces in doc["maps"]:
            m = build_from_faces(FaceListMap(header["n"], faces))
            why = _rejection(m, cycle)
            if why is not None:
                raise CorruptCheckpointError(f"a stored map is not a polyhedral map of "
                                             f"type {cycle} ({why})")
            collector.setdefault(canonical_code(m).data, m)
        st = doc["stats"]
        stats = EnumerationStats(prunes={k: _count(v) for k, v in st["prunes"].items()},
                                 **{k: _count(st[k]) for k in _COUNTS})
    except CorruptCheckpointError:
        raise
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as exc:
        raise CorruptCheckpointError(f"undecodable checkpoint: {exc!r}") from exc
    return header, pending, collector, stats


def _save_checkpoint(path: str, header: dict, pending: list, collector: dict,
                     stats: EnumerationStats) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_checkpoint_bytes(header, pending, collector, stats))
    os.replace(tmp, path)


# -- public API -------------------------------------------------------------


def _normalize_type(t) -> VertexTypeSpec:
    if isinstance(t, VertexTypeSpec):
        return t
    if isinstance(t, str):
        return parse_type(t)
    return VertexTypeSpec(tuple(t))


def _diagnostic(spec: VertexTypeSpec, n: int, chi: int) -> Optional[str]:
    """Why no map of this type with n vertices can exist on chi, or None:
    the one place a search decides the order-free rules.  When it returns
    None the root star assembles (see _Search.seed).  A vertex count that
    is not an int (a float, a bool) or is below 1, or an Euler
    characteristic that is not an int, counts no map at all and raises
    InconsistentParametersError."""
    if type(n) is not int:
        raise InconsistentParametersError(f"vertex count must be an int, got {n!r}")
    if type(chi) is not int:
        raise InconsistentParametersError(f"Euler characteristic must be an int, got {chi!r}")
    if n < 1:
        raise InconsistentParametersError(f"vertex count must be positive, got {n}")
    d = spec.degree
    if (n * d) % 2:
        return f"n*d = {n}*{d} is odd, so the edge count n*d/2 is not an integer"
    if face_counts(spec, n) is None:
        return f"face counts n*m_q/q are not all integers for n={n}"
    implied = euler_characteristic_for(spec, n)
    if implied != chi:
        return (
            f"type {spec} with n={n} forces Euler characteristic {implied}, not {chi}"
        )
    if closed_star_size(spec) > n:
        return f"closed star needs {closed_star_size(spec)} distinct vertices but n={n}"
    return None


def _keep_first(collector: dict, found: dict) -> None:
    """Add the maps of a later task, keeping the copy collector holds."""
    for code, m in found.items():
        collector.setdefault(code, m)


def _drive(spec: VertexTypeSpec, n: int, chi: int, opts: EnumOptions,
           collector: dict, stats: EnumerationStats,
           first_only: bool = False) -> bool:
    """The one search loop: a queue of subtree paths, one task each, run by
    opts.threads executors, in-process when there is one.

    The queue starts as [()] (the whole tree) for an unsplit run, as the
    split frontier for a split run, or as the pending paths of the
    checkpoint being resumed.  Results are merged in queue order: each
    finished path's maps and stats join collector and stats, and the
    checkpoint is rewritten when _SAVE_EVERY_S seconds have passed since the
    last save.  The first path that does not finish (node quota spent, or
    first_only collected a map) ends the loop; it and every later path stay
    pending.  The checkpoint is written once more at the end.  It covers
    finished subtrees only: the maps and counts of the cut path reach
    collector and stats after the last save, so a resumed run counts each
    node once.  Returns whether the whole tree was searched.  The caller
    has run _diagnostic, so every task's root star assembles.

    The first copy of each class in queue order is kept.  A pool worker
    takes its tasks in queue order, so that copy misses the worker's class
    table and arrives with the scan made there.  The class table (see
    _class_code) lives for this call: a checkpoint's maps enter it before
    any pool forks, the tasks run in this process share it, each pool
    worker fills its own copy, and it is emptied when the call returns or
    raises.  A first_only run fills none.
    """
    try:
        split = opts.threads > 1 or opts.checkpoint_path is not None
        pair_prune = not opts.disable_pair_prune
        params = (spec.cycle, n, face_counts(spec, n), pair_prune, opts.fresh_first)
        header = {"cycle": list(spec.cycle), "n": n, "chi": chi, "pair_prune": pair_prune}
        if opts.checkpoint_path and os.path.exists(opts.checkpoint_path):
            with open(opts.checkpoint_path, "rb") as fh:
                _, queue, saved_maps, saved_stats = _checkpoint_parse(fh.read(), header)
            for m in saved_maps.values():
                # scanned by _checkpoint_parse: this adds its keys, no scan
                _class_code(m, spec.cycle)
            _keep_first(collector, saved_maps)
            stats.merge(saved_stats)
        else:
            queue = _expand_frontier(_Search(*params), collector, stats) if split else [()]
        quota = opts.node_budget
        if quota is not None and split:
            quota = max(1, quota // max(1, len(queue)))

        tasks = ((params, quota, opts.branch_shuffle_seed, first_only, path) for path in queue)
        done = 0
        cut_maps, cut_stats = {}, EnumerationStats()
        pool = contextlib.nullcontext()
        if opts.threads > 1:
            import multiprocessing

            pool = multiprocessing.get_context("fork").Pool(opts.threads)
        with pool:
            run = pool.imap if opts.threads > 1 else map
            last_save = time.monotonic()
            for found, part, finished in run(_run_path, tasks):
                if not finished:
                    cut_maps, cut_stats = found, part
                    break
                _keep_first(collector, found)
                stats.merge(part)
                done += 1
                if opts.checkpoint_path and time.monotonic() - last_save >= _SAVE_EVERY_S:
                    _save_checkpoint(opts.checkpoint_path, header, queue[done:], collector, stats)
                    last_save = time.monotonic()
        if opts.checkpoint_path:
            _save_checkpoint(opts.checkpoint_path, header, queue[done:], collector, stats)
        _keep_first(collector, cut_maps)
        stats.merge(cut_stats)
        return done == len(queue)
    finally:
        _classes.clear()


def enumerate_maps(t, n: int, chi: int, opts: EnumOptions | None = None) -> EnumerationResult:
    """All polyhedral semi-equivelar maps of the given type with n vertices,
    one representative per isomorphism class, sorted by canonical code.

    The parameters must pass _diagnostic, where the rules decided before
    any search live; otherwise the result is empty, complete, and carries
    the diagnostic (no such map can exist).  complete=False only when a node
    budget was exhausted.  Each map is the first completion of its class
    that the search validated, and it carries its canonical scan (see
    EnumerationResult).  A vertex count that is not an int or is below 1,
    or an Euler characteristic that is not an int, raises
    InconsistentParametersError.
    """
    opts = opts or EnumOptions()
    spec = _normalize_type(t)
    t_start = time.perf_counter()
    stats = EnumerationStats()
    collector: dict = {}
    complete = True
    diagnostic = _diagnostic(spec, n, chi)
    if diagnostic is None:
        complete = _drive(spec, n, chi, opts, collector, stats)
    stats.wall_seconds = time.perf_counter() - t_start
    codes = tuple(sorted(collector))
    maps = tuple(collector[c] for c in codes)
    return EnumerationResult(maps=maps, codes=codes, stats=stats,
                             complete=complete, diagnostic=diagnostic)


def exists_any(t, n: int, chi: int, opts: EnumOptions | None = None) -> Optional[CombMap]:
    """First completed map in the deterministic search order, or None when
    the whole tree is exhausted.  Always one unsplit in-process search:
    threads and checkpoint_path are not used.  Honors the node budget by
    raising nothing and returning None (check the result of enumerate_maps
    for budget diagnostics when that distinction matters).  Raises
    InconsistentParametersError when n is not an int or n < 1, or chi is
    not an int, as enumerate_maps does."""
    opts = opts or EnumOptions()
    spec = _normalize_type(t)
    collector: dict = {}
    if _diagnostic(spec, n, chi) is None:
        _drive(spec, n, chi, replace(opts, threads=1, checkpoint_path=None),
               collector, EnumerationStats(), first_only=True)
    return collector[min(collector)] if collector else None
