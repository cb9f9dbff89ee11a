"""Vertex-type arithmetic for semi-equivelar maps.

A vertex type is a cyclic sequence of face sizes [p1^n1, ..., pk^nk]: walking
around any vertex of the map, the incident faces have these sizes in this
cyclic order (up to rotation and reflection).  Fixing the Euler characteristic
of the surface pins down the vertex count of any map realizing a given type,
because every count in sight is a linear function of the vertex count:

    f1 = n*d/2,   x_q = n*m_q/q,   f2 = sum x_q,   n - f1 + f2 = chi,

where d is the common vertex degree, m_q the multiplicity of size q in the
type, and x_q the number of q-gonal faces.  Only the parity rules depend on
the cyclic order of the sizes, and each rule is decided in one place:
_multiset_survivors decides the order-free ones (integral n and x_q, their
lower bounds, the closed star) once per size multiset, in scaled integers,
and admissible_types puts each arrangement of a survivor through the parity
rules only, ruling most (n, type) candidates out before any search is
attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, permutations
from math import gcd
from typing import Iterable, Optional

__all__ = [
    "VertexTypeSpec",
    "AdmissiblePair",
    "FilterOptions",
    "TypeSyntaxError",
    "SizeTooSmall",
    "DegreeTooSmall",
    "parse_type",
    "normalize_cycle",
    "datta_maity_admissible",
    "vertex_count_for",
    "euler_characteristic_for",
    "face_counts",
    "closed_star_size",
    "admissible_types",
]


class TypeSyntaxError(ValueError):
    """Raised when a type string does not match the bracket grammar."""


class SizeTooSmall(ValueError):
    """Raised when a face size below 3 appears in a type."""


class DegreeTooSmall(ValueError):
    """Raised when a type has fewer than 3 entries."""


def normalize_cycle(raw: Iterable[int]) -> tuple[int, ...]:
    """Canonical form of a cyclic size sequence.

    Returns the lexicographically least tuple over all rotations of the
    sequence and of its reversal, so two sequences describing the same
    cyclic-up-to-reflection object normalize identically.
    """
    cyc = tuple(raw)
    if len(cyc) < 3:
        raise DegreeTooSmall(f"vertex degree must be >= 3, got {len(cyc)}")
    if any(p < 3 for p in cyc):
        raise SizeTooSmall(f"face sizes must be >= 3, got {min(cyc)}")
    k = len(cyc)
    # every rotation is a window of the doubled sequence
    return min([s[r:r + k] for s in (cyc * 2, cyc[::-1] * 2) for r in range(k)])


def _run_lengths(cyc: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Cyclic run-length encoding [(p, n), ...] with p differing between
    consecutive runs (the first and last run are merged across the wrap)."""
    runs: list[list[int]] = []
    for p in cyc:
        if runs and runs[-1][0] == p:
            runs[-1][1] += 1
        else:
            runs.append([p, 1])
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        runs[0][1] += runs.pop()[1]
    return tuple((p, n) for p, n in runs)


@dataclass(frozen=True)
class VertexTypeSpec:
    """A vertex type in canonical cyclic form.

    ``cycle`` is the lexicographically least linearization over all rotations
    and reflections.  ``runs`` is its run-length view and ``collapsed`` the
    multiset view {size: multiplicity}.
    """

    cycle: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cycle", normalize_cycle(self.cycle))

    @classmethod
    def _of_canonical(cls, cycle: tuple[int, ...]) -> "VertexTypeSpec":
        """Wrap a tuple normalize_cycle returned, without normalizing it again."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "cycle", cycle)
        return spec

    @property
    def degree(self) -> int:
        return len(self.cycle)

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        return _run_lengths(self.cycle)

    @property
    def collapsed(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.cycle:
            out[p] = out.get(p, 0) + 1
        return out

    def __str__(self) -> str:
        return "[" + ",".join(f"{p}^{n}" for p, n in self.runs) + "]"


def parse_type(text: str) -> VertexTypeSpec:
    """Parse bracket notation like ``[3^2,4^1,3^1,5^1]`` or a bare size list.

    Exponent ``^1`` may be omitted; whitespace is ignored; sizes and
    exponents are ASCII digits.  Raises TypeSyntaxError / SizeTooSmall /
    DegreeTooSmall on bad input.
    """
    s = "".join(text.split())
    if not s:
        raise TypeSyntaxError("empty type string")
    if s.startswith("["):
        if not s.endswith("]"):
            raise TypeSyntaxError(f"unbalanced brackets in {text!r}")
        s = s[1:-1]
    if not s:
        raise TypeSyntaxError(f"no entries in {text!r}")
    cycle: list[int] = []
    for item in s.split(","):
        if not item:
            raise TypeSyntaxError(f"empty item in {text!r}")
        if "^" in item:
            base, _, exp = item.partition("^")
        else:
            base, exp = item, "1"
        # str.isdigit alone passes superscripts and other scripts' digits
        if not (base.isascii() and exp.isascii() and base.isdigit() and exp.isdigit()):
            raise TypeSyntaxError(f"bad item {item!r} in {text!r}")
        p, n = int(base), int(exp)
        if n < 1:
            raise TypeSyntaxError(f"exponent must be >= 1 in {item!r}")
        if p < 3:
            raise SizeTooSmall(f"face size {p} < 3 in {text!r}")
        cycle.extend([p] * n)
    if len(cycle) < 3:
        raise DegreeTooSmall(f"degree {len(cycle)} < 3 in {text!r}")
    return VertexTypeSpec(tuple(cycle))


def datta_maity_admissible(t: VertexTypeSpec) -> tuple[bool, Optional[str]]:
    """Apply the three parity exclusion rules for vertex types.

    A type fails, and cannot be realized by any semi-equivelar map on any
    surface, when on its cyclic run structure (checked over all rotations,
    reflection included via the canonical form):

      i.   some run is p^2 with p odd and p in no other run;
      ii.  some run is p^1 with p odd, p unique, and distinct cyclic
           neighbor sizes;
      iii. the run structure is [p^1, q^m, p^1, r^n] with p, q, r distinct
           and p odd.

    Returns (True, None) when no rule fires, else (False, rule_name).
    """
    runs = t.runs
    k = len(runs)
    sizes = [p for p, _ in runs]
    for i, (p, n) in enumerate(runs):
        unique = all(q != p for j, (q, _) in enumerate(runs) if j != i)
        if n == 2 and p % 2 == 1 and unique:
            return False, "i"
        if (
            n == 1
            and p % 2 == 1
            and unique
            and k >= 2
            and sizes[(i - 1) % k] != sizes[(i + 1) % k]
        ):
            return False, "ii"
    if k == 4:
        for r in range(4):
            (p1, n1), (q, _), (p2, n2), (w, _) = (runs[(r + j) % 4] for j in range(4))
            if (
                p1 == p2
                and n1 == 1
                and n2 == 1
                and p1 % 2 == 1
                and len({p1, q, w}) == 3
            ):
                return False, "iii"
    return True, None


def _euler_coefficient(t: VertexTypeSpec) -> Fraction:
    return Fraction(1) - Fraction(t.degree, 2) + sum(Fraction(1, p) for p in t.cycle)


def vertex_count_for(t: VertexTypeSpec, chi: int) -> Optional[int]:
    """Solve n * (1 - d/2 + sum 1/p_j) = chi exactly.

    Returns the vertex count when it is a positive integer, else None.  A
    vanishing coefficient (flat types) pins no vertex count, so None.
    """
    coeff = _euler_coefficient(t)
    if coeff == 0:
        return None
    n = Fraction(chi) / coeff
    if n > 0 and n.denominator == 1:
        return int(n)
    return None


def euler_characteristic_for(t: VertexTypeSpec, n: int) -> Fraction:
    """The Euler characteristic n * (1 - d/2 + sum 1/p_j) forced by n vertices."""
    return n * _euler_coefficient(t)


def face_counts(t: VertexTypeSpec, n: int) -> Optional[dict[int, int]]:
    """Per-size face counts x_q = n*m_q/q, or None if any is non-integral."""
    out: dict[int, int] = {}
    for q, m in sorted(t.collapsed.items()):
        x = Fraction(n * m, q)
        if x.denominator != 1:
            return None
        out[q] = int(x)
    return out


def closed_star_size(t: VertexTypeSpec) -> int:
    """Number of distinct vertices in the closed star of a vertex.

    The link of a vertex is a simple cycle with sum(p_j - 2) vertices; the
    center adds one more.
    """
    return 1 + sum(p - 2 for p in t.cycle)


@dataclass(frozen=True)
class FilterOptions:
    """Toggles for the admissibility filters.

    ``min_face_count`` is the lower bound demanded of every x_q (the census
    arithmetic uses 3; set to 1 to keep every integral solution).
    ``closed_star`` rejects types whose closed star exceeds the vertex count,
    allowing equality only in the complete-graph situation d = n - 1.  These
    two and ``min_vertices`` are decided per size multiset; ``prop1``, the
    parity rules, per arrangement.
    """

    prop1: bool = True
    min_vertices: int = 7
    min_face_count: int = 3
    closed_star: bool = True


@dataclass(frozen=True)
class AdmissiblePair:
    """An (n, type) candidate surviving all enabled filters."""

    n: int
    type: VertexTypeSpec
    face_counts: dict[int, int] = field(hash=False)
    filters_passed: tuple[str, ...] = ()

    def euler_characteristic(self) -> int:
        val = euler_characteristic_for(self.type, self.n)
        assert val.denominator == 1
        return int(val)


def _multiset_survivors(d: int, chi: int, opts: FilterOptions
                        ) -> list[tuple[tuple[int, ...], int, dict[int, int]]]:
    """(multiset, n, face_counts) for each nondecreasing size multiset of
    length d with n an integer >= min_vertices, every x_q an integer >=
    min_face_count and (if enabled) a closed star that fits: every rule
    that ignores the cyclic order, each decided here and nowhere else.

    Depth-first; the reciprocal sum is a reduced num/den pair, so
    n = 2*chi*den / (2*num - (d-2)*den).  Growing p stops once the sum cannot
    reach the floor (d-2)/2 + chi/min_vertices that n >= min_vertices sets,
    or once n is bounded below more than above.  With the r sizes still to
    come all at least p, the sum is at most num/den + r/p, which bounds n
    above; below, n >= x*p/d for the largest size, whose count x is at
    least max(min_face_count, 1), and n >= the closed star when that rule
    is on.  The lower bounds grow with p and the upper one falls, so the
    first p that fails them ends the loop."""
    mv = opts.min_vertices
    lo_num, lo_den = (d - 2) * mv + 2 * chi, 2 * mv
    min_x = max(opts.min_face_count, 1)
    out = []

    def counts(ms: tuple[int, ...], n: int) -> Optional[dict[int, int]]:
        xs = {}
        for q in sorted(set(ms)):
            x, rem = divmod(n * ms.count(q), q)
            if rem or x < opts.min_face_count:
                return None
            xs[q] = x
        if opts.closed_star:
            star = 1 + sum(ms) - 2 * d
            if star > n or (star == n and d != n - 1):
                return None
        return xs

    def rec(prefix: tuple[int, ...], start: int, num: int, den: int) -> None:
        r = d - len(prefix)
        # 2*den times (d-2)/2 - num/den: at most 0, and every completion has
        # a sum above (d-2)/2, so no positive n
        gap = (d - 2) * den - 2 * num
        if gap <= 0:
            return
        star = 1 + sum(prefix) - 2 * len(prefix)  # without the r sizes to come
        for p in count(start):
            # num/den + r/p < lo_num/lo_den, all denominators positive
            if (num * p + r * den) * lo_den < lo_num * den * p:
                break
            # n <= 2*(-chi)*den*p / room once room > 0
            room = gap * p - 2 * r * den
            if room > 0 and (min_x * room > -2 * chi * den * d or opts.closed_star
                             and (star + r * (p - 2)) * room > -2 * chi * den * p):
                break
            snum, sden = num * p + den, den * p
            if r > 1:
                g = gcd(snum, sden)
                rec(prefix + (p,), p, snum // g, sden // g)
                continue
            div = 2 * snum - (d - 2) * sden
            if div < 0:
                n, rem = divmod(2 * chi * sden, div)
                if not rem and n >= mv:
                    xs = counts(prefix + (p,), n)
                    if xs is not None:
                        out.append((prefix + (p,), n, xs))

    rec((), 3, 0, 1)
    return out


def admissible_types(chi: int, opts: FilterOptions | None = None) -> list[AdmissiblePair]:
    """All admissible (n, type) pairs for a surface of Euler characteristic chi.

    Requires chi < 0.  Degrees 3..6 are tried, which is complete for
    chi = -1 only: there (d-6)*n <= -6*chi with n >= 7 gives d <= 6.  From
    chi = -2 on the same bound admits d = 7 and beyond, so the lists for
    chi <= -2 lack every pair of degree 7 or more, (12, [3^7]) on chi = -2
    among them (the degree gap in ROADMAP.md).  Only the survivors of
    _multiset_survivors, which decides every order-free rule, are arranged,
    and each arrangement is put through the parity rules alone.  Results are
    sorted by (degree, n, cycle), one per canonical cycle.  A chi,
    min_vertices or min_face_count that is not an int (a float, a bool)
    raises ValueError.
    """
    opts = opts or FilterOptions()
    for name, value in (("chi", chi), ("min_vertices", opts.min_vertices),
                        ("min_face_count", opts.min_face_count)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if chi >= 0:
        # flat types such as [3^6] fit every n on chi = 0, prisms [4^2,p] n = chi*p
        raise ValueError("admissible_types requires chi < 0: for chi >= 0 the Euler "
                         "arithmetic admits infinitely many pairs")
    if opts.min_vertices < 1:
        raise ValueError(f"min_vertices must be >= 1, got {opts.min_vertices}")
    applied = ["euler", "integral-face-counts", f"min-vertices>={opts.min_vertices}"]
    if opts.prop1:
        applied.append("parity-rules")
    if opts.closed_star:
        applied.append("closed-star")
    passed = tuple(applied)
    found: list[AdmissiblePair] = []
    for d in range(3, 7):
        for ms, n, xs in _multiset_survivors(d, chi, opts):
            for cyc in {normalize_cycle(p) for p in set(permutations(ms))}:
                t = VertexTypeSpec._of_canonical(cyc)
                if not opts.prop1 or datta_maity_admissible(t)[0]:
                    found.append(AdmissiblePair(n, t, dict(xs), passed))
    return sorted(found, key=lambda a: (a.type.degree, a.n, a.type.cycle))
