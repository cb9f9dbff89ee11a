"""Which (vertex count, vertex type) pairs can live on the chi = -1 surface?

Every semi-equivelar map of type [p1^n1, ...] pins its own vertex count:
the Euler relation n - E + F = chi becomes an exact rational equation once
E and F are expressed through the type.  Layering the parity exclusion
rules, integral face counts, and the closed-star bound on top leaves a
short list of candidates; the classical hand analysis arrives at 17 pairs.

This walk-through recomputes the list and highlights where mechanized
filtering genuinely differs from the published hand computation: the same
arithmetic admits (20, [4^1,10^2]) and (20, [5^1,8^2]) too, and the
exhaustive search (demo 02) shows neither is realized by any map, so the
final census is unaffected.
"""

from fractions import Fraction

from semeq import FilterOptions, admissible_types, parse_type, vertex_count_for

print(__doc__)

print("=== default filters, chi = -1 ===")
for pair in admissible_types(-1):
    d = pair.type.degree
    coeff = Fraction(1) - Fraction(d, 2) + sum(Fraction(1, p) for p in pair.type.cycle)
    print(
        f"  n={pair.n:>3}  {str(pair.type):<22} degree {d}, "
        f"face counts {pair.face_counts}, check n*({coeff}) = {pair.n * coeff}"
    )

print()
print("=== the arithmetic behind one row ===")
t = parse_type("[4^3,5^1]")
print(f"type {t}: degree 4, reciprocal sum 3/4 + 1/5")
print(f"  n * (1 - 4/2 + 3/4 + 1/5) = -1  =>  n = {vertex_count_for(t, -1)}")

print()
print("=== relaxing the x_q >= 3 heuristic ===")
base = {(p.n, str(p.type)) for p in admissible_types(-1)}
relaxed = admissible_types(-1, FilterOptions(min_face_count=1))
for pair in relaxed:
    if (pair.n, str(pair.type)) not in base:
        small = {q: x for q, x in pair.face_counts.items() if x < 3}
        print(f"  extra: n={pair.n:>3} {str(pair.type):<22} (scarce faces: {small})")

print()
print("=== a sweep over more negative Euler characteristics ===")
print("(size multisets are filtered first in integers, so each row takes well under a second)")
for chi in (-1, -2, -3, -4):
    pairs = admissible_types(chi)
    assert all(p.euler_characteristic() == chi for p in pairs)
    print(f"  chi = {chi}: {len(pairs)} admissible (n, type) pairs")
