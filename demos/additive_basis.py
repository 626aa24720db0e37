"""Listing the additive basis in low degrees.

Generators are admissible Dyer-Lashof words of excess above 1 applied to
the degree-1 class a. Odd-degree generators are exterior at odd primes,
everything is polynomial at p = 2. The monomial enumerator and the
generating function count the same thing two different ways; this script
prints both and checks they agree.
"""

from versalp import enumerate_generators, enumerate_monomials, series_of

BOUND = 8

for p in (2, 3):
    gens = enumerate_generators(p, 1, BOUND)
    print(f"p = {p}: {len(gens)} generators through degree {BOUND}")
    for g in gens:
        print(f"  {g.label:<10} degree {g.degree:>2}  {g.kind}")

    basis = enumerate_monomials(gens, BOUND)
    for degree, bucket in enumerate(basis.buckets):
        rendered = ", ".join(m.render() for m in bucket) or "-"
        print(f"  degree {degree}: {rendered}")

    counted = basis.dimensions()
    expanded = series_of(gens, BOUND)
    assert counted == list(expanded.coefficients)
    print(f"  dimension series (both ways): {expanded.coefficients}")
    print()

# The same machinery runs on any graded generator set, not just the ones
# coming from admissible words. Milnor's generators for the dual Steenrod
# algebra make a good second example.
from versalp import milnor_generator_degrees

dual = milnor_generator_degrees(3, BOUND)
print("dual Steenrod algebra at p = 3:")
for g in dual:
    print(f"  {g.label:<10} degree {g.degree:>2}  {g.kind}")
basis = enumerate_monomials(dual, BOUND)
for degree, bucket in enumerate(basis.buckets):
    if bucket:
        print(f"  degree {degree}: {', '.join(m.render() for m in bucket)}")
