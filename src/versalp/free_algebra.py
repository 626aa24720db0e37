"""Free graded-commutative algebras presented by generators with kinds.

A generator is either polynomial (even-degree behaviour, unbounded
exponents) or exterior (square zero, exponent at most 1).  The additive
basis of the free algebra on a generator set is the set of monomials
respecting the exterior bound; its generating function is the product of
the per-generator factors.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property

from .power_series import EXTERIOR, KINDS, POLYNOMIAL, TruncatedSeries, product_over_generators
from .value import Value


class Generator(Value):
    __slots__ = ("label", "degree", "kind")

    label: str
    degree: int
    kind: str

    def __init__(self, label: str, degree: int, kind: str) -> None:
        if not label:
            raise ValueError("generator label must be nonempty")
        if degree < 1:
            raise ValueError(f"generator degree must be >= 1, got {degree}")
        if kind not in KINDS:
            raise ValueError(f"generator kind must be one of {KINDS}, got {kind!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "kind", kind)


def _generator_key(g: Generator) -> tuple[int, str]:
    return (g.degree, g.label)


class GeneratorSet(Value):
    """Canonically ordered by (degree, label); labels must be distinct."""

    __slots__ = ("entries",)

    entries: tuple[Generator, ...]

    def __init__(self, entries: Iterable[Generator]) -> None:
        entries = tuple(sorted(entries, key=_generator_key))
        seen: set[str] = set()
        for g in entries:
            if g.label in seen:
                raise ValueError(f"duplicate generator label {g.label!r}")
            seen.add(g.label)
        object.__setattr__(self, "entries", entries)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def merged(self, other: "GeneratorSet") -> "GeneratorSet":
        return GeneratorSet(self.entries + other.entries)


class Monomial(Value):
    """Product of generator powers; factors in (degree, label) order.

    The empty monomial is the algebra unit and renders as "1".  Every
    construction checks the exponents (>= 1, at most 1 for an exterior
    generator) and the strict factor order.
    """

    __slots__ = ("factors",)

    factors: tuple[tuple[Generator, int], ...]

    def __init__(self, factors: tuple[tuple[Generator, int], ...]) -> None:
        last = None
        for g, e in factors:
            if e < 1:
                raise ValueError("monomial exponents must be >= 1")
            if g.kind == EXTERIOR and e > 1:
                raise ValueError(f"exterior generator {g.label!r} squares to zero")
            key = _generator_key(g)
            if last is not None and key <= last:
                raise ValueError("monomial factors must be strictly (degree, label) ordered")
            last = key
        object.__setattr__(self, "factors", factors)

    @property
    def degree(self) -> int:
        return sum(e * g.degree for g, e in self.factors)

    def exponent(self, label: str) -> int:
        for g, e in self.factors:
            if g.label == label:
                return e
        return 0

    def render(self) -> str:
        if not self.factors:
            return "1"
        return "·".join(_piece(g, e) for g, e in self.factors)

    def __str__(self) -> str:
        return self.render()


def _piece(g: Generator, e: int) -> str:
    """How ``g`` to the power ``e`` renders inside a monomial."""
    if e == 1:
        return g.label
    if " " in g.label:
        return f"({g.label})^{e}"
    return f"{g.label}^{e}"


class MonomialBasis(Value):
    """Monomials of degrees 0..N by degree.

    ``names[d]`` lists the rendered monomials of degree d and is built
    eagerly; ``buckets[d]`` holds the same monomials as ``Monomial``s, in the
    same order (``names[d][i] == buckets[d][i].render()``), and is built by
    the same recurrence on first read.
    """

    # cached_property stores ``buckets`` in ``__dict__``, which is no field.
    __slots__ = ("generators", "truncation_degree", "names", "__dict__")

    generators: GeneratorSet
    truncation_degree: int
    names: tuple[tuple[str, ...], ...]

    def __init__(self, generators: GeneratorSet, truncation_degree: int,
                 names: tuple[tuple[str, ...], ...]) -> None:
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "truncation_degree", truncation_degree)
        object.__setattr__(self, "names", names)

    def _fields(self) -> tuple:
        return (self.generators, self.truncation_degree, self.names)

    @cached_property
    def buckets(self) -> tuple[tuple[Monomial, ...], ...]:
        listing = _listing(self.generators, self.truncation_degree, (), _factor, _same)
        return tuple(tuple(map(Monomial, bucket)) for bucket in listing)

    def bucket(self, degree: int) -> tuple[Monomial, ...]:
        return self.buckets[degree]

    def dimensions(self) -> list[int]:
        return [len(b) for b in self.names]

    def dimension_series(self) -> TruncatedSeries:
        return TruncatedSeries(self.truncation_degree, tuple(self.dimensions()))


def series_of(gens: GeneratorSet, truncation_degree: int) -> TruncatedSeries:
    """Generating function of the monomial basis, degree by degree."""
    return product_over_generators(gens, truncation_degree)


def _factor(g: Generator, e: int) -> tuple[tuple[Generator, int], ...]:
    return ((g, e),)


def _same(x):
    return x


def _listing(gens: GeneratorSet, n: int, unit, power, joined) -> list[list]:
    """The basis in degrees 0..n, one element per monomial: ``unit`` for the
    empty monomial, ``power(g, e)`` for g^e alone, and ``joined(power(g, e))
    + rest`` for g^e times a monomial ``rest`` in later generators.  Strings
    (names) and factor tuples both fit.  ``power`` and ``joined`` run once
    per (generator, exponent), never per monomial.

    The fold of series_of over lists: after folding the generators from
    position i on, buckets[t] holds their products of degree t.  Prepending
    the next generator, highest exponent first, keeps each bucket in
    descending lexicographic order of exponent vectors.
    """
    buckets: list[list] = [[unit]] + [[] for _ in range(n)]
    for g in reversed(gens.entries):
        d = g.degree
        exterior = g.kind == EXTERIOR
        top = 1 if exterior else n // d
        # One element per exponent, shared by every monomial that has it.
        powers = [power(g, e) for e in range(1, top + 1)]
        prepends = [joined(x).__add__ for x in powers]
        for t in range(n, d - 1, -1):
            # t <= n, so t // d never exceeds top for a polynomial generator.
            hi = 1 if exterior else t // d
            new: list = []
            if hi * d == t:
                # The pure power g^hi comes first.
                new.append(powers[hi - 1])
                hi -= 1
            for e in range(hi, 0, -1):
                rest = buckets[t - e * d]
                if rest:
                    new += map(prepends[e - 1], rest)
            if new:
                buckets[t] = new + buckets[t]
    return buckets


def list_names(gens: GeneratorSet, truncation_degree: int, encode=str) -> list[list[str]]:
    """The names of ``enumerate_monomials(gens, truncation_degree)``, bucket
    by bucket in the same order, each in the string encoding ``encode``.

    ``encode`` must carry concatenation over (``encode(x + y) == encode(x) +
    encode(y)``), as an escape applied character by character does: it runs
    only on the unit, the ``·`` joiner and each (generator, exponent) piece,
    and every name is a concatenation of those.
    """
    if truncation_degree < 0:
        raise ValueError(f"truncation degree must be >= 0, got {truncation_degree}")
    joiner = encode("·")
    return _listing(gens, truncation_degree, encode("1"),
                    lambda g, e: encode(_piece(g, e)), lambda x: x + joiner)


def enumerate_monomials(gens: GeneratorSet, truncation_degree: int) -> MonomialBasis:
    """Complete additive basis in degrees 0..N, bucketed by degree.

    Within a degree, monomials appear in descending lexicographic order of
    their exponent vectors over the canonical generator order, so pure
    powers of the lowest generator come first.  Only the names are built
    here; the ``Monomial``s wait for the first read of ``buckets``.
    """
    if not isinstance(gens, GeneratorSet):
        gens = GeneratorSet(tuple(gens))
    names = list_names(gens, truncation_degree)
    return MonomialBasis(gens, truncation_degree, tuple(map(tuple, names)))
