"""Free graded-commutative algebras presented by generators with kinds.

A generator is either polynomial (even-degree behaviour, unbounded
exponents) or exterior (square zero, exponent at most 1).  The additive
basis of the free algebra on a generator set is the set of monomials
respecting the exterior bound; its generating function is the product of
the per-generator factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .power_series import TruncatedSeries, product_over_generators

POLYNOMIAL = "polynomial"
EXTERIOR = "exterior"
KINDS = (POLYNOMIAL, EXTERIOR)


@dataclass(frozen=True)
class Generator:
    label: str
    degree: int
    kind: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("generator label must be nonempty")
        if self.degree < 1:
            raise ValueError(f"generator degree must be >= 1, got {self.degree}")
        if self.kind not in KINDS:
            raise ValueError(f"generator kind must be one of {KINDS}, got {self.kind!r}")


def _generator_key(g: Generator) -> tuple[int, str]:
    return (g.degree, g.label)


@dataclass(frozen=True)
class GeneratorSet:
    """Canonically ordered by (degree, label); labels must be distinct."""

    entries: tuple[Generator, ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries, key=_generator_key))
        object.__setattr__(self, "entries", entries)
        seen: set[str] = set()
        for g in entries:
            if g.label in seen:
                raise ValueError(f"duplicate generator label {g.label!r}")
            seen.add(g.label)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def merged(self, other: "GeneratorSet") -> "GeneratorSet":
        return GeneratorSet(self.entries + other.entries)


@dataclass(frozen=True, slots=True)
class Monomial:
    """Product of generator powers; factors in (degree, label) order.

    The empty monomial is the algebra unit and renders as "1".  Public
    construction validates the factors; ``enumerate_monomials`` builds them
    valid and skips the check (``_trusted_monomial``).
    """

    factors: tuple[tuple[Generator, int], ...]

    def __post_init__(self) -> None:
        last = None
        for g, e in self.factors:
            if e < 1:
                raise ValueError("monomial exponents must be >= 1")
            if g.kind == EXTERIOR and e > 1:
                raise ValueError(f"exterior generator {g.label!r} squares to zero")
            key = _generator_key(g)
            if last is not None and key <= last:
                raise ValueError("monomial factors must be strictly (degree, label) ordered")
            last = key

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


_set_factors = Monomial.factors.__set__


def _trusted_monomial(factors: tuple[tuple[Generator, int], ...]) -> Monomial:
    """A Monomial whose factors are known to be valid, built without the
    checks of ``__post_init__``."""
    m = object.__new__(Monomial)
    _set_factors(m, factors)
    return m


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials of degrees 0..N by degree; ``names[d][i]`` is
    ``buckets[d][i].render()``."""

    generators: GeneratorSet
    truncation_degree: int
    buckets: tuple[tuple[Monomial, ...], ...]
    names: tuple[tuple[str, ...], ...]

    def bucket(self, degree: int) -> tuple[Monomial, ...]:
        return self.buckets[degree]

    def dimensions(self) -> list[int]:
        return [len(b) for b in self.buckets]

    def dimension_series(self) -> TruncatedSeries:
        return TruncatedSeries(self.truncation_degree, tuple(self.dimensions()))


def series_of(gens: GeneratorSet, truncation_degree: int) -> TruncatedSeries:
    """Generating function of the monomial basis, degree by degree."""
    return product_over_generators(gens, truncation_degree)


def enumerate_monomials(gens: GeneratorSet, truncation_degree: int) -> MonomialBasis:
    """Complete additive basis in degrees 0..N, bucketed by degree.

    Within a degree, monomials appear in descending lexicographic order of
    their exponent vectors over the canonical generator order, so pure
    powers of the lowest generator come first.
    """
    if not isinstance(gens, GeneratorSet):
        gens = GeneratorSet(tuple(gens))
    n = truncation_degree
    # The fold of series_of over lists of factor tuples: after folding the
    # generators from position i on, buckets[t] holds their products of
    # degree t.  Prepending the next generator, highest exponent first,
    # keeps each bucket in descending lexicographic order.  Every tuple
    # stays in its final bucket, so names[t] is built alongside, each name
    # one piece joined to the name of the rest of the monomial.
    buckets: list[list[tuple]] = [[()]] + [[] for _ in range(n)]
    names: list[list[str]] = [["1"]] + [[] for _ in range(n)]
    for g in reversed(gens.entries):
        d = g.degree
        top = 1 if g.kind == EXTERIOR else n // d
        # One factor tuple and one name piece per exponent, shared by every
        # monomial that has it.
        heads = [((g, e),) for e in range(1, top + 1)]
        pieces = [_piece(g, e) for e in range(1, top + 1)]
        joins = [piece + "·" for piece in pieces]
        for t in range(n, d - 1, -1):
            hi = min(top, t // d)
            new_buckets: list[tuple] = []
            new_names: list[str] = []
            if hi * d == t:
                # The pure power g^hi comes first, and its name is the piece.
                new_buckets.append(heads[hi - 1])
                new_names.append(pieces[hi - 1])
                hi -= 1
            for e in range(hi, 0, -1):
                rest = t - e * d
                if buckets[rest]:
                    new_buckets += [heads[e - 1] + f for f in buckets[rest]]
                    new_names += [joins[e - 1] + name for name in names[rest]]
            if new_buckets:
                buckets[t] = new_buckets + buckets[t]
                names[t] = new_names + names[t]
    return MonomialBasis(
        gens,
        n,
        tuple(tuple(map(_trusted_monomial, bucket)) for bucket in buckets),
        tuple(map(tuple, names)),
    )
