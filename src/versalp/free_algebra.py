"""Free graded-commutative algebras presented by generators with kinds.

A generator is either polynomial (even-degree behaviour, unbounded
exponents) or exterior (square zero, exponent at most 1).  The additive
basis of the free algebra on a generator set is the set of monomials
respecting the exterior bound; its generating function is the product of
the per-generator factors.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

from .power_series import TruncatedSeries, _check_degrees, _check_index, multiply_over_generators
from .value import Value

# Generator kinds: of degree d, a polynomial one gives 1/(1 - t^d), an exterior one 1 + t^d.
POLYNOMIAL = "polynomial"
EXTERIOR = "exterior"
KINDS = (POLYNOMIAL, EXTERIOR)


def _check_factor(d: int, kind: str) -> None:
    """Raise ValueError unless degree d and ``kind`` name a generator's factor."""
    _check_degrees((d,), ())
    if kind not in KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")


class Generator(Value):
    __slots__ = ("label", "degree", "kind")

    label: str
    degree: int
    kind: str

    def __init__(self, label: str, degree: int, kind: str) -> None:
        if not label:
            raise ValueError("generator label must be nonempty")
        _check_factor(degree, kind)
        super().__init__(label, degree, kind)


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
        super().__init__(entries)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


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
        super().__init__(factors)

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
        return "·".join(_piece(g.label, e) for g, e in self.factors)

    def __str__(self) -> str:
        return self.render()


def _piece(label: str, e: int) -> str:
    """How the generator ``label`` to the power ``e`` renders inside a monomial."""
    if e == 1:
        return label
    if " " in label:
        return f"({label})^{e}"
    return f"{label}^{e}"


class MonomialBasis(Value):
    """Monomials of degrees 0..N by degree.

    ``buckets[d]`` holds the monomials of degree d, listed once when the
    basis is made; ``names[d]`` renders them on each read, in the same order.
    """

    __slots__ = ("generators", "truncation_degree", "buckets")

    generators: GeneratorSet
    truncation_degree: int
    buckets: tuple[tuple[Monomial, ...], ...]

    @property
    def names(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(m.render() for m in b) for b in self.buckets)

    def bucket(self, degree: int) -> tuple[Monomial, ...]:
        _check_index(degree, self.truncation_degree)
        return self.buckets[degree]

    def dimensions(self) -> list[int]:
        return [len(b) for b in self.buckets]


def product_over_generators(gens: Iterable[Generator], truncation_degree: int) -> TruncatedSeries:
    """Generating function of the monomial basis on ``gens``: each degree,
    checked with its kind, in its kind's list of ``multiply_over_generators``."""
    polynomial, exterior = [], []
    for g in gens:
        _check_factor(g.degree, g.kind)
        (exterior if g.kind == EXTERIOR else polynomial).append(g.degree)
    return multiply_over_generators(TruncatedSeries.one(truncation_degree), polynomial, exterior)


series_of = product_over_generators


def _factor(g: Generator, e: int) -> tuple[tuple[Generator, int], ...]:
    return ((g, e),)


def _listing(rows: Sequence[tuple], n: int, unit, power, joiner) -> list[list]:
    """The basis in degrees 0..n of the free algebra on ``rows``, (degree,
    generator, kind) triples in canonical (degree, label) order, one element
    per monomial: ``unit`` for the empty monomial, ``power(g, e)`` for g^e
    alone, and ``power(g, e) + joiner + rest`` for g^e times a monomial
    ``rest`` in later generators.  Strings (names, g a label) and factor
    tuples (g a ``Generator``) both fit.  ``power`` and the join with
    ``joiner`` run once per (generator, exponent), never per monomial.

    The fold of series_of over lists, from the highest generator down: after
    folding the rows from position i on, buckets[t] holds their products of
    degree t.  Prepending the next generator, highest exponent first, keeps
    each bucket in descending lexicographic order of exponent vectors.  Every
    nonempty bucket is degree 0 or at least ``low``, the lowest degree folded
    so far, so below d + low a generator of degree d adds only its pure
    powers, one insert each; a generator above n adds nothing.
    """
    if n < 0:
        raise ValueError(f"truncation degree must be >= 0, got {n}")
    buckets: list[list] = [[unit]] + [[] for _ in range(n)]
    low = n + 1
    for d, g, kind in reversed(rows):
        if d > n:
            continue
        exterior = kind == EXTERIOR
        top = 1 if exterior else n // d
        # One element per exponent, shared by every monomial that has it.
        powers = [power(g, e) for e in range(1, top + 1)]
        prepends = [(x + joiner).__add__ for x in powers]
        for t in range(n, d + low - 1, -1):
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
        for e in range(1, min(top, (d + low - 1) // d) + 1):
            buckets[e * d].insert(0, powers[e - 1])
        low = d
    return buckets


def joined_names(
    rows: Sequence[tuple[int, str, str]], truncation_degree: int, encode=str
) -> tuple[list[int], Callable[[Callable[[int], str]], Iterator[list[str]]]]:
    """``(counts, join)`` for the names of the basis in degrees 0..N of the
    free algebra on ``rows``, (degree, label, kind) triples in canonical order
    as ``dyer_lashof.generator_rows`` gives them, without building most of
    them.  With ``names[d]`` the rendered monomials of degree d in the order
    of ``enumerate_monomials``, each in the string encoding ``encode``,
    counts[d] is ``len(names[d])``, and ``join(sep)`` yields, degree by
    degree, a list of pieces that concatenate to ``sep(d).join(names[d])``.

    ``encode`` must carry concatenation over (``encode(x + y) == encode(x) +
    encode(y)``), as an escape applied character by character does: it runs
    only on the unit, the ``·`` joiner and each (generator, exponent) piece,
    and every name is a concatenation of those.

    The later generators are listed name by name (``_listing``); a monomial
    with the lowest generator g never is.  Each degree is a list of runs
    (head, rests), one per exponent e of g that the degree admits and a last
    one for the monomials without g, whose names are head + r for r in rests:
    head is g^e with the joiner, or g^e alone over the rest [""], or "" over
    the names without g.  So a run joins as ``head + (sep + head).join(rests)``,
    the counts are the lengths of the rests, and only ``join`` builds text.
    """
    n = truncation_degree
    unit, joiner = encode("1"), encode("·")
    buckets = _listing(rows[1:], n, unit, lambda label, e: encode(_piece(label, e)), joiner)
    runs: list[list[tuple[str, list[str]]]] = [[] for _ in range(n + 1)]
    filled = [s for s in range(1, n + 1) if buckets[s]]
    for d, label, kind in rows[:1]:  # the lowest generator, if there is one
        top = min(1, n // d) if kind == EXTERIOR else n // d
        # Highest exponent first, so each degree's runs keep the listing order.
        for e in range(top, 0, -1):
            power = encode(_piece(label, e))
            runs[e * d].append((power, [""]))
            head = power + joiner
            for s in filled:
                if s > n - e * d:
                    break
                runs[s + e * d].append((head, buckets[s]))
    for t in (0, *filled):
        runs[t].append(("", buckets[t]))

    def join(sep: Callable[[int], str]) -> Iterator[list[str]]:
        for t, row in enumerate(runs):
            s, pieces = sep(t), []
            for head, rests in row:
                between = s + head
                pieces += (between if pieces else head, between.join(rests))
            yield pieces

    return [sum(len(rests) for _, rests in row) for row in runs], join


def enumerate_monomials(gens: GeneratorSet, truncation_degree: int) -> MonomialBasis:
    """Complete additive basis in degrees 0..N, bucketed by degree.

    Within a degree, monomials appear in descending lexicographic order of
    their exponent vectors over the canonical generator order, so pure
    powers of the lowest generator come first.
    """
    rows = [(g.degree, g, g.kind) for g in gens]
    listing = _listing(rows, truncation_degree, (), _factor, ())
    return MonomialBasis(gens, truncation_degree, tuple(tuple(map(Monomial, b)) for b in listing))
