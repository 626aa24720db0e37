"""Admissible Dyer-Lashof words over a single class of given degree.

Words act on a class of degree n.  The admissible words of excess
strictly greater than n, together with the empty word for the class
itself, freely generate the target algebra; words of excess exactly n
give p-th powers and reappear as monomials, not generators.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import count

from .free_algebra import EXTERIOR, POLYNOMIAL, Generator, GeneratorSet
from .power_series import TruncatedSeries, _check_degrees, _fold_counts, _sparse_product
from .power_series import multiply_over_generators
from .primes import require_prime


def _render_word(p: int, entries: tuple, symbol: str) -> str:
    """An entry tuple applied to ``symbol``; the empty word is ``symbol``.

    >>> _render_word(2, (4, 2), "a"), _render_word(2, (), "a"), _render_word(2, (2,), "b")
    ('Q^4 Q^2 a', 'a', 'Q^2 b')
    >>> _render_word(3, ((1, 2),), "a"), _render_word(3, ((0, 2), (1, 1)), "a")
    ('bQ^2 a', 'Q^2 bQ^1 a')
    """
    if not entries:
        return symbol
    if p == 2:
        return "Q^" + " Q^".join(map(str, entries)) + " " + symbol
    ops = [("bQ^" if eps else "Q^") + str(s) for eps, s in entries]
    return " ".join(ops) + " " + symbol


def _operations(p: int) -> tuple[int, tuple[int, ...]]:
    """(q, bocksteins): an operation (eps, s) adds q s (p - 1) - eps to the
    degree, eps in bocksteins.  The p = 2 operations Q^s are the odd-prime
    beta^eps Q^s with eps = 0 and q = 1 (May 1970)."""
    return (1, (0,)) if p == 2 else (2, (0, 1))


def _check_arguments(p: int, gen_degree: int, max_degree: int) -> None:
    require_prime(p)
    _check_degrees((gen_degree,), ())
    if max_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {max_degree}")


def _raw_words(p: int, gen_degree: int, max_degree: int) -> list[tuple[int, tuple]]:
    """(word degree, entry tuple) of the empty word ``()`` and of every
    admissible word with excess > gen_degree and total degree <= max_degree,
    in search order.

    Tails of qualifying words qualify, so the search extends qualifying
    words on the left only, and its cost scales with the output.  For the
    excess of an extension only the tail sum T = sum of (q s_j (p - 1) +
    eps_j) matters: a new head (eps_0, s_0) needs q s_0 - T > n, plus
    admissibility s_0 <= p s_1 - eps_1 and the degree budget.  An entry is
    the pair (eps, s), or at p = 2 the bare s.
    """
    _check_arguments(p, gen_degree, max_degree)
    if gen_degree > max_degree:
        return []
    n, budget = gen_degree, max_degree - gen_degree
    q, bocksteins = _operations(p)
    step = q * (p - 1)
    found: list[tuple[int, tuple]] = [(0, ())]

    def extend(word: tuple, eps1: int, s1: int, wdeg: int, tail: int) -> None:
        found.append((wdeg, word))
        t = tail + step * s1 + eps1
        for eps0 in bocksteins:
            for s0 in range((t + n) // q + 1, p * s1 - eps1 + 1):
                d = wdeg + step * s0 - eps0
                if d > budget:
                    break
                extend(((eps0, s0) if q == 2 else s0,) + word, eps0, s0, d, t)

    for eps in bocksteins:
        s = n // q + 1
        while step * s - eps <= budget:
            extend(((eps, s) if q == 2 else s,), eps, s, step * s - eps, 0)
            s += 1
    return found


def generator_words(p: int, gen_degree: int, max_degree: int) -> list[tuple]:
    """Entry tuples of the empty word and of every admissible word with excess
    > gen_degree and total degree <= max_degree, sorted by (degree, entries)."""
    # No report calls this; bench/tracing.py wraps it by name and counts its words.
    return [w for _, w in sorted(_raw_words(p, gen_degree, max_degree))]


def _minimal_word_degrees(p: int, n: int, k: int, budget: int) -> list[int]:
    """Word degrees at most ``budget`` of the least words of length k and
    excess > n, one per Bockstein pattern eps_1..eps_k (one pattern at
    p = 2) whose least word is that small.

    With delta_j = p s_{j+1} - eps_{j+1} - s_j >= 0 and T = sum_{j>=2}
    eps_j, a word's excess is q s_k - 3 T - q sum_j delta_j (Bocksteins
    only occur at q = 2), and its degree rises by q (p^k - p^j) per unit of
    delta_j.  The least word has every delta_j zero and the least excess e
    > n that is congruent to -3 T mod q; summing q s (p - 1) - eps over its
    entries gives the degree (e + 3 T)(p^k - 1) - eps_1 - sum_{j>=2} eps_j
    (q (p^(j-1) - 1) + 1).  Another Bockstein raises e + 3 T by at least 2,
    so the degree by more than it takes off: the search adds Bocksteins at
    j >= 2 only while the degree stays within ``budget``.

    >>> _minimal_word_degrees(2, 1, 3, 14), _minimal_word_degrees(3, 1, 1, 4)
    ([14], [4, 3])
    """
    q, bocksteins = _operations(p)
    found: list[int] = []

    def search(first: int, tail: int, cut: int) -> None:
        degree = (n + 1 + (n + 1 + tail) % q + 3 * tail) * (p**k - 1) - cut
        if degree - bocksteins[-1] <= budget:
            found.extend(degree - eps for eps in bocksteins if degree - eps <= budget)
            for i in range(first, k if q == 2 else 0):  # eps_{i+1} becomes 1
                search(i + 1, tail + 1, cut + q * (p**i - 1) + 1)

    search(1, 0, 0)
    return found


def generator_degree_counts(p: int, gen_degree: int, max_degree: int) -> list[int]:
    """counts[d] is the number of words ``generator_words`` lists in total
    degree d, for d <= max_degree, with the empty word counted at
    ``gen_degree``; computed in closed form, building no word.

    The words of one length k have the series sum t^w over the least words'
    degrees w (``_minimal_word_degrees``), divided by the Dickson-invariant
    denominator prod_{0<=j<k} (1 - t^(q (p^k - p^j))), q from ``_operations``
    (Dickson 1911).  The lengths stop at the first with no word in range, as
    a word's tails qualify too; each length, and the empty word, is one term
    of one packed product (``power_series._sparse_product``).

    >>> generator_degree_counts(2, 1, 6)
    [0, 1, 0, 1, 1, 1, 1]
    """
    _check_arguments(p, gen_degree, max_degree)
    if gen_degree > max_degree:
        return [0] * (max_degree + 1)
    q, _ = _operations(p)
    terms = [((gen_degree,), (), ())]
    budget = max_degree - gen_degree
    for k in count(1):
        starts = [gen_degree + w for w in _minimal_word_degrees(p, gen_degree, k, budget)]
        if not starts:
            return _sparse_product(terms, max_degree)
        terms.append((starts, [q * (p**k - p**j) for j in range(k)], ()))


def _kind(p: int, degree: int) -> str:
    """Polynomial at p = 2; at odd primes the parity of the degree decides."""
    return EXTERIOR if p != 2 and degree % 2 else POLYNOMIAL


def generator_series(p: int, gen_degrees: Sequence[int], max_degree: int,
                     over: tuple[Sequence[int], Sequence[int]] | None = None,
                     ) -> TruncatedSeries | tuple[TruncatedSeries, TruncatedSeries]:
    """Dimension series of the free algebra on the generators over one class
    of each degree in ``gen_degrees`` (the union of their
    ``enumerate_generators`` sets): the generator counts per degree, summed
    over the classes, go into the fold (``power_series._fold_counts``) as
    they are, the odd degrees at odd p as exterior ones (``_kind``).  With
    ``over``, a pair of degree lists, it returns the fold's pair: the series
    and the series over those degrees' factors."""
    profiles = [generator_degree_counts(p, n, max_degree) for n in gen_degrees]
    if len(profiles) == 1:
        polynomial = profiles[0]
    else:
        polynomial = list(map(sum, zip(*profiles))) or [0] * (max_degree + 1)
    exterior = [0] * (max_degree + 1)
    if p != 2:
        exterior[1::2], polynomial[1::2] = polynomial[1::2], exterior[1::2]
    return _fold_counts(polynomial, exterior, over)


def _word_series(p: int, gen_degrees: Sequence[int], max_degree: int) -> TruncatedSeries:
    """``generator_series`` recounted from the words: one generator per word of
    ``_raw_words`` over each class, of the kind ``_kind`` gives its degree, by
    the forward kernel, sharing no pass with the closed-form counts or fold."""
    degrees = [n + wdeg for n in gen_degrees for wdeg, _ in _raw_words(p, n, max_degree)]
    polynomial = [d for d in degrees if _kind(p, d) == POLYNOMIAL]
    exterior = [d for d in degrees if _kind(p, d) == EXTERIOR]
    return multiply_over_generators(TruncatedSeries.one(max_degree), polynomial, exterior)


def generator_rows(p: int, gen_degree: int, max_degree: int) -> list[tuple[int, str, str]]:
    """The generators over one class of degree ``gen_degree`` as sorted
    (degree, label, kind) rows: one per word of ``generator_words``, labelled
    by the word applied to ``a``, of the kind ``_kind`` gives its total
    degree.  Labels are distinct, so this is the (degree, label) order.

    >>> generator_rows(2, 1, 4)
    [(1, 'a', 'polynomial'), (3, 'Q^2 a', 'polynomial'), (4, 'Q^3 a', 'polynomial')]
    """
    rows = []
    for wdeg, w in _raw_words(p, gen_degree, max_degree):
        d = gen_degree + wdeg
        rows.append((d, _render_word(p, w, "a"), _kind(p, d)))
    rows.sort()
    return rows


def enumerate_generators(p: int, gen_degree: int, max_degree: int) -> GeneratorSet:
    """Free-algebra generator set over one class of degree ``gen_degree``:
    one ``Generator`` per row of ``generator_rows``."""
    rows = generator_rows(p, gen_degree, max_degree)
    return GeneratorSet(Generator(label, d, kind) for d, label, kind in rows)
