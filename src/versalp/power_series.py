"""Exact arithmetic on integer power series truncated at a fixed degree.

Coefficients are plain Python ints, so nothing ever overflows.  The
truncation degree is part of the value and every binary operation insists
that both operands carry the same one; degree bookkeeping mistakes fail
loudly instead of silently re-truncating.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import accumulate, repeat
from math import comb, prod
from operator import add, mul
from sys import byteorder

from .value import Value


class VerificationError(Exception):
    """A mathematical consistency check failed; no report may be emitted."""


class TruncatedSeries(Value):
    """c_0 + c_1 t + ... + c_N t^N with N = truncation_degree.

    >>> TruncatedSeries.from_coefficients([1], 3).coefficients
    (1, 0, 0, 0)
    >>> f = TruncatedSeries.from_coefficients([1, 1], 2)
    >>> g = TruncatedSeries.from_coefficients([1, -1], 2)
    >>> f.mul(g).coefficients
    (1, 0, -1)
    """

    __slots__ = ("truncation_degree", "coefficients")

    truncation_degree: int
    coefficients: tuple[int, ...]

    def __init__(self, truncation_degree: int, coefficients: Iterable[int]) -> None:
        if truncation_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        coefficients = tuple(coefficients)
        if len(coefficients) != truncation_degree + 1:
            raise ValueError(
                f"need exactly {truncation_degree + 1} coefficients, "
                f"got {len(coefficients)}"
            )
        super().__init__(truncation_degree, coefficients)

    @classmethod
    def from_coefficients(
        cls, coeffs: Sequence[int], truncation_degree: int
    ) -> "TruncatedSeries":
        """Low coefficients as given, missing high ones filled with zero."""
        coeffs = tuple(coeffs)
        if len(coeffs) > truncation_degree + 1:
            raise ValueError(
                f"{len(coeffs)} coefficients exceed truncation degree "
                f"{truncation_degree}"
            )
        pad = truncation_degree + 1 - len(coeffs)
        return cls(truncation_degree, coeffs + (0,) * pad)

    @classmethod
    def one(cls, truncation_degree: int) -> "TruncatedSeries":
        return cls.from_coefficients((1,), truncation_degree)

    def coefficient(self, degree: int) -> int:
        _check_index(degree, self.truncation_degree)
        return self.coefficients[degree]

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.truncation_degree != other.truncation_degree:
            raise ValueError(
                f"mismatched truncation degrees "
                f"{self.truncation_degree} and {other.truncation_degree}"
            )

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, terms above the truncation degree discarded;
        one big-integer product (``_kronecker``)."""
        self._check_compatible(other)
        n = self.truncation_degree
        return TruncatedSeries(
            n, tuple(_kronecker(self.coefficients, other.coefficients, 0, n + 1))
        )

    def div(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """The unique q with q.mul(den) == self, for den with constant term 1.

        >>> f = TruncatedSeries.from_coefficients([1, 2, 3], 2)
        >>> f.div(f).coefficients
        (1, 0, 0)
        """
        self._check_compatible(den)
        if den.coefficients[0] != 1:
            raise ValueError(
                f"denominator constant term must be exactly 1, "
                f"got {den.coefficients[0]}"
            )
        n = self.truncation_degree
        d = den.coefficients
        q = [0] * (n + 1)
        for m in range(n + 1):
            acc = self.coefficients[m]
            for k in range(1, m + 1):
                if d[k]:
                    acc -= d[k] * q[m - k]
            q[m] = acc
        return TruncatedSeries(n, tuple(q))


def _kronecker(a: Sequence[int], b: Sequence[int], start: int, stop: int) -> list[int]:
    """Coefficients ``start`` to ``stop`` - 1 of the product of the
    polynomials with coefficient lists ``a`` and ``b``, by Kronecker
    substitution.

    Each operand becomes the one integer sum(c_i X^i) at X = 2^(8w), the two
    integers are multiplied once, and ``_unpack`` reads back slots of w bytes.
    Every product coefficient is a sum of at most min(len(a), len(b)) terms, so
    |c| < 2^(bits(max|a|) + bits(max|b|) + bits(min(len(a), len(b)))).  When
    both operands are nonnegative, so is every c, and slots of that many bits
    hold them as they are; otherwise one more bit lets each slot hold
    c + 2^(8w - 1) without carrying into the next.
    """
    terms = min(len(a), len(b)).bit_length()
    size = stop - start
    if not (any(map((0).__gt__, b)) or any(map((0).__gt__, a))):
        w = (max(a).bit_length() + max(b).bit_length() + terms + 7) // 8
        return _unpack((_pack(a, w) * _pack(b, w)) >> (8 * w * start), w, size)
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + terms + 1
    w = (bits + 7) // 8
    # With 2^(8w-1) added to each of the low ``stop`` slots, each holds
    # c + 2^(8w-1), in [0, 2^(8w)); the mask in ``_unpack`` keeps those slots
    # whatever the sign of the discarded high part.
    product = _pack_signed(a, w) * _pack_signed(b, w) + _offsets(stop, w)
    return list(map((-1 << (8 * w - 1)).__add__, _unpack(product >> (8 * w * start), w, size)))


def _unpack(x: int, w: int, count: int) -> list[int]:
    """The low ``count`` w-byte slots of ``x``; slots up to 8 bytes in one
    word cast, up to 16 bytes in two (low | high << 64)."""
    if w <= 16 and byteorder == "little":
        if w <= 8:
            return memoryview(_padded(x, w, count, 8)).cast("Q").tolist()
        words = memoryview(_padded(x, w, count, 16)).cast("Q").tolist()
        return [low | high << 64 for low, high in zip(words[::2], words[1::2])]
    raw = _padded(x, w, count, w)
    return [int.from_bytes(raw[i:i + w], "little") for i in range(0, w * count, w)]


def _padded(x: int, w: int, count: int, wide: int) -> bytearray:
    """The low ``count`` w-byte slots of ``x``, each zero-padded to ``wide`` bytes."""
    size = w * count
    raw = (x & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    out = bytearray(wide * count)
    for k in range(w):
        out[k::wide] = raw[k::w]
    return out


def _offsets(count: int, w: int, bits: int = 1) -> int:
    """The top ``bits`` bits set in each of ``count`` slots of w bytes: for
    one bit, 2^(8w - 1) in each slot."""
    slot = (1 << 8 * w) - (1 << 8 * w - bits)
    return int.from_bytes(slot.to_bytes(w, "little") * count, "little")


def _pack(coeffs: Iterable[int], w: int) -> int:
    """sum(c_i 2^(8 w i)) for 0 <= c_i < 2^(8w), one slot of w bytes each."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, coeffs, repeat(w), repeat("little"))), "little"
    )


def _pack_signed(coeffs: Sequence[int], w: int) -> int:
    """sum(c_i 2^(8 w i)) for signed c_i with |c_i| < 2^(8w - 1): each slot
    written as c_i + 2^(8w - 1), which is nonnegative, less the offsets."""
    half = 1 << (8 * w - 1)
    return _pack(map(add, coeffs, repeat(half)), w) - _offsets(len(coeffs), w)


def _check_index(degree: int, truncation_degree: int) -> None:
    """Raise IndexError unless ``degree`` lies in 0..``truncation_degree``;
    a negative degree would otherwise index from the top."""
    if not 0 <= degree <= truncation_degree:
        raise IndexError(f"degree {degree} outside 0..{truncation_degree}")


def _check_degrees(polynomial: Sequence[int], exterior: Sequence[int]) -> None:
    """Raise ValueError unless every degree in both lists is at least 1."""
    low = min([*polynomial, *exterior], default=1)
    if low < 1:
        raise ValueError(f"generator degree must be >= 1, got {low}")


def multiply_over_generators(series: TruncatedSeries, polynomial: Sequence[int],
                             exterior: Sequence[int]) -> TruncatedSeries:
    """``series`` times prod_d 1/(1 - t^d) over the ``polynomial`` degrees
    and prod_e (1 + t^e) over the ``exterior`` ones, sharing no pass with
    the fold's last phase (``_times_factors``).  A factor 1/(1 - t^d) is a
    prefix sum along each residue class mod d, one ``accumulate`` per class
    when d*d <= N, else each block of d terms added onto the one below, so
    at most sqrt(N) steps in Python; a factor (1 + t^e) is one shifted add.
    Both leave the series as it is when the degree is above N."""
    _check_degrees(polynomial, exterior)
    c = list(series.coefficients)
    n = len(c) - 1
    for d in polynomial:
        if d * d <= n:
            for r in range(d):
                c[r::d] = accumulate(c[r::d])
        else:
            for k in range(d, n + 1, d):
                c[k:k + d] = map(add, c[k:k + d], c[k - d:k])
    for e in exterior:
        c[e:] = map(add, c[e:], c[:-e])
    return TruncatedSeries(n, tuple(c))


# ``_fold_factors`` runs while the polynomial generators' factors
# 1 + t^(d 2^j) with d 2^j <= N/2 number at most this many per bit of N.  On
# the homology folds (2-core x86-64, Python 3.11) the two paths cost the same
# at about 1,800 such factors for p = 2 (N = 185), 1,640 for p = 3 (N = 830)
# and 2,460 for p = 5 (N = 3,400), 164 to 226 per bit; at 150 the factor
# path is the faster at every prime, by 5 to 10% at the switch (p = 2 up to
# N = 157, p = 3 up to 799, p = 5 up to 2,911), and p = 7 at N = 4,000 (914
# factors, 76 per bit) takes it, 2.1 times as fast.
_DOUBLINGS_PER_BIT = 150


def _fold_counts(polynomial: list[int], exterior: list[int],
                 over: tuple[Sequence[int], Sequence[int]] | None = None,
                 ) -> TruncatedSeries | tuple[TruncatedSeries, TruncatedSeries]:
    """Dimension series, through degree N, of the free graded-commutative
    algebra with polynomial[d] polynomial and exterior[d] exterior
    generators of each degree d; both lists have length N + 1 and their
    entries at degree 0 are ignored.

    b polynomial generators of degree d contribute 1/(1 - t^d)^b, b exterior
    ones (1 + t^d)^b.  While the polynomial ones' doublings, the factors
    1 + t^(d 2^j) of 1/(1 - t^d) with d 2^j <= N/2, number at most
    ``_DOUBLINGS_PER_BIT`` per bit of N, counted by one slice sum per
    doubling, all factors are multiplied out (``_fold_factors``): the band
    above N/3 in closed form as the starting value, exact because any three
    of its factors' shifts add up past N, then the rest grouped by shift.
    That path divides nothing; its slot width is fixed before the closed
    form from max e_s sum e_s over the band, e_s its factors 1 + t^s, which
    bounds every slot of the band's square, and widened only by its guard
    test.  Otherwise the product is an Euler transform (``_fold_euler``),
    and the remainder check is that path's alone.

    With ``over``, a pair (polynomial degrees, exterior degrees) each in
    1..N (else ValueError), the result is the pair (series, series over
    ``over``): the second is the series divided by prod_d 1/(1 - t^d)
    prod_e (1 + t^e) over those degrees.  The path is picked from the full
    counts; then one generator of its kind is taken out of the counts for
    each listed degree, two for a degree listed twice, and a count that
    would go below zero raises VerificationError.  The path folds the
    reduced counts into the second series, and ``_times_factors`` applies
    the factors of ``over`` to it last, which gives the first.

    >>> _fold_counts([0, 2, 0, 0, 0], [0, 0, 1, 0, 0]).coefficients
    (1, 2, 4, 6, 8)
    >>> [s.coefficients for s in _fold_counts([0, 2, 0, 0, 0], [0, 0, 1, 0, 0], ([1], [2]))]
    [(1, 2, 4, 6, 8), (1, 1, 1, 1, 1)]
    """
    n = len(polynomial) - 1
    limit = _DOUBLINGS_PER_BIT * n.bit_length()
    top, doublings = n // 2, 0
    while top and doublings <= limit:
        doublings += sum(polynomial[1:top + 1])
        top //= 2
    if over is not None:
        polynomial, exterior = list(polynomial), list(exterior)
        for counts, degrees, kind in ((polynomial, over[0], "polynomial"),
                                      (exterior, over[1], "exterior")):
            for d in degrees:
                if not 1 <= d <= n:
                    raise ValueError(f"generator degree must lie in 1..{n}, got {d}")
                if not counts[d]:
                    raise VerificationError(f"no {kind} generator left in degree {d} "
                                            "to take out of the counts")
                counts[d] -= 1
    if doublings <= limit:
        return _fold_factors(polynomial, exterior, over)
    series = _fold_euler(polynomial, exterior)
    return series if over is None else _times_factors(0, 0, series.coefficients, over)


def _fold_euler(polynomial: list[int], exterior: list[int]) -> TruncatedSeries:
    """``_fold_counts`` as an Euler transform, n a_n = sum_{k<=n} c_k a_{n-k},
    c_k the sum of d b over the degrees d dividing k, signed (-1)^(k/d+1) for
    exterior ones: an online convolution over Kronecker products (``_solve``),
    O(M(N) log N) for M(N) one N-term product.  A remainder raises VerificationError."""
    n = len(polynomial) - 1
    c = [0] * (n + 1)
    for d in range(1, n + 1):
        if polynomial[d]:
            db = d * polynomial[d]
            for k in range(d, n + 1, d):
                c[k] += db
        if exterior[d]:
            db = d * exterior[d]
            for k in range(d, n + 1, 2 * d):
                c[k] += db
            for k in range(2 * d, n + 1, 2 * d):
                c[k] -= db
    a = [1] + [0] * n
    _solve(a, [0] * (n + 1), c, 0, n + 1)
    return TruncatedSeries(n, tuple(a))


def _fold_factors(polynomial: list[int], exterior: list[int],
                  over: tuple[Sequence[int], Sequence[int]] | None = None,
                  ) -> TruncatedSeries | tuple[TruncatedSeries, TruncatedSeries]:
    """``_fold_counts`` as a product of factors 1 + t^s in one integer x, a
    slot of w bytes per degree: e_s factors for each s, one per exterior
    generator of degree s and one per polynomial generator of degree d with
    s = d 2^j, as 1/(1 - t^d) = prod_j (1 + t^(d 2^j)).

    The band N/3 < s <= N is x's starting value.  Its factors multiply to
    1 + e_1 + e_2 + ..., e_k the k-th elementary symmetric function of the
    multiset of t^s, and every e_k with k >= 3 has degree above N; by
    Newton's identity e_1 = A and e_2 = (A^2 - A_2)/2, with A = sum e_s t^s
    and A_2 = sum e_s t^(2s), so x starts as 1 + A + (A^2 - A_2)/2 through
    degree N, one squaring.  A slot of A^2 is at most max e_s sum e_s, and
    so is every slot of x; w leaves one bit above that clear.  Every slot of
    A^2 - A_2 is even and nonnegative, so one shift halves them all.

    Each s <= N/3, ascending, is then one group: e_s masked shift-adds of x,
    or, when e_s > N // s, the Horner sum of C(e_s, i) x t^(is) over
    i <= N // s.  A group multiplies every slot by at most 2^g, with g = e_s
    for shift-adds and g = bits(sum_i C(e_s, i) - 1) for the sum, so one
    guard test before it asks that the top g + 1 bits of every slot be
    clear, and if any is set every slot widens by ceil(g / 8) bytes.  No
    group lowers a slot, so each is exact and leaves every slot below
    2^(8w - 1).

    With ``over``, whose degrees ``_fold_counts`` has taken out of the
    counts, the slots read after the groups are the second series of the
    pair, and ``_times_factors`` applies the factors of ``over`` to x
    itself for the first."""
    n = len(polynomial) - 1
    third = n // 3
    e = list(exterior)
    for j in range(n.bit_length()):
        e[::1 << j] = map(add, e[::1 << j], polynomial)
    band = e[third + 1:]
    w = max(2, ((max(band, default=0) * sum(band)).bit_length() + 8) // 8)
    full = (1 << 8 * w * (n + 1)) - 1
    a = _pack(band, w) << 8 * w * (third + 1)
    square = ((a * a) & full) - (_pack(e[third + 1:n // 2 + 1], 2 * w) << 16 * w * (third + 1))
    x, guards = 1 + a + (square >> 1), {}
    for s in range(1, third + 1):
        k = e[s]
        if not k:
            continue
        m = n // s
        terms = [comb(k, i) for i in range(m + 1)] if k > m else None
        g = (sum(terms) - 1).bit_length() if terms else k
        key = (w, min(g + 1, 8 * w))
        if key not in guards:
            guards[key] = _offsets(n + 1, *key)
        if x & guards[key]:
            wide = w + (g + 7) // 8
            x, w = int.from_bytes(_padded(x, w, n + 1, wide), "little"), wide
            full = (1 << 8 * w * (n + 1)) - 1
        shift = 8 * w * s
        if terms:
            y = x * terms.pop()
            for c in reversed(terms):
                y = ((y << shift) & full) + c * x
            x = y
        else:
            for _ in range(k):
                x += (x << shift) & full
    series = _unpack(x, w, n + 1)
    return TruncatedSeries(n, series) if over is None else _times_factors(x, w, series, over)


def _shifts(polynomial: Sequence[int], exterior: Sequence[int], n: int) -> list[int]:
    """The shifts s of the factors 1 + t^s of prod_d 1/(1 - t^d)
    prod_e (1 + t^e) through degree n, ascending: d 2^j <= n for each
    polynomial degree d, and each exterior degree e.

    >>> _shifts([2, 3], [1], 8)
    [1, 2, 3, 4, 6, 8]
    """
    doublings = [d << j for d in polynomial for j in range(n.bit_length()) if d << j <= n]
    return sorted(doublings + list(exterior))


def _times_factors(x: int, w: int, reduced: Sequence[int],
                   over: tuple[Sequence[int], Sequence[int]],
                   ) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(series, reduced): ``reduced``, through its degree n, times
    prod_d 1/(1 - t^d) prod_e (1 + t^e) over ``over`` = (xi, tau), one
    masked shift-add per factor 1 + t^s of ``_shifts``, in ascending order.

    x holds ``reduced`` in slots of w bytes, or w is 0.  With m the largest
    coefficient of ``reduced``, every slot of the product is at most m times
    the number of monomials in those generators of degree at most n, so at
    most m prod_d (n // d + 1) 2^|tau|.  When that bound takes more than w
    bytes, ``reduced`` is packed once at its width, so no shift-add carries."""
    n = len(reduced) - 1
    xi, tau = over
    bound = max(reduced) * prod(n // d + 1 for d in xi) << len(tau)
    v = (bound.bit_length() + 7) // 8
    if v > w:
        x, w = _pack(reduced, v), v
    full = (1 << 8 * w * (n + 1)) - 1
    for s in _shifts(xi, tau, n):
        x += (x << 8 * w * s) & full
    return TruncatedSeries(n, _unpack(x, w, n + 1)), TruncatedSeries(n, reduced)


def _sparse_product(
    terms: Sequence[tuple[Sequence[int], Sequence[int], Sequence[int]]], n: int
) -> list[int]:
    """Coefficients 0..n of the sum over ``terms`` (starts, polynomial
    degrees, exterior degrees) of sum_{a in starts} t^a prod_d 1/(1 - t^d)
    prod_e (1 + t^e).  Every term has a start, every start is at most n and
    every degree at least 1.

    The sum lives in one integer, a slot of w bytes per degree.  A term
    begins as its t^a and takes each factor 1 + t^s as one masked shift-add
    x += (x << 8 w s) & full: 1/(1 - t^d) as its doublings 1 + t^(d 2^j) up
    to the term's span, n - min(starts), and each 1 + t^e as one.  The terms
    are added up and one ``_unpack`` reads the slots.  Every factor is nonnegative with constant
    term 1, so no step takes a slot past its final value and no slot
    carries, and w is fixed before any step: a term's coefficient is at most
    |starts| 2^|exterior| prod (span // d + 1) over its polynomial degrees
    but the smallest, whose exponent the others fix.

    >>> _sparse_product([((0,), (1, 1), ())], 4), _sparse_product([((1, 2), (), (1,))], 4)
    ([1, 2, 3, 4, 5], [0, 1, 2, 1, 0])
    """
    bound = 0
    for starts, polynomial, exterior in terms:
        span = n - min(starts)
        sizes = sorted(span // d + 1 for d in polynomial)[:-1]
        bound += (len(starts) << len(exterior)) * prod(sizes)
    bits = 8 * ((bound.bit_length() + 7) // 8)
    full = (1 << bits * (n + 1)) - 1
    total = 0
    for starts, polynomial, exterior in terms:
        span = n - min(starts)
        x = sum(1 << bits * a for a in starts)
        for d in polynomial:
            while d <= span:
                x += (x << bits * d) & full
                d *= 2
        for e in exterior:
            x += (x << bits * e) & full
        total += x
    return _unpack(total, bits // 8, n + 1)


# Spans this short are solved term by term in one list, each term one dot
# product of the list, newest first, with c_1, c_2, ...; above it the
# Kronecker product of the halves is cheaper than the quadratic sums it
# replaces.
_LEAF = 64


def _solve(a: list[int], acc: list[int], c: list[int], lo: int, hi: int) -> None:
    """Fill a[lo:hi] from n a_n = sum_k c_k a_{n-k}, given a[:lo] and, in
    acc[lo:hi], the part of each sum over the terms a_j with j < lo.

    A span of at most ``_LEAF`` terms is a leaf: it keeps the terms it has
    solved in one list, seeded with a_0 when lo = 0, and dots the list's
    reversal against c[1:hi - lo], sliced once per leaf, so no degree
    slices ``a`` or ``c``."""
    if hi - lo <= _LEAF:
        start = max(lo, 1)
        leaf, tail = a[lo:start], c[1:hi - lo]
        for m in range(start, hi):
            total = acc[m] + sum(map(mul, reversed(leaf), tail))
            term, rest = divmod(total, m)
            if rest:
                raise VerificationError(
                    f"Euler transform: {total} in degree {m} is not divisible by {m}"
                )
            leaf.append(term)
        a[lo:hi] = leaf
        return
    mid = (lo + hi) // 2
    _solve(a, acc, c, lo, mid)
    # The terms a_j, lo <= j < mid, of the sums for mid <= m < hi.
    part = _kronecker(a[lo:mid], c[: hi - lo], mid - lo, hi - lo)
    acc[mid:hi] = map(add, acc[mid:hi], part)
    _solve(a, acc, c, mid, hi)
