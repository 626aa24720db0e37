"""Exact arithmetic on integer power series truncated at a fixed degree.

Coefficients are plain Python ints, so nothing ever overflows.  The
truncation degree is part of the value and every binary operation insists
that both operands carry the same one; degree bookkeeping mistakes fail
loudly instead of silently re-truncating.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import accumulate, repeat
from operator import add, mul

from .value import Value

# Annotations are not evaluated, so "Generator" names free_algebra.Generator
# without importing that module, which imports this one.

# Generator kinds: of degree d, a polynomial one gives 1/(1 - t^d), an exterior one 1 + t^d.
POLYNOMIAL = "polynomial"
EXTERIOR = "exterior"
KINDS = (POLYNOMIAL, EXTERIOR)


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

    __mul__ = mul

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

    __truediv__ = div


def _kronecker(a: Sequence[int], b: Sequence[int], start: int, stop: int) -> list[int]:
    """Coefficients ``start`` to ``stop`` - 1 of the product of the
    polynomials with coefficient lists ``a`` and ``b``, by Kronecker
    substitution.

    Each operand becomes the one integer sum(c_i X^i) at X = 2^(8w), the two
    integers are multiplied once, and slots of w bytes are read back.  Every
    product coefficient is a sum of at most min(len(a), len(b)) terms, so
    |c| < 2^(bits(max|a|) + bits(max|b|) + bits(min(len(a), len(b)))).  When
    both operands are nonnegative, so is every c, and slots of that many bits
    hold them as they are; otherwise one more bit lets each slot hold
    c + 2^(8w - 1) without carrying into the next.
    """
    terms = min(len(a), len(b)).bit_length()
    size = stop - start
    if not (any(map((0).__gt__, b)) or any(map((0).__gt__, a))):
        w = (max(a).bit_length() + max(b).bit_length() + terms + 7) // 8
        raw = _slots(_pack(a, w) * _pack(b, w), w, start, stop)
        return [int.from_bytes(raw[i:i + w], "little") for i in range(0, w * size, w)]
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + terms + 1
    w = (bits + 7) // 8
    # With 2^(8w-1) added to each of the low ``stop`` slots, each holds
    # c + 2^(8w-1), in [0, 2^(8w)); the mask in ``_slots`` keeps those slots
    # whatever the sign of the discarded high part.
    product = _pack_signed(a, w) * _pack_signed(b, w) + _offsets(stop, w)
    raw = _slots(product, w, start, stop)
    half = 1 << (8 * w - 1)
    return [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, w * size, w)]


def _slots(x: int, w: int, start: int, stop: int) -> bytes:
    """Slots ``start`` to ``stop`` - 1 of w bytes each of ``x``, little-endian."""
    size = w * (stop - start)
    return ((x >> (8 * w * start)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")


def _offsets(count: int, w: int) -> int:
    """2^(8w - 1) in each of ``count`` slots of w bytes."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * count, "little")


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


def _check_factor(d: int, kind: str) -> None:
    """Raise ValueError unless degree d and ``kind`` name a generator's factor."""
    if d < 1:
        raise ValueError(f"generator degree must be >= 1, got {d}")
    if kind not in KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")


def _apply_factor(c: list[int], d: int, kind: str) -> None:
    """Divide ``c`` in place by 1/(1 - t^d) or (1 + t^d) in one pass of
    ``c[i] -= c[i - d]``, bottom up for (1 + t^d), whose terms see new ones."""
    _check_factor(d, kind)
    n = len(c) - 1
    for i in range(d, n + 1) if kind == EXTERIOR else range(n, d - 1, -1):
        c[i] -= c[i - d]


def multiply_over_generators(
    series: TruncatedSeries, gens: Iterable["Generator"]
) -> TruncatedSeries:
    """``series`` times the series of the free graded-commutative algebra on
    ``gens``: the forward twin of ``quotient_over_generators``, sharing no
    pass with it.  A polynomial factor 1/(1 - t^d) is a prefix sum along each
    residue class mod d, one ``accumulate`` per class when d*d <= N, else
    each block of d terms added onto the one below, so at most sqrt(N) steps
    in Python; an exterior factor (1 + t^d) is one shifted add.  Both leave
    the series as it is when d > N."""
    c = list(series.coefficients)
    n = len(c) - 1
    for g in gens:
        d, kind = g.degree, g.kind
        _check_factor(d, kind)
        if kind == EXTERIOR:
            c[d:] = map(add, c[d:], c[:-d])
        elif d * d <= n:
            for r in range(d):
                c[r::d] = accumulate(c[r::d])
        else:
            for k in range(d, n + 1, d):
                c[k:k + d] = map(add, c[k:k + d], c[k - d:k])
    return TruncatedSeries(n, tuple(c))


def product_over_generators(
    gens: Iterable["Generator"], truncation_degree: int
) -> TruncatedSeries:
    """Dimension series of the free graded-commutative algebra on ``gens``,
    ``multiply_over_generators`` applied to 1."""
    return multiply_over_generators(TruncatedSeries.one(truncation_degree), gens)


def quotient_over_generators(
    series: TruncatedSeries, gens: Iterable["Generator"]
) -> TruncatedSeries:
    """``series`` divided by ``product_over_generators(gens, N)``, the
    exact inverse of that product.

    Each generator of degree d <= N is undone by one O(N) pass: a
    polynomial one by multiplying with (1 - t^d), an exterior one by
    dividing by (1 + t^d).  Validation is that of the product.

    >>> from versalp.free_algebra import Generator
    >>> gens = [Generator("x", 1, "polynomial"), Generator("y", 2, "exterior")]
    >>> f = product_over_generators(gens, 4)
    >>> quotient_over_generators(f, gens) == TruncatedSeries.one(4)
    True
    """
    c = list(series.coefficients)
    for g in gens:
        _apply_factor(c, g.degree, g.kind)
    return TruncatedSeries(series.truncation_degree, tuple(c))


def _fold_counts(polynomial: list[int], exterior: list[int]) -> TruncatedSeries:
    """Dimension series, through degree N, of the free graded-commutative
    algebra with polynomial[d] polynomial and exterior[d] exterior
    generators of each degree d; both lists have length N + 1 and their
    entries at degree 0 are ignored.

    b polynomial generators of degree d contribute 1/(1 - t^d)^b, b exterior
    ones (1 + t^d)^b.  The product a is an Euler transform: its logarithmic
    derivative gives n a_n = sum_{k=1..n} c_k a_{n-k}, where c_k sums d b
    over the degrees d dividing k, with the sign (-1)^(k/d + 1) for exterior
    ones.  That recurrence is solved as an online convolution, divide and
    conquer over Kronecker products (``_solve``), in O(M(N) log N) for M the
    cost of one N-term product.  Every a_n must come out of an exact
    division by n; a remainder raises VerificationError.

    >>> _fold_counts([0, 2, 0, 0, 0], [0, 0, 1, 0, 0]).coefficients
    (1, 2, 4, 6, 8)
    """
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


# Spans this short are solved term by term; above it the Kronecker product
# of the halves is cheaper than the quadratic sums it replaces.
_LEAF = 64


def _solve(a: list[int], acc: list[int], c: list[int], lo: int, hi: int) -> None:
    """Fill a[lo:hi] from n a_n = sum_k c_k a_{n-k}, given a[:lo] and, in
    acc[lo:hi], the part of each sum over the terms a_j with j < lo."""
    if hi - lo <= _LEAF:
        for m in range(max(lo, 1), hi):
            total = acc[m] + sum(map(mul, a[lo:m], c[m - lo:0:-1]))
            a[m], rest = divmod(total, m)
            if rest:
                raise VerificationError(
                    f"Euler transform: {total} in degree {m} is not divisible by {m}"
                )
        return
    mid = (lo + hi) // 2
    _solve(a, acc, c, lo, mid)
    # The terms a_j, lo <= j < mid, of the sums for mid <= m < hi.
    part = _kronecker(a[lo:mid], c[: hi - lo], mid - lo, hi - lo)
    acc[mid:hi] = map(add, acc[mid:hi], part)
    _solve(a, acc, c, mid, hi)
