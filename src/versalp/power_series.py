"""Exact arithmetic on integer power series truncated at a fixed degree.

Coefficients are plain Python ints, so nothing ever overflows.  The
truncation degree is part of the value and every binary operation insists
that both operands carry the same one; degree bookkeeping mistakes fail
loudly instead of silently re-truncating.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from operator import add
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .free_algebra import Generator


@dataclass(frozen=True)
class TruncatedSeries:
    """c_0 + c_1 t + ... + c_N t^N with N = truncation_degree.

    >>> TruncatedSeries.from_coefficients([1], 3).coefficients
    (1, 0, 0, 0)
    >>> f = TruncatedSeries.from_coefficients([1, 1], 2)
    >>> g = TruncatedSeries.from_coefficients([1, -1], 2)
    >>> f.mul(g).coefficients
    (1, 0, -1)
    """

    truncation_degree: int
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.truncation_degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        if not isinstance(self.coefficients, tuple):
            object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if len(self.coefficients) != self.truncation_degree + 1:
            raise ValueError(
                f"need exactly {self.truncation_degree + 1} coefficients, "
                f"got {len(self.coefficients)}"
            )

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
        """Cauchy product, terms above the truncation degree discarded.

        Computed by Kronecker substitution: each operand becomes the one
        integer sum(c_i X^i) at X = 2^(8w), the two integers are multiplied
        once, and the low N + 1 slots of w bytes are read back.  Every
        product coefficient is a sum of at most N + 1 terms, so
        |c| < 2^(bits(max|a|) + bits(max|b|) + bits(N + 1)); one more bit
        lets each slot hold c + 2^(8w - 1) without carrying into the next.
        """
        self._check_compatible(other)
        n = self.truncation_degree
        a, b = self.coefficients, other.coefficients
        bits = (
            max(map(abs, a)).bit_length()
            + max(map(abs, b)).bit_length()
            + (n + 1).bit_length()
            + 1
        )
        w = (bits + 7) // 8
        size = w * (n + 1)
        # With 2^(8w-1) added to every slot, each low slot holds c + 2^(8w-1),
        # in [0, 2^(8w)); the mask keeps those N + 1 slots whatever the sign
        # of the discarded high part.
        bias = int.from_bytes((bytes(w - 1) + b"\x80") * (n + 1), "little")
        low = (_pack(a, w) * _pack(b, w) + bias) & ((1 << (8 * size)) - 1)
        raw = low.to_bytes(size, "little")
        half = 1 << (8 * w - 1)
        return TruncatedSeries(n, tuple(
            int.from_bytes(raw[i:i + w], "little") - half for i in range(0, size, w)
        ))

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


def _pack(coeffs: Sequence[int], w: int) -> int:
    """sum(c_i 2^(8 w i)) for signed c_i with |c_i| < 2^(8w): the slots of
    the positive coefficients less the slots of the negative ones."""
    pos = b"".join((c if c > 0 else 0).to_bytes(w, "little") for c in coeffs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(w, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def product_over_generators(
    gens: Iterable["Generator"], truncation_degree: int
) -> TruncatedSeries:
    """Dimension series of the free graded-commutative algebra on ``gens``.

    A polynomial generator of degree d contributes the factor 1/(1 - t^d),
    an exterior one the factor (1 + t^d); generators above the truncation
    degree contribute 1.  Generators are tallied by (degree, kind) and the
    tally is folded by ``product_over_counts``, which agrees with iterated
    ``mul`` of the factor series.
    """
    tally = Counter((g.degree, g.kind) for g in gens)
    return product_over_counts(
        ((d, kind, b) for (d, kind), b in tally.items()), truncation_degree
    )


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
    n = series.truncation_degree
    c = list(series.coefficients)
    for g in gens:
        d, kind = g.degree, g.kind
        if d < 1:
            raise ValueError(f"generator degree must be >= 1, got {d}")
        if kind == "polynomial":
            for i in range(n, d - 1, -1):
                c[i] -= c[i - d]
        elif kind == "exterior":
            for i in range(d, n + 1):
                c[i] -= c[i - d]
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
    return TruncatedSeries(n, tuple(c))


def product_over_counts(
    counts: Iterable[tuple[int, str, int]], truncation_degree: int
) -> TruncatedSeries:
    """Dimension series of the free graded-commutative algebra with
    ``multiplicity`` generators of each ``(degree, kind, multiplicity)``.

    b polynomial generators of degree d contribute 1/(1 - t^d)^b, whose
    coefficient of t^(d m) is C(b + m - 1, m); b exterior ones contribute
    (1 + t^d)^b, with C(b, m).  Each degree is folded in place in whichever
    way costs fewer multiply-adds for its d and b: b passes of the single
    factor, or one convolution with the binomial coefficients.

    >>> product_over_counts([(1, "polynomial", 2), (2, "exterior", 1)], 4).coefficients
    (1, 2, 4, 6, 8)
    """
    n = truncation_degree
    c = [0] * (n + 1)
    c[0] = 1
    for d, kind, b in counts:
        if d < 1:
            raise ValueError(f"generator degree must be >= 1, got {d}")
        if b < 0:
            raise ValueError(f"generator multiplicity must be >= 0, got {b}")
        if d > n:
            continue
        if kind == "polynomial":
            terms = n // d
        elif kind == "exterior":
            terms = min(n // d, b)
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
        # A pass is one add per degree d..N; the convolution's m-th term
        # is one multiply-add per degree d*m..N.
        passes = b * (n - d + 1)
        convolution = terms * (n + 1) - d * terms * (terms + 1) // 2
        if convolution < passes:
            _convolve_binomial(c, d, kind, b, terms)
        else:
            for _ in range(b):
                _apply_factor(c, d, kind)
    return TruncatedSeries(n, tuple(c))


def _apply_factor(c: list[int], d: int, kind: str) -> None:
    """Multiply ``c`` in place by 1/(1 - t^d) or by (1 + t^d)."""
    n = len(c) - 1
    if kind == "polynomial":
        for i in range(d, n + 1):
            c[i] += c[i - d]
    else:
        for i in range(n, d - 1, -1):
            c[i] += c[i - d]


def _convolve_binomial(c: list[int], d: int, kind: str, b: int, terms: int) -> None:
    """Multiply ``c`` in place by the first ``terms`` + 1 terms in t^d of
    (1 - t^d)^-b or (1 + t^d)^b, which are all of them through degree N."""
    n = len(c) - 1
    old = c[:]
    for m in range(1, terms + 1):
        k = comb(b + m - 1, m) if kind == "polynomial" else comb(b, m)
        shift = d * m
        c[shift:] = map(add, c[shift:], map(k.__mul__, old[: n + 1 - shift]))
