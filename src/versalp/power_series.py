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
        """Cauchy product, terms above the truncation degree discarded."""
        self._check_compatible(other)
        n = self.truncation_degree
        out = [0] * (n + 1)
        b = other.coefficients
        for i, a_i in enumerate(self.coefficients):
            if a_i:
                for j in range(n + 1 - i):
                    out[i + j] += a_i * b[j]
        return TruncatedSeries(n, tuple(out))

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
