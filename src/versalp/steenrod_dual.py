"""Generator data of the mod-p dual Steenrod algebra up to a degree bound.

At p = 2 the algebra is polynomial on xi_i of degree 2^i - 1 (i >= 1).
At odd p it is polynomial on xi_i of degree 2(p^i - 1) (i >= 1) tensored
with an exterior algebra on tau_i of degree 2 p^i - 1 (i >= 0).
"""

from __future__ import annotations

from .free_algebra import EXTERIOR, POLYNOMIAL, Generator, GeneratorSet
from .primes import require_prime


def milnor_generator_degrees(p: int, max_degree: int) -> GeneratorSet:
    """The Milnor generators xi_i and tau_i of degree <= max_degree.

    Their degrees are distinct (at odd p the xi degrees are even and the tau
    degrees odd), so the set's (degree, label) order is the degree order."""
    require_prime(p)
    if max_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {max_degree}")
    if p == 2:
        families = (("xi", 1, POLYNOMIAL, lambda i: 2**i - 1),)
    else:
        families = (("xi", 1, POLYNOMIAL, lambda i: 2 * (p**i - 1)),
                    ("tau", 0, EXTERIOR, lambda i: 2 * p**i - 1))
    out = []
    for family, i, kind, degree in families:
        while degree(i) <= max_degree:
            out.append(Generator(f"{family}_{i}", degree(i), kind))
            i += 1
    return GeneratorSet(tuple(out))
