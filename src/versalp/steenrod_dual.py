"""Generator degrees of the mod-p dual Steenrod algebra up to a degree bound.

At p = 2 the algebra is polynomial on xi_i of degree 2^i - 1 (i >= 1).
At odd p it is polynomial on xi_i of degree 2(p^i - 1) (i >= 1) tensored
with an exterior algebra on tau_i of degree 2 p^i - 1 (i >= 0).
"""

from __future__ import annotations

from itertools import count, takewhile

from .free_algebra import EXTERIOR, POLYNOMIAL, Generator, GeneratorSet
from .primes import require_prime


def milnor_degrees(p: int, max_degree: int) -> tuple[list[int], list[int]]:
    """(xi degrees, tau degrees) up to ``max_degree``, each ascending in i.

    >>> milnor_degrees(2, 8), milnor_degrees(3, 20)
    (([1, 3, 7], []), ([4, 16], [1, 5, 17]))
    """
    require_prime(p)
    if max_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {max_degree}")
    xi = (2**i - 1 if p == 2 else 2 * (p**i - 1) for i in count(1))
    tau = () if p == 2 else (2 * p**i - 1 for i in count(0))
    return list(takewhile(max_degree.__ge__, xi)), list(takewhile(max_degree.__ge__, tau))


def milnor_generator_rows(p: int, max_degree: int) -> list[tuple[int, str, str]]:
    """``milnor_degrees`` as sorted (degree, label, kind) rows, labelled
    xi_1, xi_2, ... and tau_0, tau_1, ... for the ``steenrod`` listing.  The
    degrees are distinct (at odd p the xi ones even, the tau ones odd), so
    the order is the degree order.

    >>> milnor_generator_rows(3, 5)
    [(1, 'tau_0', 'exterior'), (4, 'xi_1', 'polynomial'), (5, 'tau_1', 'exterior')]
    """
    xi, tau = milnor_degrees(p, max_degree)
    return sorted([(d, f"xi_{i}", POLYNOMIAL) for i, d in enumerate(xi, 1)]
                  + [(d, f"tau_{i}", EXTERIOR) for i, d in enumerate(tau)])


def milnor_generator_degrees(p: int, max_degree: int) -> GeneratorSet:
    """``milnor_generator_rows`` as a ``GeneratorSet``."""
    rows = milnor_generator_rows(p, max_degree)
    return GeneratorSet(Generator(label, d, kind) for d, label, kind in rows)
