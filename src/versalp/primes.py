"""Small prime utilities shared by the enumeration modules."""

# Miller-Rabin on the first 13 primes as bases is exact below PRIME_LIMIT
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017); above it no answer is given.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for n < PRIME_LIMIT, in a few dozen
    modular exponentiations whatever the size of n.

    >>> [k for k in range(20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {PRIME_LIMIT}, got {n}")
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    return p
