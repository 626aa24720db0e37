"""Deliberately naive reference implementations used as test oracles.

Nothing here shares code with the package: multiplication is a full
convolution of lists, free-algebra series are folds of explicit factor
series, word enumeration tries every composition and filters, and monomial
listing tries every exponent vector and filters.
"""

import itertools


def naive_mul(a, b):
    """Full convolution of equal-length coefficient lists, then truncate."""
    n = len(a) - 1
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def naive_factor(degree, kind, n):
    """Coefficient list of 1/(1 - t^d) or (1 + t^d) through degree n."""
    out = [0] * (n + 1)
    if kind == "polynomial":
        for i in range(0, n + 1, degree):
            out[i] = 1
    else:
        out[0] = 1
        if degree <= n:
            out[degree] = 1
    return out


def naive_series(triples, n):
    """Fold naive factors over (degree, kind) data."""
    acc = [1] + [0] * n
    for degree, kind in triples:
        acc = naive_mul(acc, naive_factor(degree, kind, n))
    return acc


def brute_monomials(triples, n):
    """Exponent vectors over (degree, kind) generators, one list per degree
    0..n, each sorted in descending lexicographic order."""
    ranges = [
        range(2) if kind == "exterior" else range(n // degree + 1)
        for degree, kind in triples
    ]
    buckets = [[] for _ in range(n + 1)]
    for vector in itertools.product(*ranges):
        total = sum(e * degree for e, (degree, _) in zip(vector, triples))
        if total <= n:
            buckets[total].append(vector)
    return [sorted(bucket, reverse=True) for bucket in buckets]


def _compositions(parts, budget, prefix=(), weight=0):
    """All nonempty tuples over ``parts`` with total weight <= budget."""
    for part, w in parts:
        if weight + w > budget:
            continue
        grown = prefix + (part,)
        yield grown
        yield from _compositions(parts, budget, grown, weight + w)

def brute_words_p2(n, budget):
    """Admissible p=2 words with excess > n, by filtering every composition."""
    parts = [(i, i) for i in range(1, budget + 1)]
    keep = []
    for w in _compositions(parts, budget):
        if any(w[j] > 2 * w[j + 1] for j in range(len(w) - 1)):
            continue
        if 2 * w[0] - sum(w) > n:
            keep.append(w)
    return sorted(keep)


def brute_words_odd(p, n, budget):
    """Odd-p analogue over the (eps, s) alphabet."""
    parts = []
    for eps in (0, 1):
        s = 1
        while 2 * s * (p - 1) - eps <= budget:
            parts.append(((eps, s), 2 * s * (p - 1) - eps))
            s += 1
    keep = []
    for w in _compositions(parts, budget):
        if any(
            w[j][1] > p * w[j + 1][1] - w[j + 1][0] for j in range(len(w) - 1)
        ):
            continue
        excess = 2 * w[0][1] - sum(2 * s * (p - 1) + eps for eps, s in w[1:])
        if excess > n:
            keep.append(w)
    return sorted(keep)
