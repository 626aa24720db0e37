"""Deliberately naive reference implementations used as test oracles.

Nothing here shares code with the package: multiplication is a full
convolution of lists, free-algebra series are folds of explicit factor
series, word enumeration tries every composition and filters, and monomial
listing tries every exponent vector and filters, Milnor generator degrees
are found by testing every degree for membership; CSV is written by the
standard library's ``csv`` writer from a report's fields.  Two quadratic algorithms
the package once used serve as references at degrees in the thousands,
where the naive ones cannot go: dynamic programs that count generator words
per degree, and a fold of generator counts factor by factor.
"""

import csv
import io
import itertools
from math import comb
from operator import add


def trial_division_is_prime(n):
    """Whether n is prime, by trying every divisor up to its square root."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def dp_degree_counts(p, gen_degree, max_degree):
    """counts[d] is the number of generator words over a class of degree
    ``gen_degree`` in total degree d, the empty word included, by a dynamic
    program over the left extensions of the word search."""
    counts = [0] * (max_degree + 1)
    if gen_degree <= max_degree:
        budget = max_degree - gen_degree
        words = _dp_words_p2(gen_degree, budget) if p == 2 else (
            _dp_words_odd(p, gen_degree, budget))
        counts[gen_degree:] = words
        counts[gen_degree] += 1
    return counts


def _dp_words_p2(n, budget):
    """counts[w] is the number of admissible p=2 words of excess > n and
    word degree w.  A word of degree w with head i is i prepended to a
    qualifying word of degree s = w - i whose head h has i <= 2*h, and
    i >= s + n + 1; ``at_least[s][m]`` counts the qualifying words of
    degree s with head >= m."""
    counts = [0] * (budget + 1)
    at_least = [None] * (budget + 1)
    for w in range(n + 1, budget + 1):
        heads = [0] * (w + 1)
        heads[w] = 1  # the one-entry word (w,)
        # 2*i >= w + n + 1 from the excess, s = w - i >= n + 1 for a tail
        for i in range((w + n + 2) // 2, w - n):
            tails = at_least[w - i]
            m = (i + 1) // 2
            if m < len(tails):
                heads[i] = tails[m]
        at_least[w] = list(itertools.accumulate(reversed(heads)))[::-1]
        counts[w] = at_least[w][0]
    return counts


def _dp_words_odd(p, n, budget):
    """counts[w] is the number of admissible odd-p words of excess > n and
    word degree w.  The excess tail sum of a word is its word degree plus
    twice its number of Bocksteins, and its head (eps, s) admits a new head
    s_0 <= p*s - eps; so ``states[w][b][cap]`` counts the words of word
    degree w with b Bocksteins and cap = p*s - eps."""
    counts = [0] * (budget + 1)
    states = [{} for _ in range(budget + 1)]

    def put(w, b, cap, k):
        caps = states[w].setdefault(b, {})
        caps[cap] = caps.get(cap, 0) + k

    step = 2 * (p - 1)
    for eps in (0, 1):
        s = n // 2 + 1
        while step * s - eps <= budget:
            put(step * s - eps, eps, p * s - eps, 1)
            s += 1
    for w in range(1, budget + 1):
        for b, caps in states[w].items():
            counts[w] += sum(caps.values())
            s_lo = (w + 2 * b + n) // 2 + 1
            s_hi = min(max(caps), (budget - w + 1) // step)
            ordered = sorted(caps.items(), reverse=True)
            j = admitting = 0
            for s0 in range(s_hi, s_lo - 1, -1):
                while j < len(ordered) and ordered[j][0] >= s0:
                    admitting += ordered[j][1]
                    j += 1
                for eps0 in (0, 1):
                    w0 = w + step * s0 - eps0
                    if w0 <= budget:
                        put(w0, b + eps0, p * s0 - eps0, admitting)
    return counts


def factor_fold(triples, n):
    """Coefficients through degree n of the product of (1 - t^d)^-b over
    the polynomial and (1 + t^d)^b over the exterior (d, kind, b) triples,
    one degree at a time: b passes of the single factor, or one convolution
    with the binomial coefficients, whichever takes fewer multiply-adds."""
    c = [1] + [0] * n
    for d, kind, b in triples:
        if d > n:
            continue
        terms = n // d if kind == "polynomial" else min(n // d, b)
        passes = b * (n - d + 1)
        convolution = terms * (n + 1) - d * terms * (terms + 1) // 2
        if convolution < passes:
            old = c[:]
            for m in range(1, terms + 1):
                k = comb(b + m - 1, m) if kind == "polynomial" else comb(b, m)
                shift = d * m
                c[shift:] = map(add, c[shift:], map(k.__mul__, old[: n + 1 - shift]))
        elif kind == "polynomial":
            for _ in range(b):
                for i in range(d, n + 1):
                    c[i] += c[i - d]
        else:
            for _ in range(b):
                for i in range(n, d - 1, -1):
                    c[i] += c[i - d]
    return c


def _is_power(m, p, least_exponent):
    """Whether m = p^i for some i >= least_exponent."""
    i = 0
    while m > 1 and m % p == 0:
        m, i = m // p, i + 1
    return m == 1 and i >= least_exponent


def milnor_degrees_by_membership(p, n):
    """(degree, kind) of each Milnor generator of degree <= n, in degree
    order, by testing every d <= n: at p = 2, d = 2^i - 1 with i >= 1 is a
    polynomial xi; at odd p, d = 2(p^i - 1) with i >= 1 is a polynomial xi
    and d = 2 p^i - 1 with i >= 0 an exterior tau."""
    out = []
    for d in range(1, n + 1):
        if p == 2:
            if _is_power(d + 1, 2, 1):
                out.append((d, "polynomial"))
        elif d % 2 == 0:
            if _is_power(d // 2 + 1, p, 1):
                out.append((d, "polynomial"))
        elif _is_power((d + 1) // 2, p, 0):
            out.append((d, "exterior"))
    return out


def csv_reference(report, basis=None):
    """A CLI report's CSV form written by ``csv.writer``, one row per degree
    and monomial, witness part, scalar, verdict or coefficient: the monomial
    rows from the names of ``basis``, a ``MonomialBasis``, the others from
    the report's fields."""
    if report.verdicts is not None:
        header = ("check", "passed")
        rows = [(v.name, str(v.passed).lower()) for v in report.verdicts]
    elif report.witness is not None:
        header = ("name", "value")
        sources = [m.render() for m in report.witness.source_monomials]
        rows = [(f"source_{i + 1}", s) for i, s in enumerate(sources)]
        rows.append(("image", report.witness.image))
    elif report.scalar_name is not None:
        header = ("name", "value")
        rows = [(report.scalar_name, report.series[0])]
    elif basis is not None:
        header = ("degree", "monomial")
        rows = [(d, s) for d, bucket in enumerate(basis.names) for s in bucket]
    else:
        header = ("degree", "coefficient")
        rows = list(enumerate(report.series))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
