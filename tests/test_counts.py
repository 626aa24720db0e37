"""Series from generator counts: the closed-form counts against word
enumeration and the counting dynamic program; both paths of the fold, the
Euler transform and the packed product of factors grouped by shift, against
naive factor products, the oracle's factor fold and each other (across every
leaf boundary of the Euler transform, whose products are counted too), the
rule that picks between them, and the packed product's headroom rule; the
series either path reads from the counts with given degrees taken out,
before their factors, against the quotient by them, and the fold's refusal
when a degree holds too few generators; and the homotopy quotient far above
the enumeration oracles' degree caps."""

from math import comb

import pytest
from hypothesis import example, given, strategies as st

from versalp import cli, dyer_lashof, power_series, versal
from versalp.dyer_lashof import generator_degree_counts, generator_series, generator_words
from versalp.power_series import (
    TruncatedSeries, VerificationError, _fold_counts, _fold_euler, _fold_factors,
)
from versalp.steenrod_dual import milnor_degrees
from versalp.versal import homology_series, homotopy_report, homotopy_series, steenrod_series

from oracles import (
    dp_degree_counts, factor_fold, milnor_degrees_by_membership, naive_series,
    quotient_over_generators, trial_division_is_prime, word_degree,
)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("gen_degree", [1, 2, 3])
def test_counts_are_the_degree_histogram_of_the_words(p, gen_degree):
    for n in sorted({0, gen_degree - 1, gen_degree, 200}):
        histogram = [0] * (n + 1)
        for w in generator_words(p, gen_degree, n):
            histogram[gen_degree + word_degree(p, w)] += 1
        assert generator_degree_counts(p, gen_degree, n) == histogram, (p, gen_degree, n)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("gen_degree", [1, 2, 3])
def test_counts_equal_the_dynamic_program_at_degree_1000(p, gen_degree):
    assert generator_degree_counts(p, gen_degree, 1000) == dp_degree_counts(p, gen_degree, 1000)


# Every prime below 2,010: above 2,003 the only Milnor degree up to the
# CLI's limit, 4,000, is tau_0 = 1, which a fills.
@pytest.mark.parametrize("p", filter(trial_division_is_prime, range(2010)))
def test_every_milnor_degree_has_a_generator_of_its_kind(p):
    # Taking one generator away at each Milnor degree leaves no count
    # negative, so no report reaches the fold's refusal.
    counts = {(d, kind): b for d, kind, b in _profile(p, 4000)}
    if p <= 13:
        milnor = milnor_degrees_by_membership(p, 4000)
    else:
        xi, tau = milnor_degrees(p, 4000)
        milnor = [(d, "polynomial") for d in xi] + [(d, "exterior") for d in tau]
    for d, kind in milnor:
        assert counts.get((d, kind), 0) >= 1, (d, kind)


@pytest.mark.parametrize("p", [2011, 1_000_003])
def test_above_2003_a_fills_the_only_milnor_degree_up_to_4000(p):
    assert milnor_degrees(p, 4000) == ([], [1])
    assert generator_degree_counts(p, 1, 4000)[1] == 1


def test_counts_reject_what_the_words_reject():
    for args in ((4, 1, 5), (2, 0, 5), (3, 1, -1)):
        with pytest.raises(ValueError):
            generator_words(*args)
        with pytest.raises(ValueError):
            generator_degree_counts(*args)


@st.composite
def count_profile(draw):
    """A truncation degree and (degree, kind, multiplicity) triples: degrees
    may repeat or exceed N, and multiplicities run from 0 past N // degree."""
    n = draw(st.integers(min_value=0, max_value=20))
    triples = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        degree = draw(st.integers(min_value=1, max_value=n + 3))
        kind = draw(st.sampled_from(["polynomial", "exterior"]))
        multiplicity = draw(st.integers(min_value=0, max_value=2 * (n // degree) + 3))
        triples.append((degree, kind, multiplicity))
    return n, triples


def fold(triples, n, kernel=_fold_counts):
    """The fold over (degree, kind, multiplicity) triples: multiplicities
    summed into one array per kind indexed by degree 0..n, degrees above n
    left out."""
    arrays = {"polynomial": [0] * (n + 1), "exterior": [0] * (n + 1)}
    for d, kind, b in triples:
        if d <= n:
            arrays[kind][d] += b
    return kernel(arrays["polynomial"], arrays["exterior"])


# In ``_fold_factors``: the third example groups 7 factors 1 + t^2 and 5 of
# 1 + t^3, each more than N // s, into binomial sums; in the fourth, (1 + t)^7
# leaves slots below 2^6, so the 9 shift-adds by t^2 need exactly the 10 top
# bits that two-byte slots have clear.  The last four start from the band
# above N/3 = 4: (1 + t^4)^3 is a group, whose cube reaches t^12, beside the
# band's t^5 and t^10 from two polynomial generators of degree 5; 2s = N puts
# C(3, 2) t^12 in the top slot; e_s > 1 at three shifts of the band; and 256
# factors 1 + t^6 make the top slot of A^2 2^16, which needs a third byte.
@given(count_profile())
@example((12, [(1, "polynomial", 20), (2, "polynomial", 1)]))
@example((12, [(1, "exterior", 9), (5, "exterior", 1), (3, "polynomial", 3)]))
@example((12, [(3, "exterior", 5), (2, "polynomial", 7)]))
@example((18, [(1, "exterior", 7), (2, "exterior", 9)]))
@example((12, [(4, "exterior", 3), (5, "polynomial", 2)]))
@example((12, [(6, "exterior", 3)]))
@example((15, [(7, "polynomial", 4), (8, "exterior", 5), (1, "exterior", 2)]))
@example((12, [(6, "exterior", 256)]))
def test_fold_equals_naive_product_of_expanded_factors(profile):
    n, triples = profile
    expanded = [(d, kind) for d, kind, b in triples for _ in range(b)]
    expected = naive_series(expanded, n)
    for kernel in (_fold_counts, _fold_euler, _fold_factors):
        assert list(fold(triples, n, kernel).coefficients) == expected, kernel.__name__


@given(count_profile(), st.data())
@example((12, [(1, "exterior", 3), (2, "polynomial", 2), (5, "polynomial", 1)]), None)
def test_the_fold_over_degrees_that_hold_a_generator_is_the_quotient(profile, data):
    # Any degrees that hold a generator of their kind, each listed at most as
    # often as it holds one: the series read before their factors is the
    # quotient.
    n, triples = profile
    pool = sorted((d, kind) for d, kind, b in triples if d <= n for _ in range(b))
    if data and pool:
        picks = data.draw(st.lists(st.sampled_from(range(len(pool))), unique=True))
        pool = [pool[i] for i in picks]
    over = tuple([d for d, kind in pool if kind == k] for k in ("polynomial", "exterior"))
    series, reduced = fold(triples, n, lambda *arrays: _fold_counts(*arrays, over))
    assert series == fold(triples, n)
    assert list(reduced.coefficients) == quotient_over_generators(series.coefficients, *over)


# Arrays from test_the_rule_counts_the_doublings_up_to_n_over_2, one on each
# side of the rule: a degree listed twice takes two generators out of the
# counts, and with one generator too few the fold refuses.
@pytest.mark.parametrize("extra,path", [(0, "factors"), (1, "euler")])
def test_a_degree_listed_twice_takes_out_two_generators(monkeypatch, extra, path):
    polynomial, exterior = [0] * 11, [0] * 11
    polynomial[1], polynomial[2], polynomial[3], polynomial[6] = 198, 2, 2 + extra, 50
    exterior[1], exterior[5] = 400, 50
    over = ([1, 1, 3, 6], [5, 5, 1])
    taken, (series, reduced) = kernel_taken(
        monkeypatch, lambda: _fold_counts(polynomial, exterior, over))
    assert taken == [path]
    assert series == _fold_counts(polynomial, exterior)
    assert list(reduced.coefficients) == quotient_over_generators(series.coefficients, *over)
    exterior[5] = 1
    with pytest.raises(VerificationError, match="^no exterior generator left in degree 5 "):
        _fold_counts(polynomial, exterior, over)


def test_a_degree_listed_twice_needs_two_generators():
    # One polynomial generator of degree 1 at p = 2 (a), two with the double
    # of a degree-1 class.
    with pytest.raises(VerificationError, match="^no polynomial generator left in degree 1 "):
        homology_series(2, 8, over=([1, 1], []))
    polynomial, exterior = [0, 2] + [0] * 7, [0] * 9
    series, reduced = _fold_counts(polynomial, exterior, ([1, 1], []))
    assert series.coefficients == tuple(range(1, 10))
    assert reduced == TruncatedSeries.one(8)
    assert list(reduced.coefficients) == quotient_over_generators(series.coefficients, [1, 1], [])


# verify runs each factor-path limit (p = 2 up to N = 157, p = 3 up to 799,
# p = 5 up to 2,911) and p >= 7 up to the degree limit, 4,000, on the fold's
# pair.  Only in a window of degrees at each p >= 5 must the last phase widen
# the slots before its factors (p = 5: N = 227 to 257, 7: 351 to 409, 11: 603
# to 681, 13: 723 to 817; none at p = 2 or 3), and one point of each window
# is here too.  Above each limit the Euler path folds the same reduced counts
# (test_the_report_folds_once_on_either_side_of_each_switch).
@pytest.mark.parametrize("p,n", [(2, 157), (3, 799), (5, 2911), (7, 4000), (11, 4000),
                                 (13, 4000), (5, 240), (7, 380), (11, 640), (13, 770)])
def test_the_fold_reads_the_homotopy_quotient_before_the_milnor_factors(p, n):
    milnor = milnor_degrees(p, n)
    hom, quo = homology_series(p, n, over=milnor)
    assert hom == homology_series(p, n)
    assert list(quo.coefficients) == quotient_over_generators(hom.coefficients, *milnor)


@pytest.mark.parametrize("p,n", [(3, 800), (5, 2912)])
def test_the_euler_path_leaves_the_quotient_to_the_report(monkeypatch, p, n):
    # On the Euler path the fold reads the quotient off the reduced counts
    # in one Euler transform, and the report takes it as it stands.
    milnor = milnor_degrees(p, n)
    taken, (hom, quo) = kernel_taken(monkeypatch, lambda: homology_series(p, n, over=milnor))
    assert taken == ["euler"]
    assert hom == homology_series(p, n)
    assert list(quo.coefficients) == quotient_over_generators(hom.coefficients, *milnor)
    report = homotopy_report(p, n)
    assert report.homotopy_series == quo
    assert report.tensor_identity


def test_a_milnor_degree_with_no_generator_of_its_kind_aborts_the_report(monkeypatch):
    # Degree 4 holds two exterior generators and no polynomial one, degree 2
    # a polynomial one and no exterior one.
    polynomial, exterior = [0, 0, 1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 2, 0, 0, 0, 0]
    for over, kind, d in ((([2, 4], [1]), "polynomial", 4), (([2], [1, 2]), "exterior", 2)):
        with pytest.raises(VerificationError, match=f"^no {kind} generator left in degree {d} "):
            _fold_counts(polynomial, exterior, over)
    # At p = 3 tau_0 and xi_1 sit in degrees 1 and 4; with the degree-4
    # generator taken out of the counts the fold refuses the report.
    monkeypatch.setattr(dyer_lashof, "generator_degree_counts", _without_degree_4)
    with pytest.raises(VerificationError, match="^no polynomial generator left in degree 4 "):
        homotopy_report(3, 60)


def test_the_cli_exits_2_on_a_milnor_degree_with_no_generator_of_its_kind(monkeypatch, capsys):
    # The report of the test above, through the CLI: exit 2 and one line.
    monkeypatch.setattr(dyer_lashof, "generator_degree_counts", _without_degree_4)
    assert cli.main(["verify", "--prime", "3", "--max-degree", "60"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("versalp: verification failed: no polynomial generator left in degree 4 "
                   "to take out of the counts\n")


def _without_degree_4(p, gen_degree, max_degree):
    """``generator_degree_counts`` with no generator in degree 4."""
    c = generator_degree_counts(p, gen_degree, max_degree)
    c[4] = 0
    return c


# A report folds once, on the path the full counts pick, on each side of each
# switch (p = 2 above N = 157, p = 3 above 799, p = 5 above 2,911).
@pytest.mark.parametrize("p,n,path", [
    (2, 157, "factors"), (3, 799, "factors"), (5, 2911, "factors"), (7, 4000, "factors"),
    (2, 158, "euler"), (3, 800, "euler"), (5, 2912, "euler"),
])
def test_the_report_folds_once_on_either_side_of_each_switch(monkeypatch, p, n, path):
    taken, report = kernel_taken(monkeypatch, lambda: homotopy_report(p, n))
    assert taken == [path]
    milnor = milnor_degrees(p, n)
    assert list(report.homotopy_series.coefficients) == quotient_over_generators(
        report.homology_series.coefficients, *milnor)
    assert report.tensor_identity


# A degree of ``over`` outside 1..N names no factor of the fold: one above N
# would index past the count arrays, and -1 would read degree N.
@pytest.mark.parametrize("n,over,degree", [
    (40, ([500], []), 500), (41, ([], [-1]), -1), (40, ([0], []), 0),
], ids=["above_n", "minus_one", "zero"])
def test_the_fold_rejects_a_degree_outside_1_to_n(n, over, degree):
    with pytest.raises(ValueError, match=rf"generator degree must lie in 1\.\.{n}, got {degree}$"):
        homology_series(3, n, over=over)


def _profile(p, n, gen_degrees=(1,)):
    """(degree, kind, multiplicity) triples of the free algebra over one
    class of each degree in ``gen_degrees``, the generator counts summed."""
    kind = lambda d: "exterior" if p != 2 and d % 2 else "polynomial"
    columns = zip(*(generator_degree_counts(p, g, n) for g in gen_degrees))
    return [(d, kind(d), sum(c)) for d, c in enumerate(columns) if sum(c)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fold_equals_the_factor_fold_at_degree_2000(p):
    triples = _profile(p, 2000)
    expected = factor_fold(triples, 2000)
    assert list(fold(triples, 2000).coefficients) == expected
    # generator_series splits its count array by kind itself: the kind rule
    # above is written apart from the library's.
    assert list(generator_series(p, (1,), 2000).coefficients) == expected
    thh = generator_series(p, (1, 2), 400)
    assert list(thh.coefficients) == factor_fold(_profile(p, 400, (1, 2)), 400)
    assert generator_series(p, (), 5) == TruncatedSeries.one(5)


@pytest.mark.parametrize("p,n", [
    (2, 60), (2, 120), (3, 150), (3, 340), (3, 1000), (5, 2000), (7, 3000), (11, 4000), (13, 4000),
])
def test_factor_path_equals_the_euler_path(p, n):
    triples = _profile(p, n)
    assert fold(triples, n, _fold_factors) == fold(triples, n, _fold_euler)


# From N = 0 to 130 the Euler path crosses every leaf boundary: one leaf from
# lo = 0, seeded with a_0, of each length from 1 to 64, then two and four
# leaves, those from lo > 0 of 32 to 64 terms.  At p = 3 the exterior
# generators make c signed.
@pytest.mark.parametrize("p", [2, 3])
def test_the_euler_path_equals_the_factor_path_across_leaf_boundaries(p):
    for n in range(131):
        triples = _profile(p, n)
        assert fold(triples, n, _fold_euler) == fold(triples, n, _fold_factors), n


def test_the_euler_fold_at_degree_2000_makes_at_least_31_products(monkeypatch):
    # Leaves of at most 64 terms split degrees 0..2000 into 32 leaves, joined
    # by 31 products; a fold solved term by term makes none.
    kronecker, products = power_series._kronecker, []

    def counted(a, b, start, stop):
        products.append(len(a))
        return kronecker(a, b, start, stop)

    monkeypatch.setattr(power_series, "_kronecker", counted)
    generator_series(2, (1,), 2000)
    assert len(products) >= 31, products


def kernel_taken(monkeypatch, fold_arrays):
    """The names of the fold kernels that ``fold_arrays()`` calls, and its result."""
    taken = []
    for name, kernel in (("euler", _fold_euler), ("factors", _fold_factors)):
        def traced(*arrays, name=name, kernel=kernel):
            taken.append(name)
            return kernel(*arrays)
        monkeypatch.setattr(power_series, kernel.__name__, traced)
    return taken, fold_arrays()


# Points from the benchmark's degree ranges and beyond, at most 88 or more
# than 150 doublings per bit of N, so on the same side of the rule whichever
# limit between the two it holds.  (7, 4000), at 76 per bit, takes the factor
# path because it is the faster one there: 22 against 47 ms per fold; (2, 200),
# 0.63 against 0.56 ms, and (3, 1000), 8.8 against 6.9 ms, do not (best of 15
# runs on a 2-core x86-64 machine).
@pytest.mark.parametrize("p,n,path", [
    (2, 27, "factors"), (2, 46, "factors"), (2, 100, "factors"), (3, 58, "factors"),
    (3, 200, "factors"), (3, 340, "factors"), (3, 500, "factors"), (5, 500, "factors"),
    (7, 850, "factors"), (7, 4000, "factors"), (13, 4000, "factors"),
    (2, 200, "euler"), (2, 4000, "euler"), (3, 1000, "euler"), (5, 4000, "euler"),
])
def test_the_fold_takes_the_factor_path_at_most_88_doublings_per_bit_of_n(monkeypatch, p, n, path):
    taken, series = kernel_taken(monkeypatch, lambda: generator_series(p, (1,), n))
    assert taken == [path]
    assert list(series.coefficients) == factor_fold(_profile(p, n), n)


# Points between 88 and 150 doublings per bit of N and just above 150: (2, 130)
# at 94, (2, 157) at 148 and (3, 799) at 150 take the factor path, the faster
# one there (0.42 against 0.45 ms and 4.8 against 5.1 ms per fold for the last
# two, best of 15 runs on a 2-core x86-64 machine); (2, 158) at 153 and
# (3, 800) at 154 do not.
@pytest.mark.parametrize("p,n,path", [
    (2, 130, "factors"), (2, 157, "factors"), (3, 799, "factors"),
    (2, 158, "euler"), (3, 800, "euler"),
])
def test_the_fold_takes_the_factor_path_up_to_150_doublings_per_bit_of_n(monkeypatch, p, n, path):
    taken, series = kernel_taken(monkeypatch, lambda: generator_series(p, (1,), n))
    assert taken == [path]
    assert list(series.coefficients) == factor_fold(_profile(p, n), n)


@pytest.mark.parametrize("extra,path", [(0, "factors"), (1, "euler")])
def test_the_rule_counts_the_doublings_up_to_n_over_2(monkeypatch, extra, path):
    # N = 10 has 4 bits, so the limit is 600 doublings d 2^j <= 5: 198
    # polynomial generators of degree 1 give three each (t, t^2 and t^4; t^8
    # is above N/2), two of degree 2 two each and two of degree 3 one each.
    # Polynomial ones of degree 6 and exterior ones give none.
    polynomial, exterior = [0] * 11, [0] * 11
    polynomial[1], polynomial[2], polynomial[3], polynomial[6] = 198, 2, 2 + extra, 50
    exterior[1], exterior[5] = 400, 50
    taken, series = kernel_taken(monkeypatch, lambda: _fold_counts(polynomial, exterior))
    assert taken == [path]
    triples = [(1, "polynomial", 198), (2, "polynomial", 2), (3, "polynomial", 2 + extra),
               (6, "polynomial", 50), (1, "exterior", 400), (5, "exterior", 50)]
    assert list(series.coefficients) == factor_fold(triples, 10)


def final_width(monkeypatch, polynomial, exterior):
    """``_fold_factors`` on the two arrays, and the slot width its groups end at."""
    unpack, widths = power_series._unpack, []

    def spy(x, w, count):
        if count == len(polynomial):
            widths.append(w)
        return unpack(x, w, count)

    monkeypatch.setattr(power_series, "_unpack", spy)
    coefficients = _fold_factors(polynomial, exterior).coefficients
    assert len(widths) == 1
    return coefficients, widths[0]


# A group that can multiply slots by 2^g needs their top g + 1 bits clear,
# or every slot widens by ceil(g / 8) bytes.  1 sits in a two-byte slot with
# 15 top bits clear: (1 + t)^14 is 14 shift-adds and fits, (1 + t)^15 widens
# to four bytes.  Through degree 3, (1 + t)^46 is one sum of C(46, i) over
# i <= 3, 16,262 = 2^14 - 122, so g = 14 and it fits; C(47, i) sum to
# 17,344 > 2^14, so g = 15 and it widens.
@pytest.mark.parametrize("n,b,width", [(20, 14, 2), (20, 15, 4), (3, 46, 2), (3, 47, 4)])
def test_a_group_widens_its_slots_only_past_its_headroom(monkeypatch, n, b, width):
    exterior = [0, b] + [0] * (n - 1)
    coefficients, w = final_width(monkeypatch, [0] * (n + 1), exterior)
    assert coefficients == tuple(comb(b, k) for k in range(n + 1))
    assert w == width


@pytest.mark.parametrize("b,width", [(9, 2), (10, 4)])
def test_a_later_group_sees_the_headroom_earlier_groups_left(monkeypatch, b, width):
    # (1 + t)^7 leaves every slot at most C(7, 3) = 35 < 2^6, so 10 top bits
    # of two-byte slots are clear: 9 shift-adds by t^2 fit, 10 widen by 2 bytes.
    exterior = [0, 7, b] + [0] * 18
    coefficients, w = final_width(monkeypatch, [0] * 21, exterior)
    assert list(coefficients) == naive_series([(1, "exterior")] * 7 + [(2, "exterior")] * b, 20)
    assert w == width


def test_a_wrong_product_in_the_fold_leaves_a_remainder(monkeypatch, capsys):
    kronecker = power_series._kronecker

    def off_by_one(a, b, start, stop):
        part = kronecker(a, b, start, stop)
        part[-1] += 1
        return part

    monkeypatch.setattr(power_series, "_kronecker", off_by_one)
    assert VerificationError is versal.VerificationError
    with pytest.raises(VerificationError, match="not divisible"):
        homology_series(2, 200)
    assert cli.main(["homology", "--prime", "2", "--max-degree", "200"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("versalp: verification failed: Euler transform")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_homotopy_quotient_at_degree_800(p):
    report = homotopy_series(p, 800)  # raises on a negative or non-multiplying quotient
    top = 4 * (p - 1)
    assert report.homotopy_series.coefficients[: top + 1] == (1,) + (0,) * (top - 1) + (1,)
    assert report.gap_verified


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quotient_by_milnor_factors_is_long_division_at_degree_850(p):
    report = homotopy_report(p, 850)
    expected = report.homology_series.div(steenrod_series(p, 850))
    assert report.homotopy_series == expected
    assert report.tensor_identity and report.nonnegative
