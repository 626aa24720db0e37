"""Series from generator counts: the closed-form counts against word
enumeration and the counting dynamic program; both paths of the fold, the
Euler transform and the packed factor-by-factor product, against naive factor
products, the oracle's factor fold and each other, the rule that picks
between them, and the packed product's slot widening; and the homotopy
quotient far above the enumeration oracles' degree caps."""

from math import comb

import pytest
from hypothesis import example, given, strategies as st

from versalp import cli, power_series, versal
from versalp.dyer_lashof import generator_degree_counts, generator_series, generator_words
from versalp.power_series import (
    TruncatedSeries, VerificationError, _fold_counts, _fold_euler, _fold_factors,
)
from versalp.versal import homology_series, homotopy_report, homotopy_series, steenrod_series

from oracles import dp_degree_counts, factor_fold, naive_series, word_degree


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


@given(count_profile())
@example((12, [(1, "polynomial", 20), (2, "polynomial", 1)]))
@example((12, [(1, "exterior", 9), (5, "exterior", 1), (3, "polynomial", 3)]))
def test_fold_equals_naive_product_of_expanded_factors(profile):
    n, triples = profile
    expanded = [(d, kind) for d, kind, b in triples for _ in range(b)]
    expected = naive_series(expanded, n)
    for kernel in (_fold_counts, _fold_euler, _fold_factors):
        assert list(fold(triples, n, kernel).coefficients) == expected, kernel.__name__


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


@pytest.mark.parametrize("p,n", [(2, 60), (3, 150), (5, 2000), (7, 3000), (11, 4000), (13, 4000)])
def test_factor_path_equals_the_euler_path(p, n):
    triples = _profile(p, n)
    assert fold(triples, n, _fold_factors) == fold(triples, n, _fold_euler)


@pytest.mark.parametrize("p,n,path", [
    (5, 500, "factors"), (7, 850, "factors"), (13, 4000, "factors"),
    (2, 200, "euler"), (2, 27, "euler"), (3, 58, "euler"), (3, 500, "euler"), (7, 4000, "euler"),
])
def test_the_fold_takes_the_factor_path_at_most_n_over_2_shift_adds(monkeypatch, p, n, path):
    taken = []
    for name, kernel in (("euler", _fold_euler), ("factors", _fold_factors)):
        def traced(*arrays, name=name, kernel=kernel):
            taken.append(name)
            return kernel(*arrays)
        monkeypatch.setattr(power_series, kernel.__name__, traced)
    series = generator_series(p, (1,), n)
    assert taken == [path]
    assert list(series.coefficients) == factor_fold(_profile(p, n), n)


def widenings(monkeypatch, polynomial, exterior):
    """``_fold_factors`` on the two arrays, and the slot widths it widened to."""
    padded, widths = power_series._padded, []

    def spy(x, w, count, wide):
        if count == len(polynomial) and wide == w + 1:
            widths.append(wide)
        return padded(x, w, count, wide)

    monkeypatch.setattr(power_series, "_padded", spy)
    return _fold_factors(polynomial, exterior).coefficients, widths


@pytest.mark.parametrize("b", [17, 18])
def test_a_slot_widens_when_a_step_sets_its_top_bit(monkeypatch, b):
    # (1 + t)^b at two-byte slots: C(17, 8) < 2^15 <= C(18, 9).
    coefficients, widths = widenings(monkeypatch, [0] * 41, [0, b] + [0] * 39)
    assert coefficients == tuple(comb(b, k) for k in range(41))
    assert widths == ([] if b == 17 else [3])


def test_slots_widen_a_byte_at_a_time_to_the_final_width(monkeypatch):
    # 1/(1 - t)^12 (1 + t^2)^5 through degree 60: C(71, 11) alone takes 42
    # bits and the largest coefficient 46, so two-byte slots widen to six.
    polynomial, exterior = [0, 12] + [0] * 59, [0, 0, 5] + [0] * 58
    coefficients, widths = widenings(monkeypatch, polynomial, exterior)
    expected = naive_series([(1, "polynomial")] * 12 + [(2, "exterior")] * 5, 60)
    assert list(coefficients) == expected
    assert widths == [3, 4, 5, 6]


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
