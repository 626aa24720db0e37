"""Series from generator counts: the closed-form counts against word
enumeration and the counting dynamic program, the Euler-transform fold
against naive factor products and the factor-by-factor fold, and the
homotopy quotient far above the enumeration oracles' degree caps."""

import pytest
from hypothesis import example, given, strategies as st

from versalp import cli, power_series, versal
from versalp.dyer_lashof import generator_degree_counts, generator_series, generator_words
from versalp.power_series import TruncatedSeries, VerificationError, _fold_counts
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


def fold(triples, n):
    """The fold over (degree, kind, multiplicity) triples: multiplicities
    summed into one array per kind indexed by degree 0..n, degrees above n
    left out."""
    arrays = {"polynomial": [0] * (n + 1), "exterior": [0] * (n + 1)}
    for d, kind, b in triples:
        if d <= n:
            arrays[kind][d] += b
    return _fold_counts(arrays["polynomial"], arrays["exterior"])


@given(count_profile())
@example((12, [(1, "polynomial", 20), (2, "polynomial", 1)]))
@example((12, [(1, "exterior", 9), (5, "exterior", 1), (3, "polynomial", 3)]))
def test_fold_equals_naive_product_of_expanded_factors(profile):
    n, triples = profile
    expanded = [(d, kind) for d, kind, b in triples for _ in range(b)]
    assert list(fold(triples, n).coefficients) == naive_series(expanded, n)


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
