import json

import pytest
from hypothesis import example, given, strategies as st

from versalp import free_algebra
from versalp.dyer_lashof import enumerate_generators
from versalp.free_algebra import (
    Generator,
    _listing,
    GeneratorSet,
    Monomial,
    enumerate_monomials,
    joined_names,
    series_of,
)
from versalp.steenrod_dual import milnor_generator_degrees

from oracles import brute_monomials, naive_series, thh_generators


def rows_of(gens):
    """``gens`` as the (degree, label, kind) rows the name listings take."""
    return [(g.degree, g.label, g.kind) for g in gens]


def poly(label, degree):
    return Generator(label, degree, "polynomial")


def ext(label, degree):
    return Generator(label, degree, "exterior")


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator("x", 0, "polynomial")
    with pytest.raises(ValueError):
        Generator("x", 2, "free")
    with pytest.raises(ValueError):
        Generator("", 2, "polynomial")


def test_generator_set_orders_by_degree_then_label():
    gens = GeneratorSet((poly("z", 1), ext("b", 3), poly("a", 3)))
    assert [g.label for g in gens] == ["z", "a", "b"]


def test_generator_set_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        GeneratorSet((poly("x", 1), ext("x", 2)))


def test_series_of_p2_low_degrees():
    gens = enumerate_generators(2, 1, 4)
    assert series_of(gens, 4).coefficients == (1, 1, 1, 2, 3)


def test_series_of_empty_set_is_one():
    assert series_of(GeneratorSet(()), 5).coefficients == (1, 0, 0, 0, 0, 0)


def test_series_of_single_exterior_degree_one():
    gens = GeneratorSet((ext("a", 1),))
    assert series_of(gens, 3).coefficients == (1, 1, 0, 0)


def test_degree_4_bucket_at_p2():
    basis = enumerate_monomials(enumerate_generators(2, 1, 4), 4)
    assert [m.render() for m in basis.bucket(4)] == ["a^4", "a·Q^2 a", "Q^3 a"]
    assert [m.render() for m in basis.bucket(3)] == ["a^3", "Q^2 a"]


def test_degree_8_bucket_at_p3():
    basis = enumerate_monomials(enumerate_generators(3, 1, 8), 8)
    bucket = basis.bucket(8)
    assert [m.render() for m in bucket] == ["(bQ^1 a)^2", "bQ^2 a"]
    assert len(bucket) == 2


def test_degree_zero_bucket_is_the_unit():
    basis = enumerate_monomials(GeneratorSet((poly("x", 3),)), 6)
    assert [m.render() for m in basis.bucket(0)] == ["1"]
    assert basis.dimensions() == [1, 0, 0, 1, 0, 0, 1]


def test_monomial_degree_matches_bucket_index():
    basis = enumerate_monomials(enumerate_generators(3, 1, 12), 12)
    for d, bucket in enumerate(basis.buckets):
        assert all(m.degree == d for m in bucket)


def test_exterior_exponent_bound():
    gens = GeneratorSet((ext("u", 1), ext("v", 2), poly("w", 2)))
    basis = enumerate_monomials(gens, 10)
    for bucket in basis.buckets:
        for m in bucket:
            for g, e in m.factors:
                if g.kind == "exterior":
                    assert e <= 1
    assert basis.dimensions() == list(series_of(gens, 10).coefficients)


def test_enumeration_is_input_order_independent():
    gens = [poly("x", 2), ext("y", 3), poly("z", 5)]
    forward = enumerate_monomials(GeneratorSet(tuple(gens)), 12)
    backward = enumerate_monomials(GeneratorSet(tuple(reversed(gens))), 12)
    assert forward == backward


def test_monomial_rendering_rules():
    x, q = poly("x", 1), poly("Q^2 a", 3)
    assert Monomial(((x, 4),)).render() == "x^4"
    assert Monomial(((x, 1), (q, 2))).render() == "x·(Q^2 a)^2"
    assert Monomial(()).render() == "1"
    assert str(Monomial(((q, 1),))) == "Q^2 a"


def test_monomial_validation():
    x, y = poly("x", 1), ext("y", 2)
    with pytest.raises(ValueError):
        Monomial(((x, 0),))
    with pytest.raises(ValueError):
        Monomial(((y, 2),))
    with pytest.raises(ValueError):
        Monomial(((y, 1), (x, 1)))  # out of canonical order
    with pytest.raises(ValueError):
        enumerate_monomials(GeneratorSet((x, y)), -1)


def test_bucket_rejects_a_degree_outside_0_to_n():
    # A negative degree would otherwise read a bucket from the top.
    basis = enumerate_monomials(enumerate_generators(2, 1, 4), 4)
    for degree in (-1, 5):
        with pytest.raises(IndexError, match=f"degree {degree} outside 0..4"):
            basis.bucket(degree)


def test_a_basis_is_listed_once(monkeypatch):
    calls = []
    listing = free_algebra._listing

    def counted(*args):
        calls.append(args)
        return listing(*args)

    monkeypatch.setattr(free_algebra, "_listing", counted)
    basis = enumerate_monomials(enumerate_generators(2, 1, 8), 8)
    assert len(calls) == 1
    basis.buckets, basis.bucket(4), basis.names, basis.dimensions()
    assert len(calls) == 1


@st.composite
def random_generator_set(draw):
    count = draw(st.integers(min_value=0, max_value=6))
    gens = []
    for i in range(count):
        degree = draw(st.integers(min_value=1, max_value=10))
        kind = draw(st.sampled_from(["polynomial", "exterior"]))
        gens.append(Generator(f"g{i}", degree, kind))
    n = draw(st.integers(min_value=0, max_value=18))
    return GeneratorSet(tuple(gens)), n


@given(random_generator_set())
def test_master_property_counts_equal_series(case):
    gens, n = case
    dims = enumerate_monomials(gens, n).dimensions()
    assert dims == list(series_of(gens, n).coefficients)
    triples = [(g.degree, g.kind) for g in gens]
    assert dims == naive_series(triples, n)


@st.composite
def small_generator_set(draw):
    """Few generators of degree at most 4, so degrees repeat and kinds mix,
    and a truncation small enough for the brute-force oracle."""
    degrees = draw(st.lists(st.integers(min_value=1, max_value=4), max_size=4))
    gens = [
        Generator(f"g{i}", d, draw(st.sampled_from(["polynomial", "exterior"])))
        for i, d in enumerate(degrees)
    ]
    return GeneratorSet(tuple(gens)), draw(st.integers(min_value=0, max_value=9))


@given(small_generator_set())
def test_buckets_equal_brute_force_listing_in_order(case):
    gens, n = case
    buckets = enumerate_monomials(gens, n).buckets
    listed = [[tuple(m.exponent(g.label) for g in gens) for m in b] for b in buckets]
    assert listed == brute_monomials([(g.degree, g.kind) for g in gens], n)


@st.composite
def listing_rows(draw):
    """(degree, label, kind) rows in canonical order and a truncation N <= 9:
    degrees up to 12, so some lie above N, few enough that they repeat, and
    either kind at any place, the lowest included."""
    n = draw(st.integers(min_value=0, max_value=9))
    degrees = draw(st.lists(st.integers(min_value=1, max_value=12), max_size=6))
    kinds = st.sampled_from(["polynomial", "exterior"])
    return sorted((d, f"g{i}", draw(kinds)) for i, d in enumerate(degrees)), n


@given(listing_rows())
@example(([(1, "e", "exterior"), (1, "x", "polynomial"), (2, "y", "polynomial")], 8))
@example(([(1, "e", "exterior"), (2, "x", "polynomial"), (11, "z", "exterior")], 9))
@example(([(2, "x", "polynomial"), (3, "y", "polynomial"), (12, "z", "polynomial")], 9))
@example(([(1, "x", "polynomial"), (2, "y", "exterior")], 0))
def test_pruned_listing_equals_brute_force_listing(case):
    # _listing visits a generator of degree d at degrees d + low..N only,
    # low the lowest degree folded so far, and puts its pure powers below
    # that in one insert each; a generator above N adds nothing.
    rows, n = case
    listing = _listing(rows, n, (), lambda label, e: ((label, e),), ())
    vectors = [[tuple(dict(m).get(label, 0) for _, label, _ in rows) for m in bucket]
               for bucket in listing]
    assert vectors == brute_monomials([(d, kind) for d, _, kind in rows], n)


def test_many_generators_need_no_recursion():
    gens = GeneratorSet(tuple(ext(f"e{i}", 1) for i in range(1500)))
    assert enumerate_monomials(gens, 1).dimensions() == [1, 1500]


@pytest.mark.parametrize("gens, n", [
    (enumerate_generators(2, 1, 27), 27),
    (enumerate_generators(3, 1, 58), 58),
    (milnor_generator_degrees(3, 40), 40),
    (milnor_generator_degrees(5, 40), 40),
    # THH: labels with spaces over two symbols
    (thh_generators(3, 10), 10),
])
def test_names_from_the_recurrence_equal_render(gens, n):
    basis = enumerate_monomials(gens, n)
    assert [len(b) for b in basis.names] == basis.dimensions()
    for bucket, names in zip(basis.buckets, basis.names):
        for m, name in zip(bucket, names):
            assert name == m.render()
            checked = Monomial(m.factors)  # the validating constructor
            assert m == checked and hash(m) == hash(checked)


# Label characters a JSON escape changes or must keep: the quote, the
# backslash, control characters, the joiner, non-Latin-1 and astral
# characters; a space makes a power parenthesised.
LABEL_CHARACTERS = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", " ", "a", "\u00b7", "\u2028", "\U0001f600"]),
    st.characters(),
)


@st.composite
def escaped_label_generator_set(draw):
    labels = draw(st.lists(st.text(LABEL_CHARACTERS, min_size=1, max_size=4),
                           max_size=5, unique=True))
    gens = [
        Generator(label, draw(st.integers(min_value=1, max_value=4)),
                  draw(st.sampled_from(["polynomial", "exterior"])))
        for label in labels
    ]
    return GeneratorSet(tuple(gens)), draw(st.integers(min_value=0, max_value=8))


@given(escaped_label_generator_set())
@example((GeneratorSet((poly('"a b\\', 1), ext("\U0001f600\x01", 2))), 6))
def test_names_listed_in_an_escape_equal_the_names_escaped(case):
    gens, n = case
    canonical = enumerate_monomials(gens, n).names
    for encode in (json.encoder.encode_basestring_ascii, json.encoder.py_encode_basestring_ascii):
        def escape(s):
            return encode(s)[1:-1]

        expected = [[escape(name) for name in bucket] for bucket in canonical]
        counts, join = joined_names(rows_of(gens), n, escape)
        assert counts == [len(bucket) for bucket in expected]
        # An escaped name holds no newline, so joining on one loses no boundary.
        assert ["".join(pieces) for pieces in join(lambda d: "\n")] == [
            "\n".join(bucket) for bucket in expected
        ]


def escape_json(s):
    return json.encoder.encode_basestring_ascii(s)[1:-1]


# The separators the CLI joins a degree's names with (table, CSV, JSON), and
# any text per degree, as many degrees as escaped_label_generator_set's N.
SEPARATORS = st.one_of(
    st.sampled_from([lambda d: ", ", lambda d: f"\n{d},", lambda d: '",\n        "']),
    st.lists(st.text(max_size=3), min_size=9, max_size=9).map(lambda seps: seps.__getitem__),
)


@given(escaped_label_generator_set(), SEPARATORS, st.sampled_from([str, escape_json]))
@example((GeneratorSet(()), 0), lambda d: f"\n{d},", str)
@example((GeneratorSet(()), 5), lambda d: f"\n{d},", escape_json)
@example((GeneratorSet((ext("e", 1), poly("x y", 1), poly("z", 2))), 0), lambda d: ", ", str)
# lowest generator exterior, then polynomial, with others of its degree
@example((GeneratorSet((ext("e", 1), poly("x y", 1), poly("z", 2))), 8),
         lambda d: f"\n{d},", escape_json)
@example((GeneratorSet((poly('"a', 1), ext("b", 1), ext("c", 3))), 8),
         lambda d: '",\n        "', escape_json)
@example((GeneratorSet((poly("a", 2), poly("b", 3))), 8), lambda d: f"\n{d},", str)
def test_joined_names_join_the_listed_names(case, sep, encode):
    gens, n = case
    names = [[encode(name) for name in bucket] for bucket in enumerate_monomials(gens, n).names]
    counts, join = joined_names(rows_of(gens), n, encode)
    assert counts == [len(bucket) for bucket in names]
    degrees = list(join(sep))
    assert ["".join(pieces) for pieces in degrees] == [
        sep(d).join(bucket) for d, bucket in enumerate(names)
    ]
    # A degree without names is an empty list of pieces.
    assert [bool(pieces) for pieces in degrees] == [bool(bucket) for bucket in names]
