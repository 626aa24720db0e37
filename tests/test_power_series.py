from math import isqrt
from operator import add

import pytest
from hypothesis import example, given, strategies as st

from versalp import power_series
from versalp.free_algebra import KINDS, Generator, GeneratorSet, product_over_generators
from versalp.power_series import TruncatedSeries, multiply_over_generators

from oracles import factor_fold, naive_factor, naive_mul, naive_series, quotient_over_generators


def series(coeffs, n):
    return TruncatedSeries.from_coefficients(coeffs, n)


def test_from_coefficients_pads_with_zeros():
    assert series([1], 3).coefficients == (1, 0, 0, 0)
    assert series([1, 1], 2).coefficients == (1, 1, 0)
    assert series([0], 0).coefficients == (0,)


def test_from_coefficients_rejects_overflowing_input():
    with pytest.raises(ValueError):
        series([1, 2, 3], 1)


def test_coefficient_rejects_a_degree_outside_0_to_n():
    # A negative degree would otherwise read a coefficient from the top.
    s = series([1, 2, 3], 10)
    for degree in (-1, 11):
        with pytest.raises(IndexError, match=f"degree {degree} outside 0..10"):
            s.coefficient(degree)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(2, (1, 2))
    with pytest.raises(ValueError):
        TruncatedSeries(-1, ())


def test_mul_difference_of_squares():
    f = series([1, 1], 2)
    g = series([1, -1], 2)
    assert f.mul(g).coefficients == (1, 0, -1)


def test_mul_rejects_mismatched_truncation():
    with pytest.raises(ValueError):
        series([1], 2).mul(series([1], 3))


def test_div_by_self_is_one():
    f = series([1, 4, -2, 7, 0, 3], 5)
    assert f.div(f) == TruncatedSeries.one(5)


def test_div_quotient_of_dimension_series():
    num = series([1, 1, 1, 2, 3], 4)
    den = series([1, 1, 1, 2, 2], 4)
    assert num.div(den).coefficients == (1, 0, 0, 0, 1)


def test_div_requires_unit_constant_term():
    f = series([1, 1], 1)
    with pytest.raises(ValueError):
        f.div(series([2, 1], 1))
    with pytest.raises(ValueError):
        f.div(series([-1, 1], 1))
    with pytest.raises(ValueError):
        f.div(series([1, 1], 2))


def test_product_single_polynomial_generator_is_geometric():
    gens = GeneratorSet((Generator("x", 1, "polynomial"),))
    assert product_over_generators(gens, 5).coefficients == (1, 1, 1, 1, 1, 1)


def test_product_single_exterior_generator():
    gens = GeneratorSet((Generator("x", 3, "exterior"),))
    assert product_over_generators(gens, 5).coefficients == (1, 0, 0, 1, 0, 0)


def test_product_odd_steenrod_shape():
    gens = GeneratorSet(
        (
            Generator("tau_0", 1, "exterior"),
            Generator("xi_1", 4, "polynomial"),
            Generator("tau_1", 5, "exterior"),
        )
    )
    got = product_over_generators(gens, 8)
    assert got.coefficients == (1, 1, 0, 0, 1, 2, 1, 0, 1)
    assert list(got.coefficients) == naive_series(
        [(1, "exterior"), (4, "polynomial"), (5, "exterior")], 8
    )


def test_generators_above_truncation_contribute_factor_one():
    gens = GeneratorSet(
        (Generator("x", 1, "polynomial"), Generator("y", 9, "polynomial"))
    )
    assert product_over_generators(gens, 5).coefficients == (1, 1, 1, 1, 1, 1)


class _Stub:
    def __init__(self, degree, kind):
        self.degree = degree
        self.kind = kind


def test_product_rejects_degree_zero_generator():
    with pytest.raises(ValueError):
        product_over_generators([_Stub(0, "polynomial")], 4)


def test_product_rejects_unknown_kind():
    with pytest.raises(ValueError):
        product_over_generators([_Stub(2, "free")], 4)


coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=25)


@st.composite
def series_triple(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    out = []
    for _ in range(3):
        c = draw(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1))
        out.append(TruncatedSeries(n, tuple(c)))
    return out


@given(series_triple())
def test_mul_commutative_and_associative(fgh):
    f, g, h = fgh
    assert f.mul(g) == g.mul(f)
    assert f.mul(g).mul(h) == f.mul(g.mul(h))
    assert list(f.mul(g).coefficients) == naive_mul(
        list(f.coefficients), list(g.coefficients)
    )


@given(series_triple())
def test_one_is_identity(fgh):
    f = fgh[0]
    assert f.mul(TruncatedSeries.one(f.truncation_degree)) == f


@given(series_triple())
def test_div_mul_roundtrip(fgh):
    f, g, _ = fgh
    den = TruncatedSeries(
        g.truncation_degree, (1,) + g.coefficients[1:]
    )
    assert f.mul(den).div(den) == f
    assert f.div(den).mul(den) == f


@st.composite
def generator_profile(draw):
    n = draw(st.integers(min_value=0, max_value=16))
    count = draw(st.integers(min_value=0, max_value=5))
    gens = []
    for i in range(count):
        degree = draw(st.integers(min_value=1, max_value=8))
        kind = draw(st.sampled_from(["polynomial", "exterior"]))
        gens.append(Generator(f"g{i}", degree, kind))
    order = draw(st.permutations(gens))
    return n, gens, order


@given(generator_profile())
def test_product_equals_iterated_mul_in_any_order(profile):
    n, gens, order = profile
    fast = product_over_generators(GeneratorSet(tuple(gens)), n)
    acc = TruncatedSeries.one(n)
    for g in order:
        factor = TruncatedSeries(n, tuple(naive_factor(g.degree, g.kind, n)))
        acc = acc.mul(factor)
    assert fast == acc


@st.composite
def operands(draw, signed=True):
    """Two series of one truncation degree, each with its own coefficient
    size (all zero, or up to 2^300 in magnitude, of either sign unless
    ``signed`` is false) and either dense or mostly zero."""
    n = draw(st.integers(min_value=0, max_value=30))
    pair = []
    for _ in range(2):
        size = draw(st.sampled_from([0, 1, 8, 9, 64, 300]))
        low = -(2**size) + 1 if signed else 0
        values = st.integers(min_value=low, max_value=2**size - 1)
        if draw(st.booleans()):
            values = st.one_of(st.just(0), st.just(0), st.just(0), values)
        coeffs = draw(st.lists(values, min_size=n + 1, max_size=n + 1))
        pair.append(TruncatedSeries(n, tuple(coeffs)))
    return pair


def _flat(n, x, y):
    """Operands whose degree-N product coefficient is (N + 1)·x·y, the
    largest magnitude their sizes allow."""
    return [TruncatedSeries(n, (x,) * (n + 1)), TruncatedSeries(n, (y,) * (n + 1))]


# max|a|·max|b|·(N + 1) just below a multiple of 8 bits, where a slot one bit
# short of the bound overflows: 147 < 2^8, 57,375 < 2^16, 255·(2^300 - 1)^2
# < 2^608; and just above one: 69,632 > 2^16.  Nonnegative operands take
# slots with no sign bit, so 255^3 = 16,581,375 < 2^24 fills exactly 3 bytes.
# The last example is signed only by the top coefficient of its second operand.
@given(st.one_of(operands(), operands(signed=False)))
@example(_flat(2, 7, -7))
@example(_flat(254, -15, -15))
@example(_flat(254, 15, -15))
@example(_flat(254, 2**300 - 1, -(2**300 - 1)))
@example(_flat(255, 17, -16))
@example(_flat(0, 2**300 - 1, -(2**300 - 1)))
@example(_flat(5, 0, -(2**300 - 1)))
@example(_flat(0, 0, 0))
@example(_flat(254, 255, 255))
@example(_flat(254, 2**300 - 1, 2**300 - 1))
@example([TruncatedSeries(3, (5, 7, 1, 2)), TruncatedSeries(3, (1, 4, 9, -3))])
def test_mul_matches_naive_convolution_on_large_signed_coefficients(fg):
    f, g = fg
    expected = naive_mul(list(f.coefficients), list(g.coefficients))
    assert list(f.mul(g).coefficients) == expected
    assert list(g.mul(f).coefficients) == expected
    # Slots of up to 8 bytes are read by a word cast only on little-endian
    # machines; elsewhere one by one, as wider slots always are.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(power_series, "byteorder", "big")
        assert list(f.mul(g).coefficients) == expected


def _by_kind(pairs):
    """The (polynomial degrees, exterior degrees) of (degree, kind) pairs."""
    return ([d for d, kind in pairs if kind == "polynomial"],
            [d for d, kind in pairs if kind == "exterior"])


@given(generator_profile(), st.data())
def test_quotient_over_generators_is_division_by_their_product(profile, data):
    n, gens, order = profile
    num = TruncatedSeries(n, tuple(data.draw(
        st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 1)
    )))
    expected = num.div(product_over_generators(GeneratorSet(tuple(gens)), n))
    for listing in (gens, order):
        lists = _by_kind([(g.degree, g.kind) for g in listing])
        assert quotient_over_generators(num.coefficients, *lists) == list(expected.coefficients)


def test_quotient_rejects_what_the_product_rejects():
    # Validation comes before the skip of a degree above the truncation
    # degree.  The quotient is the fold's second series, which names the
    # first degree outside 1..N: there a degree above N names no factor.
    for polynomial, exterior in (
        ([0], []), ([], [0]), ([9, -1], []), ([], [2, 9, 0]), ([9], [-3]), ([0, 1], [1]),
    ):
        message = f"generator degree must be >= 1, got {min(polynomial + exterior)}"
        with pytest.raises(ValueError, match=message):
            multiply_over_generators(TruncatedSeries.one(4), polynomial, exterior)
        with pytest.raises(ValueError, match=r"^generator degree must lie in 1\.\.4, got "):
            power_series._fold_counts([0, 1, 1, 1, 1], [0, 1, 1, 1, 1], (polynomial, exterior))
        stubs = ([_Stub(d, "polynomial") for d in polynomial]
                 + [_Stub(d, "exterior") for d in exterior])
        with pytest.raises(ValueError, match=message):
            product_over_generators(stubs, 4)


@st.composite
def factor_profile(draw):
    """A signed series of truncation degree N and generators of either kind
    whose degrees are mostly 1, just below or above sqrt(N), N or N + 1."""
    n = draw(st.integers(min_value=1, max_value=60))
    root = isqrt(n)
    degree = st.sampled_from([1, root, root + 1, n, n + 1]) | st.integers(1, n + 2)
    pairs = draw(st.lists(st.tuples(degree, st.sampled_from(KINDS)), max_size=6))
    coeffs = draw(st.lists(st.integers(-(2**70), 2**70), min_size=n + 1, max_size=n + 1))
    return TruncatedSeries(n, tuple(coeffs)), pairs


def _every_path(n):
    """Each kind at degree 1, floor(sqrt(N)), the next degree, N and N + 1,
    on a series with nonzero coefficients."""
    root = isqrt(n)
    pairs = [(d, k) for d in (1, root, root + 1, n, n + 1) for k in KINDS]
    return TruncatedSeries(n, tuple(range(1, n + 2))), pairs


# 36 = 6^2 puts d = 6 on the residue-class path and d = 7 on the block path.
@given(factor_profile())
@example(_every_path(30))
@example(_every_path(36))
@example(_every_path(1))
def test_multiply_over_generators_is_mul_by_the_factor_fold(profile):
    series, pairs = profile
    n = series.truncation_degree
    fold = TruncatedSeries(n, tuple(factor_fold([(d, kind, 1) for d, kind in pairs], n)))
    assert multiply_over_generators(series, *_by_kind(pairs)) == series.mul(fold)
    assert multiply_over_generators(TruncatedSeries.one(n), *_by_kind(pairs)) == fold


# Slots of up to 8 bytes are read by one word cast, of 9 to 16 by two, wider
# ones one at a time; each width with slots all ones, zero, and a packed
# slot above ``count`` that the read must leave out.
@pytest.mark.parametrize("w", [1, 7, 8, 9, 15, 16, 17])
def test_unpack_reads_back_the_slots_pack_writes(w):
    top = (1 << 8 * w) - 1
    slots = [top, 0, 1, top, top, 0, top - 1, 1 << 8 * w - 1]
    assert power_series._unpack(power_series._pack(slots + [top], w), w, len(slots)) == slots
    assert power_series._unpack(0, w, 3) == [0, 0, 0]


@st.composite
def sparse_terms(draw):
    """A truncation degree N and one to three (starts, polynomial degrees,
    exterior degrees) terms: starts and degrees may repeat, degrees may
    exceed N."""
    n = draw(st.integers(min_value=0, max_value=24))
    degrees = st.lists(st.integers(min_value=1, max_value=n + 3), max_size=4)
    starts = st.lists(st.integers(min_value=0, max_value=n), min_size=1, max_size=3)
    return n, draw(st.lists(st.tuples(starts, degrees, degrees), min_size=1, max_size=3))


# 1/(1 - t)^3 reaches C(26, 2) = 325 at degree 24, past one-byte slots.
@given(sparse_terms())
@example((24, [([0], [1, 1, 1], [])]))
@example((12, [([0, 5, 5], [2, 3, 3, 13], [1, 1, 12]), ([12], [1], [1])]))
def test_sparse_product_equals_the_naive_expanded_sum(case):
    n, terms = case
    expected = [0] * (n + 1)
    for starts, polynomial, exterior in terms:
        factors = [(d, "polynomial") for d in polynomial] + [(e, "exterior") for e in exterior]
        product = naive_series(factors, n)
        for a in starts:
            expected[a:] = map(add, expected[a:], product)
    assert power_series._sparse_product(terms, n) == expected


# The slot bound of 1/(1 - t)^2 through degree N is N // 1 + 1, one factor
# left out, and equals the top coefficient: 255 fits one-byte slots, 256
# needs two.
@pytest.mark.parametrize("n,width", [(254, 1), (255, 2)])
def test_an_exact_slot_bound_sizes_the_slots(monkeypatch, n, width):
    unpack, widths = power_series._unpack, []

    def spy(x, w, count):
        widths.append(w)
        return unpack(x, w, count)

    monkeypatch.setattr(power_series, "_unpack", spy)
    assert power_series._sparse_product([((0,), (1, 1), ())], n) == list(range(1, n + 2))
    assert widths == [width]
