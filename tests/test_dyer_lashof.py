import pytest

from versalp.dyer_lashof import (
    _render_word,
    enumerate_generators,
    generator_rows,
    generator_words,
)

from oracles import (
    brute_words_odd,
    brute_words_p2,
    excess,
    is_admissible,
    render_word,
    word_degree,
)


def _brute_generator_words(p, n, bound):
    """The words ``generator_words(p, n, bound)`` should list, in its order:
    the empty word, then the brute-force words by (degree, entries)."""
    budget = bound - n
    words = brute_words_p2(n, budget) if p == 2 else brute_words_odd(p, n, budget)
    return [()] + sorted(words, key=lambda w: (word_degree(p, w), w))


def test_enumerate_p2_through_degree_8():
    gens = enumerate_generators(2, 1, 8)
    assert [g.degree for g in gens] == [1, 3, 4, 5, 6, 7, 7, 8]
    words = set(generator_words(2, 1, 8))
    assert words == {(), (2,), (3,), (4,), (5,), (6,), (4, 2), (7,)}
    assert all(g.kind == "polynomial" for g in gens)


def test_squaring_word_is_not_a_generator():
    # excess 1 on a degree-1 class is a square
    assert is_admissible(2, (1,)) and excess(2, (1,)) == 1
    assert (1,) not in generator_words(2, 1, 8)
    assert (1,) not in brute_words_p2(1, 7)


def test_enumerate_p3_through_degree_8():
    gens = enumerate_generators(3, 1, 8)
    got = [(g.label, g.degree, g.kind) for g in gens]
    assert got == [
        ("a", 1, "exterior"),
        ("bQ^1 a", 4, "polynomial"),
        ("Q^1 a", 5, "exterior"),
        ("bQ^2 a", 8, "polynomial"),
    ]


def test_double_bockstein_word_admissible_but_excluded():
    w = ((1, 1), (1, 1))
    assert is_admissible(3, w) and excess(3, w) == 2 - 5
    assert w not in generator_words(3, 1, 20)
    assert w not in brute_words_odd(3, 1, 19)


@pytest.mark.parametrize("p", [2, 3])
def test_enumeration_matches_brute_force_through_degree_20(p):
    assert generator_words(p, 1, 20) == _brute_generator_words(p, 1, 20)


# The p = 5 and 7 rows reach the first two-entry words, with and without a
# Bockstein (word degrees 47/48 at p = 5, 95/96 at p = 7).
@pytest.mark.parametrize(
    "p,n,bound", [(2, 2, 16), (3, 2, 16), (3, 3, 16), (5, 1, 60), (7, 1, 100)]
)
def test_brute_force_other_generator_degrees(p, n, bound):
    assert generator_words(p, n, bound) == _brute_generator_words(p, n, bound)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_low_degree_generator_degrees(p):
    gens = enumerate_generators(p, 1, 4 * (p - 1))
    degrees = [g.degree for g in gens]
    if p == 2:
        assert degrees == [1, 3, 4]
    else:
        assert degrees == [1, 2 * p - 2, 2 * p - 1, 4 * p - 4]


def test_emitted_words_satisfy_the_invariants():
    for p in (2, 3, 5):
        words = generator_words(p, 1, 24)
        assert words[0] == ()
        for w in words[1:]:
            assert is_admissible(p, w) and excess(p, w) > 1, (p, w)


def test_ordering_is_deterministic_and_degree_sorted():
    words = generator_words(2, 1, 30)
    assert words == generator_words(2, 1, 30)
    degrees = [word_degree(2, w) for w in words]
    assert degrees == sorted(degrees)


def test_odd_prime_kinds_follow_degree_parity():
    for g in enumerate_generators(3, 1, 20):
        assert g.kind == ("exterior" if g.degree % 2 else "polynomial")


def test_rendering():
    assert _render_word(2, (4, 2), "a") == "Q^4 Q^2 a"
    assert _render_word(3, ((1, 2),), "a") == "bQ^2 a"
    assert _render_word(3, ((0, 2), (1, 1)), "a") == "Q^2 bQ^1 a"
    assert _render_word(2, (), "a") == "a"
    assert _render_word(2, (2,), "b") == "Q^2 b"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("gen_degree", [1, 2, 3])
@pytest.mark.parametrize("symbol", ["a", "b"])
def test_generators_equal_the_word_path(p, gen_degree, symbol):
    # The words, checked, rendered and given their degree by the oracle's
    # functions, are the oracle for the generators built from the search.
    for n in sorted({0, gen_degree - 1, gen_degree, 30, 60}):
        expected = []
        for w in generator_words(p, gen_degree, n):
            assert is_admissible(p, w) and (not w or excess(p, w) > gen_degree)
            d = gen_degree + word_degree(p, w)
            kind = "exterior" if p != 2 and d % 2 else "polynomial"
            expected.append((render_word(p, w, symbol), d, kind))
        expected.sort(key=lambda g: (g[1], g[0]))  # GeneratorSet order
        # Each label is its word applied to a, so over another symbol it
        # differs in the last character alone.
        gens = enumerate_generators(p, gen_degree, n)
        assert [(g.label[:-1] + symbol, g.degree, g.kind) for g in gens] == expected, n


# Through the basis-render degrees (p = 2 to 27, p = 3 to 58) and the byte
# pin's, and beyond them.
@pytest.mark.parametrize("p, degrees", [
    (2, (0, 1, 4, 27, 60)),
    (3, (0, 8, 58, 120)),
    (5, (0, 16, 120, 240)),
    (7, (0, 24, 200, 400)),
    (13, (0, 48, 300, 600)),
])
def test_generator_rows_are_the_generator_set_in_order(p, degrees):
    # The listings read the rows; the library reads the Generators.
    for n in degrees:
        rows = generator_rows(p, 1, n)
        assert rows == [(g.degree, g.label, g.kind) for g in enumerate_generators(p, 1, n)], n
        assert rows == sorted(rows) and len({label for _, label, _ in rows}) == len(rows)


def test_degenerate_and_invalid_arguments():
    assert len(enumerate_generators(2, 2, 1)) == 0
    assert len(enumerate_generators(2, 2, 0)) == 0
    with pytest.raises(ValueError):
        enumerate_generators(6, 1, 4)
    with pytest.raises(ValueError):
        enumerate_generators(2, 0, 4)
    with pytest.raises(ValueError):
        enumerate_generators(2, 1, -1)
