import math

import pytest

from versalp.dyer_lashof import AdmissibleWord, enumerate_generators, generator_words

from oracles import brute_words_odd, brute_words_p2


def test_degree_examples():
    assert AdmissibleWord(2, (3,)).degree(1) == 4
    assert AdmissibleWord(3, ((1, 2),)).degree(1) == 8
    assert AdmissibleWord(2, ()).degree(1) == 1
    assert AdmissibleWord(5, ()).degree(1) == 1


def test_excess_values():
    assert AdmissibleWord(2, (4, 2)).excess == 2
    assert AdmissibleWord(3, ((1, 1),)).excess == 2
    assert AdmissibleWord(3, ((1, 1), (1, 1))).excess == 2 - 5
    assert AdmissibleWord(2, ()).excess == math.inf


def test_admissibility_enforced_on_construction():
    with pytest.raises(ValueError):
        AdmissibleWord(2, (5, 2))  # 5 > 2*2
    with pytest.raises(ValueError):
        AdmissibleWord(3, ((0, 4), (1, 1)))  # 4 > 3*1 - 1
    with pytest.raises(ValueError):
        AdmissibleWord(2, (0,))
    with pytest.raises(ValueError):
        AdmissibleWord(3, ((2, 1),))
    with pytest.raises(ValueError):
        AdmissibleWord(4, (2,))  # 4 is not prime


def test_enumerate_p2_through_degree_8():
    gens = enumerate_generators(2, 1, 8)
    assert [g.degree for g in gens] == [1, 3, 4, 5, 6, 7, 7, 8]
    words = {w.entries for w in generator_words(2, 1, 8)}
    assert words == {(), (2,), (3,), (4,), (5,), (6,), (4, 2), (7,)}
    assert all(g.kind == "polynomial" for g in gens)


def test_squaring_word_is_not_a_generator():
    words = {w.entries for w in generator_words(2, 1, 8)}
    assert (1,) not in words  # excess 1 on a degree-1 class is a square
    assert AdmissibleWord(2, (1,)).excess == 1


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
    w = AdmissibleWord(3, ((1, 1), (1, 1)))  # admissible by construction
    assert w.excess < 1
    words = {x.entries for x in generator_words(3, 1, 20)}
    assert ((1, 1), (1, 1)) not in words


@pytest.mark.parametrize("p", [2, 3])
def test_enumeration_matches_brute_force_through_degree_20(p):
    budget = 20 - 1
    fast = sorted(
        w.entries for w in generator_words(p, 1, 20) if w.entries
    )
    slow = brute_words_p2(1, budget) if p == 2 else brute_words_odd(p, 1, budget)
    assert fast == slow


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (3, 3)])
def test_brute_force_other_generator_degrees(p, n):
    bound = 16
    fast = sorted(w.entries for w in generator_words(p, n, bound) if w.entries)
    budget = bound - n
    slow = brute_words_p2(n, budget) if p == 2 else brute_words_odd(p, n, budget)
    assert fast == slow


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
        for w in generator_words(p, 1, 24):
            if not w.entries:
                continue
            assert w.excess > 1
            if p == 2:
                pairs = zip(w.entries, w.entries[1:])
                assert all(i <= 2 * j for i, j in pairs)
            else:
                pairs = zip(w.entries, w.entries[1:])
                assert all(s <= p * s2 - e2 for (_, s), (e2, s2) in pairs)


def test_ordering_is_deterministic_and_degree_sorted():
    words = generator_words(2, 1, 30)
    assert words == generator_words(2, 1, 30)
    degrees = [w.degree(1) for w in words]
    assert degrees == sorted(degrees)


def test_odd_prime_kinds_follow_degree_parity():
    for g in enumerate_generators(3, 1, 20):
        assert g.kind == ("exterior" if g.degree % 2 else "polynomial")


def test_rendering():
    assert AdmissibleWord(2, (4, 2)).render() == "Q^4 Q^2 a"
    assert AdmissibleWord(3, ((1, 2),)).render() == "bQ^2 a"
    assert AdmissibleWord(3, ((0, 2), (1, 1))).render() == "Q^2 bQ^1 a"
    assert AdmissibleWord(2, ()).render() == "a"
    assert AdmissibleWord(2, (2,)).render("b") == "Q^2 b"


def test_generator_symbol_controls_labels():
    gens = enumerate_generators(2, 2, 5, symbol="b")
    assert [(g.label, g.degree) for g in gens] == [("b", 2), ("Q^3 b", 5)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("gen_degree", [1, 2, 3])
@pytest.mark.parametrize("symbol", ["a", "b"])
def test_generators_equal_the_word_path(p, gen_degree, symbol):
    # AdmissibleWord, validated and rendered word by word, is the oracle for
    # the generators built from the search's raw entry tuples.
    for n in sorted({0, gen_degree - 1, gen_degree, 30, 60}):
        expected = []
        for w in generator_words(p, gen_degree, n):
            d = w.degree(gen_degree)
            kind = "exterior" if p != 2 and d % 2 else "polynomial"
            expected.append((w.render(symbol), d, kind))
        expected.sort(key=lambda g: (g[1], g[0]))  # GeneratorSet order
        gens = enumerate_generators(p, gen_degree, n, symbol)
        assert [(g.label, g.degree, g.kind) for g in gens] == expected, n


def test_degenerate_and_invalid_arguments():
    assert len(enumerate_generators(2, 2, 1)) == 0
    assert len(enumerate_generators(2, 2, 0)) == 0
    with pytest.raises(ValueError):
        enumerate_generators(6, 1, 4)
    with pytest.raises(ValueError):
        enumerate_generators(2, 0, 4)
    with pytest.raises(ValueError):
        enumerate_generators(2, 1, -1)
