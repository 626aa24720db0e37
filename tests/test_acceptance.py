"""End-to-end checks, one per shipping criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Every expected value here was computed independently
before the library code existed; do not edit them to match the library.
"""

import random
import time

from versalp import versal
from versalp.dyer_lashof import enumerate_generators
from versalp.free_algebra import Generator, GeneratorSet, enumerate_monomials, series_of
from versalp.power_series import TruncatedSeries
from versalp.steenrod_dual import milnor_generator_degrees

from oracles import thh_generators


def _check(num, description, passed):
    print(f"acceptance {num:02d} {description}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num}: {description}"


def _within(budget_seconds, started):
    return time.perf_counter() - started < budget_seconds


def test_criterion_01_homotopy_is_two_cells():
    started = time.perf_counter()
    ok = True
    for p in (2, 3, 5, 7):
        top = 4 * (p - 1)
        expected = tuple(1 if d in (0, top) else 0 for d in range(top + 1))
        report = versal.homotopy_series(p, top)
        ok = ok and report.homotopy_series.coefficients == expected
        ok = ok and report.gap_verified
    ok = ok and _within(1.0 * 4, started)
    _check(1, "homotopy series equals 1 + t^(4p-4) for p in {2,3,5,7}", ok)


def test_criterion_02_homology_dimension_one_in_degree_1():
    started = time.perf_counter()
    ok = all(versal.homology_series(p, 1).coefficient(1) == 1 for p in (2, 3, 5, 7))
    ok = ok and _within(1.0, started)
    _check(2, "homology has exactly one generator in degree 1", ok)


def test_criterion_03_low_degree_bases_at_p3():
    started = time.perf_counter()
    basis = enumerate_monomials(enumerate_generators(3, 1, 8), 8)
    listed = {m.render() for bucket in basis.buckets for m in bucket}
    expected = {
        "1", "a", "bQ^1 a", "a·bQ^1 a", "Q^1 a", "a·Q^1 a", "(bQ^1 a)^2", "bQ^2 a",
    }
    ok = listed == expected
    ok = ok and len(basis.bucket(8)) == 2

    dual = enumerate_monomials(milnor_generator_degrees(3, 8), 8)
    dual_listed = {m.render() for bucket in dual.buckets for m in bucket}
    ok = ok and dual_listed == {
        "1", "tau_0", "xi_1", "tau_0·xi_1", "tau_1", "tau_0·tau_1", "xi_1^2",
    }
    ok = ok and len(dual_listed) == 7
    ok = ok and _within(1.0, started)
    _check(3, "degree<=8 additive bases at p=3 match the published lists", ok)


def _random_generator_set(rng):
    count = rng.randint(1, 6)
    gens = []
    for i in range(count):
        gens.append(Generator(
            label=f"g{i}",
            degree=rng.randint(1, 12),
            kind=rng.choice(("polynomial", "exterior")),
        ))
    return GeneratorSet(tuple(gens))


def test_criterion_04_enumeration_matches_series():
    started = time.perf_counter()
    ok = True
    for p, bound in ((2, 30), (3, 24)):
        gens = enumerate_generators(p, 1, bound)
        basis = enumerate_monomials(gens, bound)
        ok = ok and basis.dimensions() == list(series_of(gens, bound).coefficients)
    rng = random.Random(20260815)
    for _ in range(50):
        gens = _random_generator_set(rng)
        bound = rng.randint(0, 20)
        basis = enumerate_monomials(gens, bound)
        ok = ok and basis.dimensions() == list(series_of(gens, bound).coefficients)
    ok = ok and _within(10.0, started)
    _check(4, "monomial counts agree with the generating function", ok)


def test_criterion_05_division_recomposes_and_stays_nonnegative():
    started = time.perf_counter()
    ok = True
    for p, bound in ((2, 60), (3, 24)):
        report = versal.homotopy_series(p, bound)
        homotopy = report.homotopy_series
        ok = ok and homotopy.mul(versal.steenrod_series(p, bound)) == report.homology_series
        ok = ok and all(c >= 0 for c in homotopy.coefficients)
    ok = ok and _within(30.0, started)
    _check(5, "homotopy x dual Steenrod recomposes homology, nonnegatively", ok)


def test_criterion_06_equivalence_counts():
    started = time.perf_counter()
    ok = tuple(versal.equivalence_count(p) for p in (2, 3, 5)) == (1, 2, 4)
    ok = ok and _within(1.0, started)
    _check(6, "equivalence counts are 1, 2, 4 at p = 2, 3, 5", ok)


def test_criterion_07_first_nontrivial_selfmap():
    started = time.perf_counter()
    ok = all(versal.selfmap_first_nontrivial(p) == 4 * p - 5 for p in (2, 3, 5))
    ok = ok and _within(1.0, started)
    _check(7, "first nontrivial self-map degree is 4p-5", ok)


def test_criterion_08_thh_series_with_independent_recount():
    started = time.perf_counter()
    series = versal.thh_homology_series(2, 4)
    ok = series.coefficients == (1, 1, 2, 3, 5)
    recount = enumerate_monomials(thh_generators(2, 4), 4).dimensions()
    ok = ok and recount == list(series.coefficients)
    ok = ok and _within(1.0, started)
    _check(8, "THH dimension series is 1,1,2,3,5 through degree 4", ok)


def test_criterion_09_taq_single_cell_and_cotangent_shift():
    started = time.perf_counter()
    ok = True
    for p, bound in ((2, 8), (3, 8), (5, 16)):
        taq = versal.taq_dimensions(p, bound)
        expected = tuple(1 if d == 1 else 0 for d in range(bound + 1))
        ok = ok and taq.coefficients == expected
        homotopy = versal.homotopy_series(p, bound).homotopy_series
        shifted = (0,) + homotopy.coefficients[:bound]
        ok = ok and versal.cotangent_series(p, bound).coefficients == shifted
    ok = ok and _within(1.0, started)
    _check(9, "TAQ is one cell in degree 1 and cotangent shifts homotopy", ok)


def test_criterion_10_hz_first_difference():
    started = time.perf_counter()
    ok = tuple(versal.hz_quotient_comparison(p, 4 * (p - 1)) for p in (2, 3, 5)) \
        == (2, 4, 8)
    ok = ok and _within(1.0, started)
    _check(10, "first divergence from the HZ quotient sits at 2p-2", ok)


def test_criterion_11_collision_witness():
    started = time.perf_counter()
    witness = versal.structure_map_collision()
    first, second = witness.source_monomials
    ok = (first.render(), second.render()) == ("Q^3 a", "a^4")
    ok = ok and first != second
    ok = ok and first.degree == 4 and second.degree == 4
    ok = ok and witness.image == "e_1^4"
    ok = ok and _within(1.0, started)
    _check(11, "degree-4 monomials Q^3 a and a^4 share image e_1^4", ok)


def _random_series(rng, bound):
    return TruncatedSeries.from_coefficients(
        [rng.randint(-9, 9) for _ in range(bound + 1)], bound)


def test_criterion_12_series_algebra_laws():
    started = time.perf_counter()
    rng = random.Random(4241)
    ok = True
    for _ in range(200):
        bound = rng.randint(0, 64)
        a = _random_series(rng, bound)
        b = _random_series(rng, bound)
        c = _random_series(rng, bound)
        ok = ok and a.mul(b) == b.mul(a)
        ok = ok and a.mul(b).mul(c) == a.mul(b.mul(c))
        den = TruncatedSeries.from_coefficients(
            [1] + [rng.randint(-9, 9) for _ in range(bound)], bound)
        ok = ok and a.div(den).mul(den) == a
        ok = ok and a.mul(den).div(den) == a
    ok = ok and _within(5.0, started)
    _check(12, "commutativity, associativity, div/mul round-trips hold", ok)
