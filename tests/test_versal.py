from itertools import accumulate
from math import comb, prod
from operator import add

import pytest

from versalp import cli, dyer_lashof, power_series, versal
from versalp.dyer_lashof import enumerate_generators, generator_series
from versalp.free_algebra import Generator, GeneratorSet, enumerate_monomials
from versalp.power_series import TruncatedSeries, multiply_over_generators
from versalp.steenrod_dual import milnor_degrees, milnor_generator_degrees
from versalp.versal import (
    VerificationError,
    cotangent_series,
    equivalence_count,
    homology_series,
    homotopy_series,
    hz_quotient_comparison,
    selfmap_first_nontrivial,
    steenrod_series,
    structure_map_collision,
    taq_dimensions,
    thh_homology_series,
    verification_battery,
)

from oracles import naive_mul, quotient_over_generators, thh_generators


def test_homology_series_examples():
    assert homology_series(2, 4).coefficients == (1, 1, 1, 2, 3)
    assert homology_series(3, 8).coefficients == (1, 1, 0, 0, 1, 2, 1, 0, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_homology_degree_one_is_one_dimensional(p):
    assert homology_series(p, 1).coefficient(1) == 1


def test_homotopy_report_p2():
    report = homotopy_series(2, 4)
    assert report.homotopy_series.coefficients == (1, 0, 0, 0, 1)
    assert report.gap_verified
    assert report.first_positive_nonzero_degree == 4


def test_homotopy_report_p3_and_p5():
    assert homotopy_series(3, 8).homotopy_series.coefficients == (
        1, 0, 0, 0, 0, 0, 0, 0, 1,
    )
    report = homotopy_series(5, 16)
    coeffs = report.homotopy_series.coefficients
    assert coeffs[0] == 1 and coeffs[16] == 1
    assert all(c == 0 for c in coeffs[1:16])
    assert report.gap_verified


def test_homotopy_above_the_gap_p2():
    # continues 1, 0, 0, 0, 1, 1, 1, 1, 2 through degree 8
    report = homotopy_series(2, 8)
    assert report.homotopy_series.coefficients == (1, 0, 0, 0, 1, 1, 1, 1, 2)
    assert report.gap_verified


def test_homotopy_report_tensor_identity_fields():
    for p, n in ((2, 40), (3, 24), (5, 20)):
        report = homotopy_series(p, n)
        ste = steenrod_series(p, n)
        assert report.homotopy_series.mul(ste) == report.homology_series
        assert min(report.homotopy_series.coefficients) >= 0
        got = naive_mul(list(report.homotopy_series.coefficients), list(ste.coefficients))
        assert got == list(report.homology_series.coefficients)


@pytest.mark.parametrize("p", [2, 7])
def test_tensor_identity_agrees_with_the_kronecker_multiply_back_at_degree_4000(p):
    report = versal.homotopy_report(p, 4000)
    assert report.tensor_identity
    assert report.homotopy_series.mul(steenrod_series(p, 4000)) == report.homology_series


def test_homotopy_truncated_below_the_gap():
    report = homotopy_series(2, 2)
    assert report.homotopy_series.coefficients == (1, 0, 0)
    assert report.gap_verified  # nothing in range contradicts the gap
    assert report.first_positive_nonzero_degree is None


def test_homotopy_negative_coefficient_aborts(monkeypatch):
    homology = versal.homology_series

    def one_negative_at_the_top(p, max_degree, *, over):
        hom, quo = homology(p, max_degree, over=over)
        c = quo.coefficients
        return hom, TruncatedSeries(len(c) - 1, c[:-1] + (-1,))

    monkeypatch.setattr(versal, "homology_series", one_negative_at_the_top)
    with pytest.raises(VerificationError, match="negative homotopy dimension -1 in degree 4"):
        versal.homotopy_series(2, 4)


def _one_too_many_at_the_top(length=None):
    """``versal.homology_series`` whose homotopy series, the second of the
    pair it returns over the Milnor degrees, has one class too many in its
    top degree, when it has ``length`` coefficients or for any length."""
    homology = versal.homology_series

    def split(p, max_degree, *, over):
        hom, quo = homology(p, max_degree, over=over)
        c = quo.coefficients
        if length is None or len(c) == length:
            quo = TruncatedSeries(len(c) - 1, c[:-1] + (c[-1] + 1,))
        return hom, quo

    return split


def test_multiply_back_catches_a_wrong_quotient(monkeypatch, capsys):
    # Degree 24 at p = 3 is far above the gap, so only the multiply-back can
    # see the extra class: the quotient stays nonnegative.  The fold returns
    # the quotient there, so the fault goes in where the report reads it.
    monkeypatch.setattr(versal, "homology_series", _one_too_many_at_the_top())
    with pytest.raises(VerificationError, match="tensor identity"):
        versal.homotopy_series(3, 24)
    verdicts = {v.name: v.passed for v in versal.verification_battery(3, 24)}
    assert verdicts["nonnegativity"] and not verdicts["tensor_identity"]
    assert cli.main(["verify", "--prime", "3", "--max-degree", "24"]) == 2
    assert "FAIL  tensor_identity" in capsys.readouterr().out


@pytest.mark.parametrize("p,expected", [(2, 3), (3, 7), (5, 15)])
def test_selfmap_first_nontrivial(p, expected):
    assert selfmap_first_nontrivial(p) == expected


@pytest.mark.parametrize("p,expected", [(2, 1), (3, 2), (5, 4)])
def test_equivalence_count(p, expected):
    assert equivalence_count(p) == expected


def test_equivalence_count_gate(monkeypatch):
    def broken(p, n):
        return TruncatedSeries.from_coefficients((1, 2), n)

    monkeypatch.setattr(versal, "homology_series", broken)
    with pytest.raises(VerificationError):
        versal.equivalence_count(3)


def test_thh_series():
    assert thh_homology_series(2, 4).coefficients == (1, 1, 2, 3, 5)
    assert thh_homology_series(3, 0).coefficients == (1,)
    assert thh_homology_series(5, 1).coefficients == (1, 1)


def test_thh_matches_direct_tensor_enumeration():
    dims = enumerate_monomials(thh_generators(2, 6), 6).dimensions()
    assert dims == list(thh_homology_series(2, 6).coefficients)


@pytest.mark.parametrize("p", [2, 3])
def test_thh_in_one_fold_is_the_product_of_the_two_factors_at_degree_2000(p):
    loop_factor = generator_series(p, (2,), 2000)
    assert thh_homology_series(p, 2000) == homology_series(p, 2000).mul(loop_factor)


def test_taq_dimensions():
    assert taq_dimensions(2, 4).coefficients == (0, 1, 0, 0, 0)
    assert taq_dimensions(3, 2).coefficients == (0, 1, 0)
    assert taq_dimensions(5, 0).coefficients == (0,)


def test_cotangent_series_is_shifted_homotopy():
    assert cotangent_series(2, 5).coefficients == (0, 1, 0, 0, 0, 1)
    h = homotopy_series(3, 9).homotopy_series
    assert cotangent_series(3, 9).coefficients == (0,) + h.coefficients[:9]


@pytest.mark.parametrize("p,n,expected", [(2, 4, 2), (3, 8, 4), (5, 10, 8)])
def test_hz_quotient_comparison(p, n, expected):
    assert hz_quotient_comparison(p, n) == expected


def test_hz_quotient_comparison_rejects_small_bound():
    with pytest.raises(ValueError):
        hz_quotient_comparison(5, 7)


def test_collision_witness():
    witness = structure_map_collision()
    first, second = witness.source_monomials
    assert first != second
    assert first.degree == 4 and second.degree == 4
    assert {first.render(), second.render()} == {"Q^3 a", "a^4"}
    assert witness.image == "e_1^4"


def test_collision_sources_live_in_the_degree_4_bucket():
    bucket = enumerate_monomials(enumerate_generators(2, 1, 4), 4).bucket(4)
    witness = structure_map_collision()
    assert witness.source_monomials[0] in bucket
    assert witness.source_monomials[1] in bucket


def _degree_4_bucket():
    """The degree-4 basis monomials at p = 2 by name: a^4, a·Q^2 a, Q^3 a."""
    bucket = enumerate_monomials(enumerate_generators(2, 1, 4), 4).bucket(4)
    return {m.render(): m for m in bucket}


def test_collision_witness_rejects_two_equal_sources():
    a4 = _degree_4_bucket()["a^4"]
    with pytest.raises(ValueError, match="distinct"):
        versal.CollisionWitness((a4, a4), "e_1^4")


def test_collision_witness_rejects_a_source_outside_degree_4():
    a4 = _degree_4_bucket()["a^4"]
    a3 = enumerate_monomials(enumerate_generators(2, 1, 3), 3).bucket(3)[0]
    with pytest.raises(ValueError, match="degree 4"):
        versal.CollisionWitness((a4, a3), "e_1^4")


def test_bordism_image_raises_on_a_monomial_with_no_stored_relation():
    with pytest.raises(VerificationError, match="no stored relation for 'Q\\^2 a'"):
        versal._bordism_image(_degree_4_bucket()["a·Q^2 a"])


def test_collision_raises_when_the_degree_4_bucket_lacks_q3a(monkeypatch, capsys):
    def without_q3a(p, gen_degree, max_degree):
        gens = enumerate_generators(p, gen_degree, max_degree)
        return GeneratorSet(g for g in gens if g.label != "Q^3 a")

    monkeypatch.setattr(versal, "enumerate_generators", without_q3a)
    with pytest.raises(VerificationError, match="lacks an expected monomial"):
        structure_map_collision()
    assert cli.main(["verify", "--prime", "2"]) == 2
    assert "FAIL  collision_witness" in capsys.readouterr().out


def test_collision_raises_when_the_two_images_disagree(monkeypatch, capsys):
    monkeypatch.setattr(versal, "_IMAGE_E1_EXPONENT", {"a": 1, "Q^3 a": 3})
    with pytest.raises(VerificationError, match="images disagree: e_1\\^3 vs e_1\\^4"):
        structure_map_collision()
    assert cli.main(["collision"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "images disagree" in err


def test_first_difference_raises_on_a_series_equal_to_1_plus_t():
    with pytest.raises(ValueError, match="agree up to degree 5"):
        versal._first_difference(TruncatedSeries.from_coefficients([1, 1], 5))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_verification_battery_all_pass(p):
    verdicts = verification_battery(p, 4 * (p - 1))
    assert all(v.passed for v in verdicts), [v for v in verdicts if not v.passed]
    names = {v.name for v in verdicts}
    assert {"gap", "tensor_identity", "nonnegativity", "hz_first_difference"} <= names
    assert ("collision_witness" in names) == (p == 2)


def test_verification_battery_reports_failures(monkeypatch, capsys):
    # The identity multiplies the quotient back by the Milnor generators
    # themselves; the Steenrod series feeds only the cotangent check.
    def broken(p, n):
        return TruncatedSeries.from_coefficients((1, 0), n)

    monkeypatch.setattr(versal, "steenrod_series", broken)
    verdicts = versal.verification_battery(2, 4)
    failed = {v.name for v in verdicts if not v.passed}
    assert failed == {"cotangent_shift"}
    assert cli.main(["verify", "--prime", "2", "--max-degree", "4"]) == 2
    assert "FAIL  cotangent_shift" in capsys.readouterr().out


def test_fixed_scale_checks_fail_with_the_library_errors(monkeypatch):
    # H_1 = 2 and a quotient with no positive-degree class: the battery's
    # fixed-scale checks fail with the texts the library functions raise.
    hom = TruncatedSeries.from_coefficients((1, 2), 8)
    report = versal.HomotopyReport(3, 8, hom, TruncatedSeries.one(8), True, None, True, True)
    details = {v.name: v.detail for v in versal.battery_verdicts(report) if not v.passed}
    monkeypatch.setattr(versal, "homology_series", lambda p, n: hom)
    monkeypatch.setattr(versal, "homotopy_series", lambda p, n: report)
    with pytest.raises(VerificationError) as equivalences:
        versal.equivalence_count(3)
    with pytest.raises(VerificationError) as selfmap:
        versal.selfmap_first_nontrivial(3)
    assert details["h1_dimension"] == "H_1 dimension 2"
    assert details["equivalence_count"] == str(equivalences.value)
    assert details["selfmap_degree"] == str(selfmap.value)
    assert str(equivalences.value) == (
        "H_1 dimension is 2, not 1; the p - 1 count does not apply")
    assert str(selfmap.value) == "no nonzero positive coefficient up to degree 8 at p=3"


def _count_calls(monkeypatch, name):
    """The arguments of every ``versal.<name>`` call from now on."""
    function = getattr(versal, name)
    seen = []

    def counted(*args, **kwargs):
        seen.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(versal, name, counted)
    return seen


@pytest.mark.parametrize("argv,calls", [
    (["homotopy", "--prime", "2", "--max-degree", "40"], []),
    (["taq", "--prime", "3", "--max-degree", "30"], []),
    (["verify", "--prime", "3", "--max-degree", "60"], [(3, 60)]),
])
def test_steenrod_series_is_built_only_for_the_cotangent_check(monkeypatch, capsys, argv, calls):
    seen = _count_calls(monkeypatch, "steenrod_series")
    assert cli.main(argv) == 0
    assert seen == calls


# verify reads its fixed-scale checks from its own report when that reaches
# 4(p-1), and from one more report at 4(p-1) when it does not.
@pytest.mark.parametrize("p,n,reports", [(3, 60, [(3, 60)]), (7, 5, [(7, 5), (7, 24)])])
def test_verify_computes_each_series_once(monkeypatch, capsys, p, n, reports):
    names = ("homotopy_report", "homology_series", "homotopy_series", "equivalence_count",
             "selfmap_first_nontrivial", "hz_quotient_comparison")
    seen = {name: _count_calls(monkeypatch, name) for name in names}
    assert cli.main(["verify", "--prime", str(p), "--max-degree", str(n)]) == 0
    expected = {name: [] for name in names}
    expected["homotopy_report"] = expected["homology_series"] = reports
    assert seen == expected


def test_selfmap_check_fails_on_a_fault_only_its_own_report_holds(monkeypatch, capsys):
    # At p = 3, N = 4 the report at 4(p-1) = 8 is read only by the fixed-scale
    # checks. The extra class leaves H_1, the first HZ/p difference and the
    # first positive degree as they are: only that report's tensor identity
    # sees it, and only the self-map check verifies that identity.
    monkeypatch.setattr(versal, "homology_series", _one_too_many_at_the_top(length=9))
    assert cli.main(["verify", "--prime", "3", "--max-degree", "4"]) == 2
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL  selfmap_degree  (tensor identity failed at p=3: "
                      "homotopy * steenrod != homology)"]


@pytest.mark.parametrize("n", [0, 1, 12])
def test_cotangent_shift_fails_when_the_suspension_shifts_nothing(monkeypatch, n):
    assert next(v for v in verification_battery(3, n) if v.name == "cotangent_shift").passed
    monkeypatch.setattr(versal, "_suspension", lambda h: h)
    verdict = next(v for v in verification_battery(3, n) if v.name == "cotangent_shift")
    assert not verdict.passed
    assert verdict.detail == "equals t * homotopy"


def _first_kind_swapped(p, n):
    """``milnor_degrees`` with its first degree, xi_1 at p = 2 and tau_0 at
    odd p, moved to the other list."""
    xi, tau = milnor_degrees(p, n)
    return (xi[1:], [xi[0], *tau]) if p == 2 else ([tau[0], *xi], tau[1:])


def _first_xi_kept(polynomial, exterior, over=None):
    """``power_series._fold_counts`` with the first xi degree of ``over``
    left in the counts: one generator more there is one taken out less."""
    if over is not None:
        polynomial = list(polynomial)
        polynomial[over[0][0]] += 1
    return power_series._fold_counts(polynomial, exterior, over)


def _milnor_phase(twice=False, short=False, narrow=False, early=False):
    """A copy of ``power_series._times_factors``, the Milnor factors applied
    last on both fold paths, with one fault: the first factor, (1 + t) for
    tau_0 at odd p and xi_1 at p = 2, applied twice; the top doubling of a
    xi degree, the largest even shift, left out; the slots one byte short of
    the bound, where the Euler path packs its series or the factor path
    widens; or the reduced series read after the factors, not before."""
    def times_factors(x, w, reduced, over):
        n = len(reduced) - 1
        xi, tau = over
        bound = max(reduced) * prod(n // d + 1 for d in xi) << len(tau)
        v = (bound.bit_length() + 7) // 8 - narrow
        if v > w:
            x, w = power_series._pack(reduced, v), v
        shifts = power_series._shifts(xi, tau, n)
        if twice:
            shifts = shifts + shifts[:1]
        if short:
            shifts.remove(max(s for s in shifts if s % 2 == 0))
        full = (1 << 8 * w * (n + 1)) - 1
        for s in shifts:
            x += (x << 8 * w * s) & full
        series = TruncatedSeries(n, power_series._unpack(x, w, n + 1))
        return series, series if early else TruncatedSeries(n, reduced)

    return times_factors


# (owner, name, replacement, what verify shows): a FAIL line on stdout, or
# the one stderr line of a report the fold refuses.
STEENROD_MUTANTS = {
    "milnor_kind": (versal, "milnor_degrees", _first_kind_swapped,
                    "versalp: verification failed: no "),
    "factor_twice": (power_series, "_times_factors", _milnor_phase(twice=True),
                     "FAIL  tensor_identity"),
    "doubling_short": (power_series, "_times_factors", _milnor_phase(short=True),
                       "FAIL  tensor_identity"),
    "widening_short": (power_series, "_times_factors", _milnor_phase(narrow=True),
                       "FAIL  tensor_identity"),
    "factors_first": (power_series, "_times_factors", _milnor_phase(early=True),
                      "FAIL  tensor_identity"),
    "xi_kept": (dyer_lashof, "_fold_counts", _first_xi_kept, "FAIL  gap"),
}


# Both sides of the switch from the factor path to the Euler path, p = 2
# above N = 157 and p = 3 above 799, on the copy the mutants are made from.
@pytest.mark.parametrize("p,n", [(2, 40), (3, 60), (2, 158), (3, 800)])
def test_the_unmutated_milnor_phase_copy_is_the_kernel(monkeypatch, p, n):
    milnor = milnor_degrees(p, n)
    expected = homology_series(p, n, over=milnor)
    monkeypatch.setattr(power_series, "_times_factors", _milnor_phase())
    assert homology_series(p, n, over=milnor) == expected
    assert list(expected[1].coefficients) == quotient_over_generators(
        expected[0].coefficients, *milnor)


# Every mutant but widening_short runs on both sides of the switch.  The
# bound of the last phase is within a byte of the homology's largest
# coefficient only at some degrees: none on the factor path at p = 2 below
# 158 or p = 3 below 800, and none on the Euler path at p = 2 up to N = 699,
# p = 3 up to 1,399 or p = 5 up to 3,099.  At (5, 240) the factor path's
# slots widen from 2 to 3 bytes and the largest coefficient takes 17 bits;
# test_the_euler_path_packs_at_the_bound kills it on the Euler path.
@pytest.mark.parametrize("mutant,p,n", [
    ("milnor_kind", 2, 40), ("milnor_kind", 3, 60),
    *((m, p, n) for m in ("factor_twice", "doubling_short", "factors_first", "xi_kept")
      for p, n in ((2, 40), (3, 60), (2, 158), (3, 800))),
    ("widening_short", 5, 240),
])
def test_verify_fails_under_mutants_of_the_steenrod_passes(monkeypatch, capsys, mutant, p, n):
    owner, name, replacement, shown = STEENROD_MUTANTS[mutant]
    monkeypatch.setattr(owner, name, replacement)
    assert cli.main(["verify", "--prime", str(p), "--max-degree", str(n)]) == 2
    out, err = capsys.readouterr()
    # The forward kernel of the identity shares no pass with the fold's last
    # phase, so the identity sees its mutants.  One Milnor degree left in
    # the counts leaves the pair consistent, and the gap check sees the class
    # it leaves in the homotopy series.  A Milnor degree moved to the other
    # list names no generator of its kind, and the fold refuses the report.
    if name == "milnor_degrees":
        assert out == "" and err.count("\n") == 1 and err.startswith(shown), err
        assert "generator left in degree 1 to take out of the counts" in err
    else:
        assert shown in out


@pytest.mark.parametrize("mutant,p,n", [
    *((m, p, n) for m in ("factor_twice", "doubling_short")
      for p, n in ((2, 40), (3, 60), (2, 158), (3, 800))),
    ("widening_short", 5, 240),
])
def test_the_milnor_phase_mutants_change_only_the_homology(monkeypatch, mutant, p, n):
    # Without the mutant the report holds; with it the homotopy series, read
    # before the last phase, is the same and the homology is not.
    milnor = milnor_degrees(p, n)
    hom, quo = homology_series(p, n, over=milnor)
    assert multiply_over_generators(quo, *milnor) == hom
    owner, name, replacement, _ = STEENROD_MUTANTS[mutant]
    monkeypatch.setattr(owner, name, replacement)
    wrong, same = homology_series(p, n, over=milnor)
    assert same == quo and wrong != hom


def test_the_euler_path_packs_at_the_bound(monkeypatch):
    # 216 polynomial generators of degree 1 through N = 10 make 648
    # doublings, above the 600 of the Euler path.  With one taken out the
    # top coefficient C(224, 10) takes 56 bits, times 11 the bound 60, so 8
    # bytes; the product's top coefficient C(225, 10) takes 57 bits, and
    # 7-byte slots carry.
    polynomial, exterior, over = [0, 216] + [0] * 9, [0] * 11, ([1], [])
    series, reduced = power_series._fold_counts(polynomial, exterior, over)
    assert series.coefficients == tuple(comb(215 + k, k) for k in range(11))
    assert list(reduced.coefficients) == quotient_over_generators(series.coefficients, *over)
    monkeypatch.setattr(power_series, "_times_factors", _milnor_phase(narrow=True))
    wrong, same = power_series._fold_counts(polynomial, exterior, over)
    assert same == reduced and wrong != series


def _forward(skip_class=False, block_offset=0, exterior_shift=0):
    """``multiply_over_generators`` with one fault: residue class 0 of a
    prefix-summed polynomial factor skipped, each block added from one degree
    higher, or an exterior factor shifted by d - 1 (not applied for d = 1)."""
    def multiply(series, polynomial, exterior):
        c = list(series.coefficients)
        n = len(c) - 1
        for d in polynomial:
            if d * d <= n:
                for r in range(skip_class, d):
                    c[r::d] = accumulate(c[r::d])
            else:
                for k in range(d, n + 1, d):
                    lo = k - d + block_offset
                    c[k:k + d] = map(add, c[k:k + d], c[lo:lo + d])
        for s in (e - exterior_shift for e in exterior if e <= n):
            if s:
                c[s:] = map(add, c[s:], c[:-s])
        return TruncatedSeries(n, tuple(c))
    return multiply


FORWARD_MUTANTS = {
    "skipped_class": _forward(skip_class=True),
    "block_offset": _forward(block_offset=1),
    "exterior_shift": _forward(exterior_shift=1),
}


# p = 2 has no exterior Milnor generator, so the exterior mutant runs at odd
# primes only.
@pytest.mark.parametrize("mutant,p,n", [
    ("skipped_class", 2, 40), ("skipped_class", 3, 60),
    ("block_offset", 2, 40), ("block_offset", 3, 60),
    ("exterior_shift", 3, 60), ("exterior_shift", 5, 100),
])
def test_tensor_identity_fails_under_mutants_of_the_forward_kernel(
    monkeypatch, capsys, mutant, p, n
):
    # Without its fault the copy is the kernel, on the inputs verify gives it.
    quo = versal.homotopy_report(p, n).homotopy_series
    milnor = milnor_degrees(p, n)
    assert _forward()(quo, *milnor) == multiply_over_generators(quo, *milnor)
    monkeypatch.setattr(versal, "multiply_over_generators", FORWARD_MUTANTS[mutant])
    assert cli.main(["verify", "--prime", str(p), "--max-degree", str(n)]) == 2
    assert "FAIL  tensor_identity" in capsys.readouterr().out


# The series come from degree counts and degree lists, and the basis and
# steenrod listings from (degree, label, kind) rows, so none of them builds
# a Generator. At odd p verify lists nothing: its recounts read word degrees.
@pytest.mark.parametrize("p", [2, 3, 7])
def test_series_reports_build_no_generator(monkeypatch, capsys, p):
    def refuse(self, *fields):
        raise AssertionError(f"a series report built a Generator {fields}")

    monkeypatch.setattr(Generator, "__init__", refuse)
    with pytest.raises(AssertionError):
        milnor_generator_degrees(p, 60)
    assert versal.homotopy_report(p, 60).tensor_identity
    assert steenrod_series(p, 60).coefficient(0) == 1
    for command in ("homology", "homotopy", "thh") + (("verify",) if p != 2 else ()):
        assert cli.main([command, "--prime", str(p), "--max-degree", "60"]) == 0
    for command in ("basis", "steenrod"):
        for fmt in ("table", "json", "csv"):
            argv = [command, "--prime", str(p), "--max-degree", "24", "--format", fmt]
            assert cli.main(argv) == 0, argv
