"""Verifiable reports on the versal characteristic-p commutative ring spectrum.

The mod-p homology is the free algebra over the Dyer-Lashof algebra on one
class of degree 1; dividing its dimension series by that of the dual
Steenrod algebra yields the homotopy dimension series.  Derived reports
cover topological Hochschild homology, topological Andre-Quillen homology,
the equivalence count, the comparison with the ordinary quotient over the
integers, and the bordism structure-map collision at p = 2.
"""

from __future__ import annotations

from operator import mul

from .dyer_lashof import _word_series, enumerate_generators, generator_series
from .free_algebra import Monomial, enumerate_monomials
# bench/tracing.py wraps series_of under this module's name.
from .free_algebra import series_of  # noqa: F401
from .power_series import TruncatedSeries, VerificationError, _sparse_product, cleared_identity
from .primes import require_prime
from .steenrod_dual import milnor_degrees
from .value import Value

# Homotopy entries are F_p dimensions; reading the degree-n entry as the
# n-th homotopy group relies on the additive splitting into graded
# Eilenberg-Mac Lane pieces, which holds here but is not recomputed.
SPLITTING_ASSUMPTION = (
    "series entries are F_p dimensions; identifying them with homotopy groups "
    "uses the additive graded Eilenberg-Mac Lane splitting"
)

# Tor over Z of Z/p with itself has dimension 1 in homological degrees 0
# and 1 and vanishes above; as a dimension sequence that is [1, 1, 0, ...].
TOR_ASSUMPTION = (
    "comparison target is the two-term Tor dimension sequence [1, 1, 0, ...]"
)


def homology_series(p: int, max_degree: int, *,
                    over: tuple[list[int], list[int]] | None = None,
                    ) -> TruncatedSeries | tuple[TruncatedSeries, TruncatedSeries]:
    """Mod-p homology dimension series, free over the Dyer-Lashof algebra
    on one degree-1 class.

    Only the number of free generators in each degree matters, so the
    admissible words are counted per degree, never built, and the counts
    are folded into the series (``dyer_lashof.generator_series``).  With
    ``over``, the Milnor degrees (``milnor_degrees``), it returns the pair
    (homology, homotopy series) of that fold (``homotopy_report``).
    """
    return generator_series(p, (1,), max_degree, over)


def steenrod_series(p: int, max_degree: int) -> TruncatedSeries:
    """Dimension series of the mod-p dual Steenrod algebra, polynomial on
    the xi_i and exterior on the tau_i (Milnor 1958): the Milnor degrees
    (``milnor_degrees``) as one term of the packed product
    ``power_series._sparse_product``, which shares no pass with
    ``multiply_over_generators`` on the same degrees."""
    xi, tau = milnor_degrees(p, max_degree)
    return TruncatedSeries(max_degree, _sparse_product([((0,), xi, tau)], max_degree))


class HomotopyReport(Value):
    """The series of ``homotopy_report`` and the outcome of each identity."""

    __slots__ = ("prime", "truncation_degree", "homology_series", "homotopy_series",
                 "gap_verified", "first_positive_nonzero_degree", "nonnegative", "tensor_identity")

    prime: int
    truncation_degree: int
    homology_series: TruncatedSeries
    homotopy_series: TruncatedSeries
    gap_verified: bool
    first_positive_nonzero_degree: int | None
    nonnegative: bool
    tensor_identity: bool


def homotopy_report(p: int, max_degree: int) -> HomotopyReport:
    """The quotient homology / dual Steenrod with every identity's outcome
    recorded, not raised.

    The dual Steenrod algebra is polynomial on the xi_i tensor exterior on
    the tau_i (Milnor).  The one ``homology_series`` call over the Milnor
    degrees returns the homology and the quotient: on either path the fold
    takes one generator per Milnor degree out of the counts, reads the
    quotient, and applies the Milnor factors last for the homology
    (``power_series._fold_counts``).  The ``tensor_identity`` outcome
    checks that the homology is the quotient times those factors with the
    denominators cleared (``power_series.cleared_identity``): the homology
    times prod (1 - t^d) over the xi degrees against the quotient times
    prod (1 + t^e) over the tau degrees, every coefficient, on two packed
    integers that share no pass with the fold's last phase.  Only the
    Milnor degrees (``milnor_degrees``) are shared by both sides.

    ``gap_verified`` records whether the coefficients are 1 at degree 0,
    vanish strictly between 0 and 4(p-1), and equal 1 at 4(p-1) when that
    degree is in range.
    """
    milnor = milnor_degrees(p, max_degree)
    hom, quo = homology_series(p, max_degree, over=milnor)
    c = quo.coefficients
    top = 4 * (p - 1)
    gap = c[0] == 1 and not any(c[1:min(top, max_degree + 1)])
    gap = gap and (max_degree < top or c[top] == 1)
    first = next((d for d in range(1, max_degree + 1) if c[d]), None)
    identity = cleared_identity(hom, quo, *milnor)
    return HomotopyReport(p, max_degree, hom, quo, gap, first, min(c) >= 0, identity)


def _checked(report: HomotopyReport) -> HomotopyReport:
    """``report``, or a VerificationError naming the identity it fails."""
    if not report.nonnegative:
        c = report.homotopy_series.coefficients
        d = next(d for d, x in enumerate(c) if x < 0)
        raise VerificationError(
            f"negative homotopy dimension {c[d]} in degree {d} at p={report.prime}"
        )
    if not report.tensor_identity:
        raise VerificationError(
            f"tensor identity failed at p={report.prime}: "
            "homotopy * steenrod != homology"
        )
    return report


def homotopy_series(p: int, max_degree: int) -> HomotopyReport:
    """Homotopy dimension series as the quotient homology / dual Steenrod.

    The quotient is checked for nonnegativity and, with the denominators
    cleared, against the homology (``homotopy_report``); a failure raises
    VerificationError.
    """
    return _checked(homotopy_report(p, max_degree))


def _selfmap_degree(report: HomotopyReport) -> int:
    """One below the first positive-degree class of the ``_checked`` report."""
    first = _checked(report).first_positive_nonzero_degree
    if first is None:
        raise VerificationError(f"no nonzero positive coefficient up to degree "
                                f"{report.truncation_degree} at p={report.prime}")
    return first - 1


def selfmap_first_nontrivial(p: int) -> int:
    """Dimension of the first nontrivial homotopy of the self-map space,
    one below the first positive-degree class; computed from the series."""
    return _selfmap_degree(homotopy_series(p, 4 * (p - 1)))


def _equivalences(p: int, h1: int) -> int:
    """p - 1, when the degree-1 homology dimension ``h1`` is 1."""
    if h1 != 1:
        raise VerificationError(f"H_1 dimension is {h1}, not 1; the p - 1 count does not apply")
    return p - 1


def equivalence_count(p: int) -> int:
    """Number of homotopy classes of equivalences, p - 1; valid only while
    the degree-1 homology is one-dimensional, so that is checked first."""
    return _equivalences(p, homology_series(p, 1).coefficient(1))


def thh_homology_series(p: int, max_degree: int) -> TruncatedSeries:
    """Mod-p homology series of topological Hochschild homology: the base
    series times the free algebra on one degree-2 class (the unreduced
    series of the basepoint-adjoined free infinite loop space on S^2).

    The product is the free algebra on the generators over both classes, so
    their generator counts per degree are summed and folded once; the
    ``thh_tensor`` check of the battery recounts it from the words over both
    classes (``dyer_lashof._word_series``).
    """
    return generator_series(p, (1, 2), max_degree)


def taq_dimensions(p: int, max_degree: int) -> TruncatedSeries:
    """Topological Andre-Quillen homology dimensions: a single 1 in
    degree 1."""
    require_prime(p)
    coeffs = [0] * (max_degree + 1)
    if max_degree >= 1:
        coeffs[1] = 1
    return TruncatedSeries(max_degree, tuple(coeffs))


def _suspension(h: TruncatedSeries) -> TruncatedSeries:
    return TruncatedSeries(h.truncation_degree, (0,) + h.coefficients[:-1])


def cotangent_series(p: int, max_degree: int) -> TruncatedSeries:
    """Dimension series of the cotangent complex: the homotopy series
    shifted up one degree (suspension)."""
    return _suspension(homotopy_series(p, max_degree).homotopy_series)


def _first_difference(hom: TruncatedSeries) -> int:
    """First degree where ``hom`` departs from the Tor dimension sequence
    [1, 1, 0, ...] (``TOR_ASSUMPTION``)."""
    for d, c in enumerate(hom.coefficients):
        if c != (1 if d < 2 else 0):
            return d
    raise ValueError(f"series agree up to degree {hom.truncation_degree}; bound too small")


def hz_quotient_comparison(p: int, max_degree: int) -> int:
    """First degree where the homology series differs from the Tor
    dimension sequence of the ordinary quotient over the integers."""
    require_prime(p)
    if max_degree < 2 * p - 2:
        raise ValueError(
            f"max degree {max_degree} too small, need at least {2 * p - 2}"
        )
    return _first_difference(homology_series(p, max_degree))


class CollisionWitness(Value):
    __slots__ = ("source_monomials", "image")

    def __init__(self, source_monomials: tuple[Monomial, Monomial], image: str) -> None:
        first, second = source_monomials
        if first == second:
            raise ValueError("collision sources must be distinct")
        if first.degree != 4 or second.degree != 4:
            raise ValueError("collision sources must live in degree 4")
        super().__init__(source_monomials, image)


# Stored relations for the structure map to unoriented bordism at p = 2:
# the degree-1 class maps to e_1, and Q^3 e_1 = e_1^4 in the target; both
# extend multiplicatively, so an image is a power of e_1.
_IMAGE_E1_EXPONENT = {"a": 1, "Q^3 a": 4}


def _bordism_image(m: Monomial) -> str:
    exponent = 0
    for g, e in m.factors:
        if g.label not in _IMAGE_E1_EXPONENT:
            raise VerificationError(f"no stored relation for {g.label!r}")
        exponent += e * _IMAGE_E1_EXPONENT[g.label]
    return "e_1" if exponent == 1 else f"e_1^{exponent}"


def structure_map_collision() -> CollisionWitness:
    """Two distinct degree-4 basis monomials at p = 2 with the same image
    under the structure map to unoriented bordism."""
    bucket = enumerate_monomials(enumerate_generators(2, 1, 4), 4).bucket(4)
    q3a = next((m for m in bucket if m.exponent("Q^3 a") == 1), None)
    a4 = next((m for m in bucket if m.exponent("a") == 4), None)
    if q3a is None or a4 is None:
        raise VerificationError(
            f"degree-4 basis {sorted(m.render() for m in bucket)} "
            "lacks an expected monomial"
        )
    image_q3a = _bordism_image(q3a)
    image_a4 = _bordism_image(a4)
    if image_q3a != image_a4:
        raise VerificationError(
            f"images disagree: {image_q3a} vs {image_a4}"
        )
    return CollisionWitness((q3a, a4), image_q3a)


class Verdict(Value):
    __slots__ = ("name", "passed", "detail")

    name: str
    passed: bool
    detail: str


def _verdict_from(name: str, thunk) -> Verdict:
    try:
        passed, detail = thunk()
    except (VerificationError, ValueError) as exc:
        return Verdict(name, False, str(exc))
    return Verdict(name, passed, detail)


def verification_battery(p: int, max_degree: int) -> tuple[Verdict, ...]:
    """Every per-prime consistency check, as named verdicts, on the homotopy
    report at ``max_degree`` (see ``battery_verdicts``); ``homotopy_report``
    checks the arguments."""
    return battery_verdicts(homotopy_report(p, max_degree))


def battery_verdicts(report: HomotopyReport) -> tuple[Verdict, ...]:
    """Every per-prime consistency check of ``report``, as named verdicts.

    The series checks read ``report`` at its truncation degree. The
    fixed-scale checks (H_1 dimension, equivalence count, self-map degree,
    first difference from the HZ/p quotient) read one report that reaches
    degree 4(p-1): ``report`` itself when it does, else one
    ``homotopy_report`` at 4(p-1), whose identities the self-map check
    verifies. The basis and THH checks recount their series from the words
    (``dyer_lashof._word_series``); their caps, degrees 20 and 10, hold the
    verdict bytes that ``bench/expected.json`` records.
    """
    p, max_degree = report.prime, report.truncation_degree
    top = 4 * (p - 1)
    low = report if max_degree >= top else homotopy_report(p, top)
    h1 = low.homology_series.coefficient(1)

    def selfmap_check():
        d = _selfmap_degree(low)
        return d == top - 1, f"degree {d}"

    def hz_check():
        d = _first_difference(low.homology_series)
        return d == 2 * p - 2, f"first difference at degree {d}"

    def taq_check():
        taq = taq_dimensions(p, max(max_degree, 1)).coefficients
        return taq[1] == 1 and sum(taq) == 1, "single 1 in degree 1"

    def cotangent_check():
        # t * homotopy * steenrod == t * homology, read in degrees 0 and N.
        shifted = _suspension(_checked(report).homotopy_series).coefficients
        ok = shifted[0] == 0
        if max_degree >= 1:
            top = sum(map(mul, reversed(shifted), steenrod_series(p, max_degree).coefficients))
            ok = ok and top == report.homology_series.coefficient(max_degree - 1)
        return ok, "equals t * homotopy"

    def basis_check():
        bound = min(max_degree, 20)
        words = _word_series(p, (1,), bound).coefficients
        ok = words == report.homology_series.coefficients[: bound + 1]
        return ok, f"monomial counts match series through degree {bound}"

    def thh_check():
        bound = min(max_degree, 10)
        ok = _word_series(p, (1, 2), bound) == thh_homology_series(p, bound)
        return ok, f"tensor enumeration matches through degree {bound}"

    def collision_check():
        witness = structure_map_collision()
        sources = {m.render() for m in witness.source_monomials}
        ok = sources == {"Q^3 a", "a^4"} and witness.image == "e_1^4"
        return ok, f"{sorted(sources)} -> {witness.image}"

    checks = [
        ("nonnegativity", lambda: (report.nonnegative,
                                   f"min coefficient {min(report.homotopy_series.coefficients)}")),
        ("tensor_identity", lambda: (report.tensor_identity, "homotopy * steenrod == homology")),
        ("gap", lambda: (_checked(report).gap_verified, f"checked through degree {max_degree}")),
        ("h1_dimension", lambda: (h1 == 1, f"H_1 dimension {h1}")),
        ("equivalence_count", lambda: (True, f"count {_equivalences(p, h1)}")),
        ("selfmap_degree", selfmap_check),
        ("hz_first_difference", hz_check),
        ("taq_dimensions", taq_check),
        ("cotangent_shift", cotangent_check),
        ("basis_series_agreement", basis_check),
        ("thh_tensor", thh_check),
    ]
    if p == 2:
        checks.append(("collision_witness", collision_check))
    return tuple(_verdict_from(name, check) for name, check in checks)
