import pytest

from versalp.free_algebra import enumerate_monomials, series_of
from versalp.steenrod_dual import milnor_degrees, milnor_generator_degrees
from versalp.versal import homotopy_report, steenrod_series

from oracles import factor_fold, milnor_degrees_by_membership, naive_mul, naive_series


def test_p3_generators_and_expansion():
    gens = milnor_generator_degrees(3, 8)
    assert [(g.label, g.degree, g.kind) for g in gens] == [
        ("tau_0", 1, "exterior"),
        ("xi_1", 4, "polynomial"),
        ("tau_1", 5, "exterior"),
    ]
    assert series_of(gens, 8).coefficients == (1, 1, 0, 0, 1, 2, 1, 0, 1)
    triples = [(g.degree, g.kind) for g in gens]
    assert list(series_of(gens, 8).coefficients) == naive_series(triples, 8)


def test_p2_generators():
    gens = milnor_generator_degrees(2, 8)
    assert [(g.label, g.degree, g.kind) for g in gens] == [
        ("xi_1", 1, "polynomial"),
        ("xi_2", 3, "polynomial"),
        ("xi_3", 7, "polynomial"),
    ]


def test_p7_generators():
    gens = milnor_generator_degrees(7, 24)
    assert [(g.label, g.degree, g.kind) for g in gens] == [
        ("tau_0", 1, "exterior"),
        ("xi_1", 12, "polynomial"),
        ("tau_1", 13, "exterior"),
    ]


def _family_and_index(label):
    """("xi", 2) for the label "xi_2"."""
    family, index = label.split("_")
    return family, int(index)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_degrees_strictly_increase_within_each_family(p):
    gens = milnor_generator_degrees(p, 200)
    for family in ("xi", "tau"):
        degrees = [g.degree for g in gens if _family_and_index(g.label)[0] == family]
        assert degrees == sorted(set(degrees))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_three_smallest_odd_prime_degrees(p):
    degrees = [g.degree for g in milnor_generator_degrees(p, 4 * (p - 1))]
    assert degrees[:3] == [1, 2 * p - 2, 2 * p - 1]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_seven_elements_through_degree_4p_minus_4(p):
    bound = 4 * (p - 1)
    dims = enumerate_monomials(milnor_generator_degrees(p, bound), bound).dimensions()
    assert sum(dims) == 7


def test_families_and_indices():
    gens = milnor_generator_degrees(5, 60)
    assert [(*_family_and_index(g.label), g.degree) for g in gens] == [
        ("tau", 0, 1),
        ("xi", 1, 8),
        ("tau", 1, 9),
        ("xi", 2, 48),
        ("tau", 2, 49),
    ]


def test_empty_range_and_validation():
    assert len(milnor_generator_degrees(2, 0)) == 0
    with pytest.raises(ValueError):
        milnor_generator_degrees(9, 4)
    with pytest.raises(ValueError):
        milnor_generator_degrees(2, -1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_milnor_set_matches_a_membership_oracle_far_above_the_caps(p):
    oracle = milnor_degrees_by_membership(p, 10**6)
    assert milnor_degrees(p, 10**6) == ([d for d, kind in oracle if kind == "polynomial"],
                                        [d for d, kind in oracle if kind == "exterior"])
    gens = milnor_generator_degrees(p, 10**6)
    assert [(g.degree, g.kind) for g in gens] == oracle
    n = 2000
    oracle = factor_fold(
        [(d, kind, 1) for d, kind in milnor_degrees_by_membership(p, n)], n
    )
    assert list(steenrod_series(p, n).coefficients) == oracle
    report = homotopy_report(p, n)
    product = naive_mul(list(report.homotopy_series.coefficients), oracle)
    assert product == list(report.homology_series.coefficients)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_generator_labels_are_the_list_positions(p):
    xi, tau = milnor_degrees(p, 10**6)
    labelled = {g.label: (g.degree, g.kind) for g in milnor_generator_degrees(p, 10**6)}
    assert labelled == {**{f"xi_{i}": (d, "polynomial") for i, d in enumerate(xi, 1)},
                        **{f"tau_{i}": (d, "exterior") for i, d in enumerate(tau)}}


# steenrod_series builds the series in one packed product and series_of by
# the forward list kernel, so they share no pass.
@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_steenrod_series_equals_the_forward_kernel_on_the_milnor_generators(p):
    for n in (0, 1, 4 * (p - 1), 850, 4000):
        assert steenrod_series(p, n) == series_of(milnor_generator_degrees(p, n), n), n
