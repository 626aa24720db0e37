"""The value classes compare and hash by their fields and cannot be changed."""

import pytest

from versalp import cli
from versalp.free_algebra import Generator, GeneratorSet, Monomial, enumerate_monomials
from versalp.power_series import TruncatedSeries
from versalp.versal import CollisionWitness, HomotopyReport, Verdict, homotopy_report
from versalp.versal import structure_map_collision


def _generators():
    return GeneratorSet((Generator("y", 3, "exterior"), Generator("x", 2, "polynomial")))


# Each factory builds a fresh value on every call; ``other`` differs in one field.
VALUES = {
    "TruncatedSeries": (lambda: TruncatedSeries(2, [1, 2, 3]),
                        lambda: TruncatedSeries(2, (1, 2, 4))),
    "Generator": (lambda: Generator("x", 2, "polynomial"),
                  lambda: Generator("x", 2, "exterior")),
    "GeneratorSet": (_generators, lambda: GeneratorSet((Generator("x", 2, "polynomial"),))),
    "Monomial": (lambda: Monomial(((Generator("x", 2, "polynomial"), 3),)),
                 lambda: Monomial(((Generator("x", 2, "polynomial"), 2),))),
    "MonomialBasis": (lambda: enumerate_monomials(_generators(), 6),
                      lambda: enumerate_monomials(_generators(), 5)),
    "Verdict": (lambda: Verdict("gap", True, ""), lambda: Verdict("gap", True, "detail")),
    "HomotopyReport": (lambda: homotopy_report(2, 8), lambda: homotopy_report(2, 9)),
    "CollisionWitness": (structure_map_collision, lambda: CollisionWitness(
        structure_map_collision().source_monomials, "e_1^5")),
    "Report": (lambda: cli.COMMANDS["homology"](2, 4), lambda: cli.COMMANDS["homology"](2, 5)),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_compare_and_hash_equal(name):
    make, make_other = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != make_other() and not a == make_other()
    assert len({a, b, make_other()}) == 2


@pytest.mark.parametrize("name", VALUES)
def test_values_of_another_class_never_compare_equal(name):
    a = VALUES[name][0]()
    for other_name, (make, _) in VALUES.items():
        if other_name != name:
            assert a != make() and not a == make()
    fields = tuple(getattr(a, f) for f in ("coefficients", "label", "entries", "factors",
                                           "names", "name", "prime", "image") if hasattr(a, f))
    assert fields and a != fields[0] and a != fields


@pytest.mark.parametrize("name", VALUES)
def test_assignment_raises_attribute_error(name):
    a = VALUES[name][0]()
    field = next(f for f in ("truncation_degree", "label", "entries", "factors", "names",
                             "prime", "name", "image") if hasattr(a, f))
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is before and a == VALUES[name][0]()


@pytest.mark.parametrize("name", VALUES)
def test_new_attributes_raise_attribute_error(name):
    # A name that is no field fails like a field, not with a TypeError.
    a = VALUES[name][0]()
    with pytest.raises(AttributeError):
        a.unknown_field = 1
    assert not hasattr(a, "unknown_field")


def test_a_wrong_number_of_fields_raises_type_error():
    with pytest.raises(TypeError):
        HomotopyReport(2, 8, None, None, True, 4, True)
    with pytest.raises(TypeError):
        Verdict("gap", True, "detail", "extra")
