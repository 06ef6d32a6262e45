"""The value classes of every module: equality by value within one class,
hashing, immutability, and integer fields that refuse non-integers."""

import copy
import pickle
from decimal import Decimal

import pytest

from bosonorder import (ANNIHILATION, CREATION, ApproxValue, BellPolynomial,
                        BosonWord, Colony, ComplexApproxValue,
                        IncreasingForest, NormalForm, PowerSeries,
                        StirlingTable, StringType)

TWO_BUGS = StringType((1, 1), (1, 1))

# one factory per frozen class, with a field it stores
FROZEN = {
    "BosonWord": (lambda: BosonWord.from_runs([(CREATION, 2),
                                               (ANNIHILATION, 1)]), "runs"),
    "StringType": (lambda: StringType((2, 1), (1, 1)), "r"),
    "NormalForm": (lambda: NormalForm(1, {0: 2, 1: 1}), "coeffs"),
    "StirlingTable": (lambda: StirlingTable(TWO_BUGS, {1: 1, 2: 1}),
                      "values"),
    "BellPolynomial": (lambda: BellPolynomial((0, 1, 1)), "coeffs"),
    "ApproxValue": (lambda: ApproxValue(Decimal("1.5"), 2, 3), "value"),
    "ComplexApproxValue": (
        lambda: ComplexApproxValue(Decimal(1), Decimal(2), 3, 1), "imag"),
    "Colony": (lambda: Colony(TWO_BUGS, ((None,), ((1, 1),))), "placement"),
    "IncreasingForest": (lambda: IncreasingForest((2, 2), (None, (1, 2))),
                         "parent"),
    "PowerSeries": (lambda: PowerSeries((1, 1, 3)), "counts"),
}

# these hold a dict, so they compare by value but hashing raises TypeError
UNHASHABLE = {"NormalForm", "StirlingTable"}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_value_class(name):
    make, field = FROZEN[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a.__eq__(object()) is NotImplemented
    for other_name, (other, _) in FROZEN.items():
        if other_name != name:
            assert a != other() and other() != a
    stored = getattr(a, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, attr, stored)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is stored and a == b
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("name", sorted(FROZEN))
@pytest.mark.parametrize("how", [
    copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_and_frozen(name, how):
    make, field = FROZEN[name]
    original = make()
    twin = how(original)
    assert twin == original and type(twin) is type(original)
    assert all(getattr(twin, slot) == getattr(original, slot)
               for slot in type(original).__slots__)
    stored = getattr(twin, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(twin, attr, stored)
    with pytest.raises(AttributeError):
        delattr(twin, field)
    assert getattr(twin, field) is stored and twin == make()


@pytest.mark.parametrize("value, text", [
    (StringType((2, 1), (1, 1)), "<StringType ((2, 1), (1, 1))>"),
    (ApproxValue(Decimal("1.5"), 2, 3),
     "<ApproxValue (Decimal('1.5'), 2, 3)>"),
    (PowerSeries((1, 1, 3)), "<PowerSeries (1, 1, 3)>"),
], ids=["type", "approx", "series"])
def test_repr_names_the_class_and_its_fields(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("build", [
    lambda: StringType((1.9, 2), (1, 3)),
    lambda: StringType((1, 2), (1, "3")),
    lambda: NormalForm(0, {0: 2.7}),
    lambda: NormalForm(0, {0.0: 1}),
    lambda: StirlingTable(TWO_BUGS, {1: 1.0}),
    lambda: StirlingTable(TWO_BUGS, {"1": 1}),
    lambda: BellPolynomial((0, 1.5)),
    lambda: BellPolynomial(("1",)),
], ids=["type-float", "type-str", "form-float-coeff", "form-float-key",
        "table-float-value", "table-str-key", "poly-float", "poly-str"])
def test_non_integers_raise_type_error(build):
    with pytest.raises(TypeError):
        build()
