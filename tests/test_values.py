"""The value classes of every module: equality by value within one class,
hashing, immutability, and integer fields that refuse non-integers; and
the values that kernels make in one step, equal to what the validating
constructors make of the same fields."""

import copy
import itertools
import pickle
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonorder import (ANNIHILATION, CREATION, ApproxValue, BellPolynomial,
                        BosonWord, Colony, ComplexApproxValue,
                        IncreasingForest, NormalForm, PowerSeries,
                        StirlingTable, StringType, normal_order,
                        stirling_recurrence, type_from_word, word_from_type)
from bosonorder import algebra, stirling
from bosonorder.check import CheckResult

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
    "CheckResult": (lambda: CheckResult("settlement counts agree", "pass",
                                        "m = 0..2"), "status"),
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


# ---- values made in one step: normal_order's _from_row, word_from_type's
# runs and stirling_recurrence's _table_from_row skip the constructors'
# per-key checks, so each must equal the checked value of the same fields


def _assert_normal_form_is_canonical(form):
    assert form == NormalForm(form.excess, form.coeffs)
    keys = list(form.coeffs)
    assert keys == sorted(keys) and all(form.coeffs.values())


def _assert_type_values_are_canonical(t):
    # the runs of the type's factors, as BosonWord.from_runs merges them
    runs = [run for ri, si in zip(reversed(t.r), reversed(t.s))
            for run in ((CREATION, ri), (ANNIHILATION, si)) if run[1]]
    w = word_from_type(t)
    assert w == BosonWord.from_runs(runs) and type_from_word(w) == t
    table = stirling_recurrence(t)
    assert table == StirlingTable(t, table.values)
    keys = list(table.values)
    assert keys == sorted(keys) and all(table.values.values())


def _with_boundary_zeros(t):
    # t, and t with s_1 = 0, r_n = 0 and both
    yield t
    yield StringType(t.r, (0,) + t.s[1:])
    yield StringType(t.r[:-1] + (0,), t.s)
    yield StringType(t.r[:-1] + (0,), (0,) + t.s[1:])


def test_normal_order_is_canonical_on_every_short_word():
    words = 0
    for size in range(1, 11):
        for letters in itertools.product((CREATION, ANNIHILATION),
                                         repeat=size):
            _assert_normal_form_is_canonical(normal_order(BosonWord(letters)))
            words += 1
    assert words == 2046


def test_type_values_are_canonical_on_every_small_type(every_small_type):
    for t in every_small_type:
        for u in _with_boundary_zeros(t):
            _assert_type_values_are_canonical(u)


few_long_runs_st = st.lists(
    st.tuples(st.sampled_from([CREATION, ANNIHILATION]), st.integers(1, 60)),
    min_size=1, max_size=6).map(BosonWord.from_runs)

few_factor_types_st = st.integers(1, 3).flatmap(lambda n: st.builds(
    StringType,
    st.tuples(*[st.integers(1, 60)] * (n - 1), st.integers(0, 60)),
    st.tuples(st.integers(0, 60), *[st.integers(1, 60)] * (n - 1))))


@given(few_long_runs_st)
@settings(deadline=None, max_examples=150)
def test_normal_order_is_canonical_on_few_long_runs(w):
    _assert_normal_form_is_canonical(normal_order(w))


@given(few_factor_types_st)
@settings(deadline=None, max_examples=100)
def test_type_values_are_canonical_on_few_long_factors(t):
    _assert_type_values_are_canonical(t)


def test_normal_form_row_below_degree_zero_raises():
    # excess -2 puts the row's lowest degree at lo - 2
    algebra._from_row(-2, 2, [1])
    with pytest.raises(AssertionError):
        algebra._from_row(-2, 1, [1, 1])


@pytest.mark.parametrize("lo, row", [
    (1, [1, -1]), (0, [1, 1]), (2, [1, 1])],
    ids=["negative-entry", "key-below-window", "key-above-window"])
def test_stirling_row_outside_its_checks_raises(lo, row):
    # TWO_BUGS has the window [1, 2] and the row S(1), S(2) = 1, 1
    assert stirling._table_from_row(TWO_BUGS, 1, [1, 1]) \
        == stirling_recurrence(TWO_BUGS)
    with pytest.raises(AssertionError):
        stirling._table_from_row(TWO_BUGS, lo, row)
