"""Every word is a type: words that start with a or end with ad get the
boundary exponents r_n = 0 and s_1 = 0, and every route that takes a type
answers on them."""

import itertools
import json
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from bosonorder import (ANNIHILATION, CREATION, BosonWord, StringType,
                        bell_polynomial, closed_form_table,
                        count_colonies_by_free_legs, dobinski_eval,
                        enumerate_colonies, normal_order,
                        stirling_recurrence, type_from_word)
from bosonorder.cli import main, parse_word, run_selfcheck


def words_up_to(size):
    for n in range(size + 1):
        for letters in itertools.product((CREATION, ANNIHILATION), repeat=n):
            yield BosonWord(letters)


def shifted_rewrite(w):
    # normal_order keys by min(i, j); the tables key by surviving
    # annihilators j, which is k + max(-d, 0)
    form = normal_order(w)
    shift = max(-form.excess, 0)
    return {k + shift: v for k, v in form.coeffs.items()}


def test_recurrence_matches_rewriting_on_every_word():
    for w in words_up_to(10):
        t = type_from_word(w)
        assert t.excess == w.excess
        assert dict(stirling_recurrence(t).values) == shifted_rewrite(w), w


def test_closed_form_matches_recurrence_where_prefixes_are_nonnegative():
    checked = 0
    for w in words_up_to(10):
        t = type_from_word(w)
        if t.has_nonnegative_prefixes():
            assert closed_form_table(t) == stirling_recurrence(t).values, w
            checked += 1
    assert checked > 500


def test_enumeration_matches_recurrence_on_every_short_word():
    for w in words_up_to(8):
        t = type_from_word(w)
        assert count_colonies_by_free_legs(t) \
            == stirling_recurrence(t).values, w


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(7, 3)])
def test_dobinski_matches_exact_polynomial(x):
    for w in words_up_to(7):
        t = type_from_word(w)
        exact = bell_polynomial(t).evaluate(x)
        with localcontext() as ctx:
            ctx.prec = 40
            ref = Decimal(exact.numerator) / Decimal(exact.denominator)
            err = abs(dobinski_eval(t, x, 30).value - ref)
            assert err <= abs(ref) * Decimal("1e-29"), w


def test_selfcheck_passes_on_every_short_word():
    for w in words_up_to(6):
        results = run_selfcheck(type_from_word(w))
        assert [r.status for r in results] == ["pass"] * 4, w


@pytest.mark.parametrize("t", [StringType((3,), (0,)), StringType((0,), (0,))],
                         ids=["ad^3", "empty"])
def test_feetless_type_has_one_empty_colony(t):
    assert count_colonies_by_free_legs(t) == {0: 1}
    colonies = list(enumerate_colonies(t))
    assert len(colonies) == 1 and colonies[0].placement == ((),)
    assert dobinski_eval(t, 0, 10).value == 1


@pytest.mark.parametrize("text", ["a ad^2", "a^2 ad", "ad^3"])
@pytest.mark.parametrize("argv", [["dobinski"], ["colonies"],
                                  ["colonies", "--dot"],
                                  ["colonies", "--format", "json"],
                                  ["settlements", "--m", "3"],
                                  ["selfcheck"]],
                         ids=" ".join)
def test_cli_answers_non_block_words(text, argv, capsys):
    assert main([*argv, "--word", text]) == 0
    out = capsys.readouterr().out
    if argv == ["selfcheck"]:
        assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 4
    if argv[-1] == "json":
        payload = json.loads(out)
        t = type_from_word(parse_word(text))
        assert payload["type"] == {"r": list(t.r), "s": list(t.s)}
        assert payload["count"] == stirling_recurrence(t).bell()
