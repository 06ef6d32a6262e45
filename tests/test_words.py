"""Every word is a type: words that start with a or end with ad get the
boundary exponents r_n = 0 and s_1 = 0, and every route that takes a type
answers on them."""

import itertools
import json
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from bosonorder import (ANNIHILATION, CREATION, DEFAULT_ENUM_CAP,
                        ApproxValue, BosonWord, NegativeExcess, StringType,
                        bell_polynomial, count_colonies_by_free_legs,
                        dobinski_eval, enumerate_colonies, normal_order,
                        stirling_recurrence, type_from_word)
from bosonorder.check import TABLE_ROUTES, run_selfcheck
from bosonorder.cli import main, parse_word


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


@pytest.mark.parametrize("route", TABLE_ROUTES)
def test_route_matches_rewriting_on_every_word(route):
    # both signs of the excess; a route may refuse only a negative one
    for w in words_up_to(10):
        t = type_from_word(w)
        assert t.excess == w.excess
        try:
            table = TABLE_ROUTES[route](t, DEFAULT_ENUM_CAP)
        except NegativeExcess:
            assert t.excess < 0, w
            continue
        assert table == shifted_rewrite(w), w


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


@pytest.mark.parametrize("text, x", [
    ("ad^3", "0"), ("ad^3", "1"), ("ad^3", "7"),
    ("", "0"), ("", "1"), ("", "7"), ("a ad", "0")])
def test_exact_dobinski_values_print_every_digit(text, x, capsys):
    # no feet: p = 1, so B(x) = 1; at x = 0, B(0) = p(0) = 1 for "a ad"
    t = type_from_word(parse_word(text))
    approx = dobinski_eval(t, Fraction(x), 5)
    assert approx == ApproxValue(Decimal(1), 5, 1)
    assert str(approx.value) == "1.0000"
    argv = ["dobinski", "--word", text, "--x", x, "--digits", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "1.0000\n"
    assert main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["value"], payload["terms_used"]) == ("1.0000", 1)


def test_exact_zero_stays_zero(capsys):
    assert str(dobinski_eval(StringType((1,), (1,)), 0, 5).value) == "0"
    assert main(["dobinski", "--word", "ad a", "--x", "0"]) == 0
    assert capsys.readouterr().out == "0\n"


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
