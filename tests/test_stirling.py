import hashlib
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, count, islice, tee
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonorder import (ApproxValue, BellPolynomial, ComplexApproxValue,
                        NegativeExcess, NonCanonicalPrefix,
                        PrecisionUnreachable, StirlingTable, StringType,
                        TooLarge, bell_number, bell_polynomial,
                        bell_r1_numeric, closed_form_table,
                        coherent_expectation,
                        count_colonies_by_free_legs, dobinski_eval,
                        enumerate_settlements, extract_stirling,
                        falling_factorial, normal_order, settlement_product,
                        stirling_closed_form, stirling_recurrence,
                        word_from_type)
from bosonorder.check import run_selfcheck
from bosonorder import stirling
from bosonorder.cli import MAX_DIGITS
from bosonorder.stirling import (SPLIT_BITS, _closed_form_row, _dobinski_sum,
                                _over_factorial, _rounded, _runs,
                                _settlement_products)
from oracles import (bell_poly_recursion, bell_r1_terms,
                     check_polynomial_identity, dobinski_terms,
                     factor_by_factor_product, falling_factorial_expansion,
                     rounded_by_context)

SHOWCASE = StringType((3, 2, 1, 3), (2, 2, 2, 3))

# prefix excesses (0, -1, 1): the second factor's annihilators outnumber
# the creators before them
DIPPING = StringType((1, 3), (2, 1))

# expected tables, frozen from an independent brute-force colony enumerator
KNOWN_TABLES = {
    ((1,), (1,)): {1: 1},
    ((1, 1), (1, 1)): {1: 1, 2: 1},
    ((1, 1, 1), (1, 1, 1)): {1: 1, 2: 3, 3: 1},
    ((2, 2), (1, 1)): {1: 2, 2: 1},
    ((2, 2, 2, 2), (1, 1, 1, 1)): {1: 24, 2: 36, 3: 12, 4: 1},
    ((2, 2, 2, 2, 2), (1, 1, 1, 1, 1)): {1: 120, 2: 240, 3: 120, 4: 20, 5: 1},
    ((3, 3), (1, 1)): {1: 3, 2: 1},
    ((3, 3, 3), (1, 1, 1)): {1: 15, 2: 9, 3: 1},
    ((3, 3, 3, 3), (1, 1, 1, 1)): {1: 105, 2: 87, 3: 18, 4: 1},
    ((1, 3), (1, 3)): {3: 3, 4: 1},
    ((1, 1, 3), (1, 3, 1)): {3: 3, 4: 5, 5: 1},
    ((3, 3, 3), (3, 3, 3)): {3: 36, 4: 540, 5: 1242, 6: 882, 7: 243, 8: 27, 9: 1},
    ((3, 2, 1, 3), (2, 2, 2, 3)): {3: 864, 4: 3936, 5: 4632, 6: 2076,
                                   7: 404, 8: 34, 9: 1},
}


def factor_by_factor_table(t):
    """Reference recurrence, one whole factor per step: S(k) goes to
    sum_j C(s',j) (d+k-j)_(s'-j) S(k-j), with math.perm raising on a
    negative base."""
    values = {t.s[0]: 1}
    for d, s in zip(t.prefix_excesses[1:], t.s[1:]):
        new = {}
        for m, v in values.items():
            for j in range(s + 1):
                w = math.comb(s, j) * math.perm(d + m, s - j)
                if w:
                    new[m + j] = new.get(m + j, 0) + v * w
        values = new
    return values


def seeded_types(seed, how_many, sizes, r_choices, s_choices):
    rng = random.Random(seed)
    out = []
    for _ in range(how_many):
        n = rng.randint(*sizes)
        out.append(StringType(tuple(rng.choice(r_choices) for _ in range(n)),
                              tuple(rng.choice(s_choices) for _ in range(n))))
    return out


# the big-exact shape: 20-40 factors of ad^2 a^2 or ad^3 a^2
CLOSED_FORM_TYPES = ([StringType.uniform(2, 2, n) for n in (10, 20, 40)]
                     + seeded_types(40, 20, (20, 40), (2, 3), (2,)))


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(2, 3) == 0
        assert falling_factorial(-1, 2) == 2
        assert falling_factorial(7, 0) == 1
        assert falling_factorial(-3, 3) == -60

    def test_rejects_negative_p(self):
        with pytest.raises(ValueError):
            falling_factorial(3, -1)

    def test_matches_product_loop(self):
        # the signed math.perm form against l (l-1) ... (l-p+1) multiplied out
        for l in range(-30, 31):
            for p in range(13):
                out = 1
                for i in range(p):
                    out *= l - i
                assert falling_factorial(l, p) == out, (l, p)
            with pytest.raises(ValueError):
                falling_factorial(l, -1)


class TestRecurrence:
    @pytest.mark.parametrize("rs,expected", sorted(KNOWN_TABLES.items()))
    def test_known_tables(self, rs, expected):
        t = StringType(*rs)
        assert dict(stirling_recurrence(t).values) == expected

    def test_single_factor_is_delta(self):
        for r in range(1, 4):
            for s in range(1, 4):
                assert dict(stirling_recurrence(StringType((r,), (s,))).values) \
                    == {s: 1}

    def test_table_invariants(self, sweep_types):
        for t in sweep_types:
            table = stirling_recurrence(t)
            keys = sorted(table.values)
            assert keys[0] >= t.s[0]
            assert keys[-1] == t.total_s
            assert table.values[t.total_s] == 1
            assert all(v > 0 for v in table.values.values())

    def test_matches_independent_routes_on_every_small_type(
            self, every_small_type):
        # negative prefix excesses included: d + k free creators is never
        # negative for a nonzero entry, or the leg step's guard would raise
        for t in every_small_type:
            table = dict(stirling_recurrence(t).values)
            assert table == falling_factorial_expansion(t)
            if t.excess >= 0:
                form = normal_order(word_from_type(t), method="letterwise")
                assert table == extract_stirling(form)[1]

    def test_lowest_key_can_exceed_s1(self):
        # the third bug has nowhere near enough earlier cells, so no colony
        # attains s_1 free legs and the table starts above s_1
        table = stirling_recurrence(StringType((1, 3), (1, 3)))
        assert 1 not in table.values and min(table.values) == 3

    def test_matches_factor_by_factor_reference(self, every_small_type):
        for t in every_small_type:
            assert dict(stirling_recurrence(t).values) \
                == factor_by_factor_table(t), t

    @pytest.mark.parametrize("t", seeded_types(160, 60, (40, 160),
                                               (1, 2, 3), (1, 2, 3)),
                             ids=lambda t: f"n{t.n}d{min(t.prefix_excesses)}")
    def test_large_types_match_factor_by_factor_reference(self, t):
        # 53 of these 60 types dip to a negative prefix excess
        assert dict(stirling_recurrence(t).values) \
            == factor_by_factor_table(t)

    def test_broken_free_creator_invariant_raises(self):
        # no StringType has these excesses: after one free leg, the second
        # factor would see 1 - 5 free creators
        fake = SimpleNamespace(prefix_excesses=(0, -5, -6), s=(1, 1))
        with pytest.raises(AssertionError):
            stirling_recurrence(fake)


class TestStirlingTableType:
    def test_drops_zeros_and_sorts(self):
        t = StringType((1, 1), (1, 1))
        table = StirlingTable(t, {2: 1, 1: 1, 0: 0})
        assert list(table.values.items()) == [(1, 1), (2, 1)]

    def test_rejects_out_of_window_keys(self):
        t = StringType((1,), (1,))
        with pytest.raises(ValueError):
            StirlingTable(t, {2: 1})

    def test_rejects_negative_values(self):
        t = StringType((1,), (1,))
        with pytest.raises(ValueError):
            StirlingTable(t, {1: -1})

    def test_bell(self):
        assert stirling_recurrence(StringType.uniform(1, 1, 3)).bell() == 5

# prefix excesses up to 10^30 apart, next to close ones
HUGE_PREFIX_TYPES = [
    StringType((300000, 1), (1, 1)),
    StringType((1, 1, 10 ** 6, 2, 1), (1, 1, 1, 1, 1)),
    StringType((3, 10 ** 12, 2, 1, 10 ** 9), (2, 1, 3, 2, 2)),
    StringType((2, 7, 3, 10 ** 30, 3), (2, 3, 2, 3, 3)),
]
HUGE_PREFIX_IDS = ["one-far", "two-clusters", "mixed-s", "dense-and-far"]


class TestClosedForm:
    def test_top_coefficient_is_one(self):
        for n in range(1, 6):
            assert stirling_closed_form(StringType.uniform(1, 1, n), n) == 1

    def test_known_value(self):
        assert stirling_closed_form(StringType.uniform(1, 1, 3), 2) == 3

    def test_matches_recurrence_on_four_factor_type(self):
        table = stirling_recurrence(SHOWCASE).values
        for k in range(2, 10):
            assert stirling_closed_form(SHOWCASE, k) == table.get(k, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"^k=1 outside \[2, 9\]$"):
            stirling_closed_form(SHOWCASE, 1)
        with pytest.raises(ValueError, match=r"^k=10 outside \[2, 9\]$"):
            stirling_closed_form(SHOWCASE, 10)

    def test_needs_nonnegative_prefixes(self):
        with pytest.raises(NonCanonicalPrefix,
                           match=r"\(0, -1, 1\) contain a negative entry"):
            stirling_closed_form(StringType((1, 3), (2, 1)), 2)
        assert stirling_closed_form(SHOWCASE, 9) == 1

    @given(st.data())
    @settings(deadline=None, max_examples=40)
    def test_agrees_with_recurrence(self, data):
        n = data.draw(st.integers(1, 3))
        r = tuple(data.draw(st.integers(1, 3)) for _ in range(n))
        s = tuple(data.draw(st.integers(1, 3)) for _ in range(n))
        t = StringType(r, s)
        if not t.has_nonnegative_prefixes():
            return
        table = stirling_recurrence(t).values
        for k in range(t.s[0], t.total_s + 1):
            assert stirling_closed_form(t, k) == table.get(k, 0)

    @pytest.mark.parametrize("t", CLOSED_FORM_TYPES,
                             ids=lambda t: f"n{t.n}r{sum(t.r)}")
    def test_every_k_and_full_table_match_recurrence(self, t):
        table = dict(stirling_recurrence(t).values)
        assert {k: stirling_closed_form(t, k)
                for k in range(t.s[0], t.total_s + 1)} \
            == {k: table.get(k, 0) for k in range(t.s[0], t.total_s + 1)}
        assert closed_form_table(t) == table

    @pytest.mark.parametrize("t", HUGE_PREFIX_TYPES,
                             ids=HUGE_PREFIX_IDS)
    def test_huge_prefix_excesses_match_recurrence(self, t):
        # far-apart d values build their own windows, close ones a column
        table = dict(stirling_recurrence(t).values)
        assert closed_form_table(t) == table
        assert all(stirling_closed_form(t, k) == table.get(k, 0)
                   for k in range(t.s[0], t.total_s + 1))

    def test_full_table_answers_negative_prefixes(self):
        # prefix excesses (0, -1, 1): the single coefficient refuses them
        t = StringType((1, 3), (2, 1))
        assert closed_form_table(t) == stirling_recurrence(t).values \
            == {2: 1, 3: 1}

    def test_indivisible_difference_is_refused(self):
        # (m)_2 at m = 0, 1, 2 has second difference 2 = 2!; a second
        # difference of 1 cannot come from an integer table entry
        assert _over_factorial(2, 2) == 1
        with pytest.raises(AssertionError):
            _over_factorial(1, 2)

    def test_one_type_builds_p_once(self, monkeypatch):
        _closed_form_row.cache_clear()
        builds = []

        def counted(*args):
            builds.append(args)
            return _settlement_products(*args)

        monkeypatch.setattr(stirling, "_settlement_products", counted)
        t = StringType(tuple(2 + i % 2 for i in range(30)), (2,) * 30)
        table = {k: stirling_closed_form(t, k)
                 for k in range(t.s[0], t.total_s + 1)}
        assert closed_form_table(t) == {k: v for k, v in table.items() if v}
        assert builds == [(t, 0, t.total_s + 1)]

    def test_budget_refuses_before_p_is_built(self, monkeypatch):
        # (sum(s) + 1)^2 differences: at a budget of 36, sum(s) = 5 is
        # answered and sum(s) = 6 refused without building p
        _closed_form_row.cache_clear()
        monkeypatch.setattr(stirling, "CLOSED_FORM_BUDGET", 36)
        inside = StringType((2, 3), (2, 3))
        assert closed_form_table(inside) == stirling_recurrence(inside).values

        def never(*args):
            raise AssertionError("p was built past the budget")

        monkeypatch.setattr(stirling, "_settlement_products", never)
        over = StringType((3, 3), (3, 3))
        message = "^49 differences exceed the closed-form budget of 36$"
        with pytest.raises(TooLarge, match=message):
            closed_form_table(over)
        with pytest.raises(TooLarge, match=message):
            stirling_closed_form(over, 4)

    def test_budget_refusal_prints_a_count_past_the_int_to_str_limit(self):
        # (10^3000 + 1)^2 has 6 001 digits: the refusal gives its leading six
        with pytest.raises(TooLarge, match=r"^1\.00000e\+6000 differences "
                                           r"exceed the closed-form budget "
                                           r"of 10000000$"):
            closed_form_table(StringType((1,), (10**3000,)))

    def test_alternating_types_do_not_cross(self):
        _closed_form_row.cache_clear()
        one, two = CLOSED_FORM_TYPES[0], CLOSED_FORM_TYPES[-1]
        tables = {t: stirling_recurrence(t).values for t in (one, two)}
        for k in range(2, 2 * one.n + 1):
            for t in (one, two):
                assert stirling_closed_form(t, k) == tables[t].get(k, 0)
        assert closed_form_table(one) == tables[one]
        assert closed_form_table(two) == tables[two]

    def test_returned_table_is_a_copy(self):
        _closed_form_row.cache_clear()
        expected = dict(stirling_recurrence(SHOWCASE).values)
        table = closed_form_table(SHOWCASE)
        table.clear()
        assert closed_form_table(SHOWCASE) == expected
        assert stirling_closed_form(SHOWCASE, 9) == 1


class TestBellNumbers:
    def test_single_factor(self):
        assert bell_number(StringType((3,), (2,))) == 1

    def test_ordinary_bells(self):
        got = [bell_number(StringType.uniform(1, 1, n)) for n in range(1, 9)]
        assert got == [1, 2, 5, 15, 52, 203, 877, 4140]

    def test_two_cell_uniform(self):
        got = [bell_number(StringType.uniform(2, 1, n)) for n in range(1, 6)]
        assert got == [1, 3, 13, 73, 501]

    def test_four_factor_type(self):
        assert bell_number(SHOWCASE) == 11947


class TestBellPolynomial:
    def test_single_factor_monomial(self):
        assert bell_polynomial(StringType((2,), (2,))).coeffs == (0, 0, 1)

    def test_small_tables(self):
        assert bell_polynomial(StringType.uniform(1, 1, 2)).coeffs == (0, 1, 1)
        assert bell_polynomial(StringType.uniform(2, 1, 2)).coeffs == (0, 2, 1)

    def test_evaluate_at_one_is_bell(self, sweep_types):
        for t in sweep_types[::5]:
            assert bell_polynomial(t).evaluate(1) == bell_number(t)

    def test_evaluate_exact_fraction(self):
        p = BellPolynomial((0, 2, 1))
        assert p.evaluate(Fraction(1, 2)) == Fraction(5, 4)

    def test_evaluate_matches_fraction_horner(self):
        # one Fraction built at the end equals a Fraction per coefficient;
        # an int argument still gives an int
        rng = random.Random(31)
        for _ in range(200):
            p = BellPolynomial(rng.randint(0, 50)
                               for _ in range(rng.randint(1, 12)))
            x = Fraction(rng.randint(0, 30), rng.randint(1, 30))
            horner = Fraction(0)
            for c in reversed(p.coeffs):
                horner = horner * x + c
            got = p.evaluate(x)
            assert type(got) is Fraction and got == horner
            got = p.evaluate(x.numerator)
            assert type(got) is int and got == p.evaluate(
                Fraction(x.numerator))

    def test_degree(self):
        assert len(bell_polynomial(SHOWCASE).coeffs) - 1 == SHOWCASE.total_s

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BellPolynomial(())


class TestBellPolyRecursion:
    def test_single_step_matches_two_factor_table(self):
        base = bell_polynomial(StringType((1,), (1,)))
        assert bell_poly_recursion(base, 0, 1).coeffs == (0, 1, 1)

    def test_zero_annihilators_is_identity(self):
        base = bell_polynomial(StringType((2,), (1,)))
        assert bell_poly_recursion(base, 1, 0) == base

    def test_matches_direct_construction(self, sweep_types):
        for t in sweep_types:
            poly = bell_polynomial(StringType((t.r[0],), (t.s[0],)))
            ds = t.prefix_excesses
            for i in range(1, t.n):
                poly = bell_poly_recursion(poly, ds[i], t.s[i])
            assert poly == bell_polynomial(t)

    def test_rejects_negative_excess(self):
        with pytest.raises(NonCanonicalPrefix):
            bell_poly_recursion(BellPolynomial((0, 1)), -1, 1)

    def test_downshift_cancels_prepended_zeros(self):
        # x^(-1) (D+1)^0 x^1 is the identity on constants
        out = bell_poly_recursion(BellPolynomial((1,)), 1, 0)
        assert out.coeffs == (1,)


class TestDobinski:
    def test_x_zero_is_exact_zero(self):
        approx = dobinski_eval(StringType.uniform(1, 1, 3), 0, 20)
        assert approx.value == 0 and approx.terms_used == 1

    def test_ordinary_bell(self):
        approx = dobinski_eval(StringType.uniform(1, 1, 3), 1, 15)
        assert abs(approx.value - 5) / 5 < Decimal("1e-9")

    def test_two_cell(self):
        approx = dobinski_eval(StringType.uniform(2, 1, 2), 1, 15)
        assert abs(approx.value - 3) / 3 < Decimal("1e-9")

    def test_rational_argument(self):
        # exact polynomial value at 1/2 against the series
        t = StringType.uniform(2, 1, 2)
        exact = bell_polynomial(t).evaluate(Fraction(1, 2))
        approx = dobinski_eval(t, Fraction(1, 2), 25)
        expected = Decimal(exact.numerator) / Decimal(exact.denominator)
        assert abs(approx.value - expected) < Decimal("1e-20")

    def test_terms_nonnegative_and_partials_bounded(self):
        # partial sums are below e^x B(x); with x = 1 compare the exact
        # rational partial against B(1) over a rational lower bound of 1/e
        t = StringType.uniform(2, 1, 3)
        bell = bell_number(t)
        inv_e_low = Fraction(367879441, 10 ** 9)
        terms = dobinski_terms(t, 1)
        partial = Fraction(0)
        for _ in range(60):
            term = next(terms)
            assert term >= 0
            partial += term
            assert partial * inv_e_low < bell

    def test_negative_prefix_matches_recurrence_and_enumeration(self):
        # B(1) is the Bell number: from the recurrence and from the colonies
        approx = dobinski_eval(DIPPING, 1, 10)
        assert approx.value == bell_number(DIPPING) \
            == sum(count_colonies_by_free_legs(DIPPING).values()) == 2

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            dobinski_eval(StringType((1,), (1,)), -1, 10)

    @pytest.mark.parametrize("x, digits, message", [
        (Fraction(-1, 3), 10, "x must be nonnegative"),
        (1, 0, "target_digits must be positive"),
    ], ids=["negative-x", "no-digits"])
    def test_refusal_messages(self, x, digits, message):
        with pytest.raises(ValueError) as exc:
            dobinski_eval(StringType.uniform(2, 1, 2), x, digits)
        assert str(exc.value) == message

    def test_term_cap(self):
        with pytest.raises(PrecisionUnreachable):
            dobinski_eval(StringType.uniform(1, 1, 3), 1, 30, max_terms=3)

    def test_unreachable_cap_is_refused_before_summing(self):
        # the stop rule needs M + 1 - sum(s) >= 2x, so at x = 1 a type with
        # sum(s) = 10006 and s_1 = 1 cannot stop before term 10007
        def unread():
            raise AssertionError("a numerator was read")
            yield

        with pytest.raises(PrecisionUnreachable,
                           match="needs at least 10007 terms"):
            _dobinski_sum(unread(), 1, 10006, Fraction(1), 5, 10000)
        with pytest.raises(PrecisionUnreachable,
                           match="needs at least 10007 terms"):
            dobinski_eval(StringType((1, 1), (1, 10005)), 1, 5)


def _reference_sum(terms, m0, total_s, x, digits, max_terms):
    # the documented stop rule in Fractions, the partial sum then rounded
    # through Decimal.exp(-x) with ten guard digits: an evaluation sharing
    # no arithmetic with the kernel's quotient of two integer sums, which
    # pins the kernel's stop point and digits.  After term m, stop once
    # x/room <= 1/2 and 2 * term * x/room < 10^-(digits+2) * partial, with
    # room = m + 1 - total_s; None when max_terms pass without stopping
    tol = Fraction(1, 10 ** (digits + 2))
    partial = Fraction(0)
    for m, term in zip(count(m0), terms):
        partial += term
        used = m - m0 + 1
        room = m + 1 - total_s
        if room > 0 and partial > 0 and x / room <= Fraction(1, 2) \
                and 2 * term * x / room < tol * partial:
            with localcontext() as ctx:
                ctx.prec = digits + 10
                value = (Decimal(partial.numerator)
                         / Decimal(partial.denominator)
                         * (-(Decimal(x.numerator) / x.denominator)).exp())
                ctx.prec = digits
                return +value, used
        if used >= max_terms:
            return None, used


def _assert_exp_tail_lemma(terms, m0, total_s, x, used):
    # dobinski_eval's lemma at the stop point M: the relative geometric
    # tail bound of e^x, 2 (x^M/M!) x/(M+1) / E_M, is at most that of the
    # Dobinski sum, 2 term_M x/room / D_M, so one stop rule covers both
    last = m0 + used - 1
    dob = list(islice(terms, used))
    exp_terms = list(accumulate(range(1, last + 1), lambda a, j: a * x / j,
                                initial=Fraction(1)))
    exp_bound = 2 * exp_terms[-1] * x / (last + 1) / sum(exp_terms)
    dob_bound = 2 * dob[-1] * x / (last + 1 - total_s) / sum(dob)
    assert exp_bound <= dob_bound


class TestIntegerKernelParity:
    """dobinski_eval and bell_r1_numeric sum in integers; a Fraction sum of
    the oracle terms, which share no kernel with them, under the documented
    rule gives the same value and the same stop point, where the tail lemma
    of the proof holds."""

    TYPES = (StringType.uniform(1, 1, 3), StringType((2, 1), (1, 1)),
             StringType((3, 1), (1, 2)), StringType.uniform(2, 2, 2))

    def _check(self, approx_fn, terms, m0, total_s, x, digits):
        terms, again = tee(terms)
        value, used = _reference_sum(terms, m0, total_s, x, digits, 10 ** 6)
        approx = approx_fn(10 ** 6)
        assert (approx.value, approx.terms_used) == (value, used)
        _assert_exp_tail_lemma(again, m0, total_s, x, used)
        # refused one term short of the stop point, answered at it
        if used > 1:
            with pytest.raises(PrecisionUnreachable):
                approx_fn(used - 1)
        assert approx_fn(used).terms_used == used

    @pytest.mark.parametrize("digits, x_max", [(5, 400), (30, 400),
                                               (200, 60), (1000, 10)])
    @pytest.mark.parametrize("q", [1, 2, 3, 7])
    def test_dobinski(self, digits, x_max, q):
        for i, t in enumerate(self.TYPES):
            for x in (Fraction(1, q), Fraction(x_max * (i + 1) // 4 + 1, q)):
                self._check(
                    lambda cap, t=t, x=x: dobinski_eval(t, x, digits, cap),
                    dobinski_terms(t, x), t.s[0], t.total_s, x, digits)

    def test_dobinski_at_zero(self):
        for t in self.TYPES:
            assert dobinski_eval(t, 0, 7) == ApproxValue(Decimal(0), 7, 1)

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("digits", [5, 60, 300])
    def test_bell_r1(self, r, digits):
        for n in (1, 2, 3, 5, 9, 17, 28, 40):
            self._check(
                lambda cap, n=n: bell_r1_numeric(r, n, digits, cap),
                (term * (r - 1) ** (n - 1) for term in bell_r1_terms(r, n)),
                1, n, Fraction(1), digits)


class TestStopTestShortcut:
    """The kernel's stop test a*b < c*d skips its two products where the
    factors' bit lengths already decide it false; the same sum with both
    products taken on every term stops at the same term, same value."""

    @staticmethod
    def _unguarded(t, x, digits):
        p, q = x.numerator, x.denominator
        two_scale_p = 2 * 10 ** (digits + 2) * p
        acc = acc_e = 0
        for m in count():
            num = settlement_product(t, m) * p ** m if m >= t.s[0] else 0
            acc = acc * (q * m) + num
            acc_e = acc_e * (q * m) + p ** m
            q_room = q * (m + 1 - t.total_s)
            if 2 * p <= q_room and two_scale_p * num < acc * q_room:
                break
        with localcontext() as ctx:
            ctx.prec = digits + 10
            value = Decimal(acc) / Decimal(acc_e)
            ctx.prec = digits
            return +value, m - t.s[0] + 1

    def test_same_stop_and_value_as_every_product_taken(self):
        rng = random.Random(2805)
        for _ in range(200):
            n = rng.randint(1, 4)
            r = [rng.randint(1, 4) for _ in range(n)]
            s = [rng.randint(1, 4) for _ in range(n)]
            s[0], r[-1] = rng.randint(0, 4), rng.randint(0, 4)
            t = StringType(r, s)
            if not t.total_s:
                continue
            x = Fraction(rng.randint(1, 400), rng.choice((1, 2, 3, 7)))
            digits = rng.randint(5, 200)
            approx = dobinski_eval(t, x, digits, 10 ** 6)
            assert (approx.value, approx.terms_used) \
                == self._unguarded(t, x, digits), (t, x, digits)


def _assert_within_one_ulp(value, exact, digits):
    ulp = Fraction(10) ** (value.adjusted() - digits + 1)
    assert len(value.as_tuple().digits) == digits
    assert abs(Fraction(value) - exact) <= ulp


class TestHighPrecision:
    """Precisions that the exp-based rounding made too slow to test."""

    @pytest.mark.parametrize("digits, x", [(3000, Fraction(1)),
                                           (3000, Fraction(7, 3)),
                                           (10000, Fraction(1))],
                             ids=["3000-at-1", "3000-at-7/3", "10000-at-1"])
    def test_dobinski(self, digits, x):
        t = StringType.uniform(2, 1, 5)
        approx = dobinski_eval(t, x, digits)
        _assert_within_one_ulp(approx.value,
                               bell_polynomial(t).evaluate(x), digits)

    @pytest.mark.parametrize("r, n", [(2, 9), (3, 20)])
    def test_bell_r1(self, r, n):
        approx = bell_r1_numeric(r, n, 3000)
        _assert_within_one_ulp(approx.value,
                               bell_number(StringType.uniform(r, 1, n)), 3000)


class TestRounded:
    """_rounded divides in integers; the decimal division and quantize it
    replaced (oracles.rounded_by_context) gives the same string wherever
    that division's exponent range reaches."""

    @staticmethod
    def _same(num, den, digits):
        assert str(_rounded(num, den, digits)) \
            == str(rounded_by_context(num, den, digits)), (num, den, digits)

    def test_random_sweep(self):
        rng = random.Random(3001)
        for _ in range(6000):
            num = rng.getrandbits(rng.randint(0, 200)) * rng.choice((1, -1))
            den = rng.getrandbits(rng.randint(1, 200)) or 1
            self._same(num, den, rng.randint(1, 39))

    def test_exact_ties_of_both_parities(self):
        # (q + 1/2) 10^j with q of `digits` digits, over a common factor
        rng = random.Random(3002)
        for digits in range(1, 40):
            for q in (10 ** (digits - 1), 10 ** digits - 2,
                      *(rng.randrange(10 ** (digits - 1), 10 ** digits)
                        for _ in range(4))):
                for j in (-25, -1, 0, 1, 25):
                    num, den = (2 * q + 1) * 10 ** max(j, 0), \
                        2 * 10 ** max(-j, 0)
                    k = rng.getrandbits(64) | 1
                    for sign in (1, -1):
                        self._same(sign * num * k, den * k, digits)
                        # one above and one below the tie
                        self._same(sign * (num * k + 1), den * k, digits)
                        self._same(sign * (num * k - 1), den * k, digits)

    def test_zero_and_negative_numerators(self):
        for den in (1, 3, 10 ** 50 + 7):
            for digits in (1, 7, 39):
                self._same(0, den, digits)
                assert str(_rounded(0, den, digits)) == "0"
                for num in (-1, -2, -10 ** 40, -(3 ** 90)):
                    self._same(num, den, digits)
                    assert _rounded(num, den, digits) \
                        == _rounded(-num, den, digits).copy_negate()

    @pytest.mark.parametrize("num, den, digits, text", [
        (99996, 10000, 4, "10.00"), (-99996, 10000, 4, "-10.00"),
        (99995, 10000, 4, "10.00"), (99985, 10000, 4, "9.998"),
        (95, 1, 1, "1E+2"), (99_999_995, 10 ** 10, 7, "0.01000000"),
    ])
    def test_carry_to_a_power_of_ten(self, num, den, digits, text):
        self._same(num, den, digits)
        assert str(_rounded(num, den, digits)) == text

    def test_operands_either_side_of_the_split(self):
        # operands and quotients a few bits either side of SPLIT_BITS; a
        # quotient of 4 932 digits fits in SPLIT_BITS bits, one of 4 933
        # does not
        rng = random.Random(3003)
        bits = [SPLIT_BITS + k for k in (-2, -1, 0, 1, 2)] + [1, 40]
        for digits in (1, 39, 4932, 4933, 10 ** 4):
            for num_bits in bits:
                den_bits = rng.choice(bits)
                num = rng.getrandbits(num_bits) | 1 << (num_bits - 1)
                den = rng.getrandbits(den_bits) | 1 << (den_bits - 1)
                self._same(num, den, digits)
                self._same(-num, den, digits)

    @pytest.mark.parametrize("digits", [*range(1, 40), 10 ** 4])
    def test_every_digit_count(self, digits):
        rng = random.Random(digits)
        for _ in range(5):
            self._same(rng.getrandbits(300) - (1 << 299),
                       rng.getrandbits(150) | 1, digits)
        self._same(1, 3, digits)
        self._same(2, 3, digits)
        self._same(10 ** 60, 7, digits)

    def test_past_the_default_exponent_range(self):
        # the decimal division overflowed or flushed to 0 here; the
        # integer division keeps the correctly rounded value
        assert str(_rounded(2 * 10 ** 1_100_000 + 1, 3, 5)) \
            == "6.6667E+1099999"
        assert str(_rounded(-2, 3 * 10 ** 1_100_000, 5)) \
            == "-6.6667E-1100001"


class TestSettlementProduct:
    def test_single_bug(self):
        for m in range(6):
            assert settlement_product(StringType((1,), (2,)), m) \
                == falling_factorial(m, 2)

    def test_m_zero(self):
        assert settlement_product(StringType.uniform(2, 1, 3), 0) == 0

    def test_vanishes_below_reach(self):
        # x^2 pushed through the four-factor word dies on the last D^3 block
        assert settlement_product(SHOWCASE, 2) == 0

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            settlement_product(StringType((1,), (1,)), -1)


def factor_by_factor_products(t, lo, hi):
    # p(m) for m = lo..hi-1, one falling factorial per factor
    return [factor_by_factor_product(t, m) for m in range(lo, hi)]


class TestSettlementProducts:
    """The run-by-run kernel behind every p(m) against the product taken
    one factor at a time."""

    @given(st.data())
    @settings(deadline=None, max_examples=150)
    def test_matches_factor_by_factor_product(self, data):
        n = data.draw(st.integers(1, 6))
        r = [data.draw(st.integers(1, 6)) for _ in range(n)]
        s = [data.draw(st.integers(1, 6)) for _ in range(n)]
        # the two exponents allowed to be zero: s_1 and r_n
        if data.draw(st.booleans()):
            s[0] = 0
        if data.draw(st.booleans()):
            r[-1] = 0
        t = StringType(r, s)
        lo = data.draw(st.integers(0, 6))
        hi = lo + data.draw(st.integers(1, t.total_s + 2))
        assert _settlement_products(t, lo, hi) \
            == factor_by_factor_products(t, lo, hi)

    def test_small_types_of_both_prefix_signs(self, every_small_type):
        for t in every_small_type[::17]:
            for lo in range(7):
                assert _settlement_products(t, lo, lo + 5) \
                    == factor_by_factor_products(t, lo, lo + 5), (t, lo)

    @pytest.mark.parametrize("t", HUGE_PREFIX_TYPES, ids=HUGE_PREFIX_IDS)
    def test_huge_prefix_excesses(self, t):
        for lo in range(7):
            assert _settlement_products(t, lo, lo + t.total_s + 1) \
                == factor_by_factor_products(t, lo, lo + t.total_s + 1)

    @pytest.mark.parametrize("t", [SHOWCASE, DIPPING,
                                   StringType.uniform(2, 1, 300),
                                   StringType.uniform(2, 2, 150),
                                   StringType((5, 1, 0), (0, 4, 2)),
                                   *HUGE_PREFIX_TYPES])
    def test_runs_hold_every_leg(self, t):
        # each run (m+top)_len^mult holds len * mult of the sum(s) terms
        assert sum(length * mult for length, runs in _runs(t)
                   for _, mult in runs) == t.total_s

    def test_merged_runs(self):
        # ((a+)^2 a^2)^n is (m)_2^n; ((a+)^2 a)^n is (m+n-1)_n
        assert _runs(StringType.uniform(2, 2, 150)) == ((2, ((0, 150),)),)
        assert _runs(StringType.uniform(2, 1, 300)) == ((300, ((299, 1),)),)
        # prefix excesses 0, 1, 1, 0: terms m-2, (m-1)^2, m^4, (m+1)^2
        assert _runs(SHOWCASE) \
            == ((1, ((0, 2),)), (3, ((1, 1),)), (4, ((1, 1),)))


class TestPolynomialIdentity:
    def test_zero_point(self):
        assert check_polynomial_identity(StringType.uniform(2, 1, 2), 0)

    def test_four_factor_type(self):
        for x in range(13):
            assert check_polynomial_identity(SHOWCASE, x)

    def test_hand_expansion(self):
        # (3)_1 (4)_1 = 12 = 2*(3)_1 + 1*(3)_2
        t = StringType.uniform(2, 1, 2)
        assert settlement_product(t, 3) == 12
        table = stirling_recurrence(t).values
        assert sum(v * falling_factorial(3, k) for k, v in table.items()) == 12
        assert check_polynomial_identity(t, 3)

    def test_negative_argument(self):
        assert check_polynomial_identity(StringType.uniform(1, 1, 3), -2)

    def test_negative_prefix_matches_expansion_and_enumeration(self):
        assert check_polynomial_identity(DIPPING, 1)
        # the same table, expanded from the product in the monomial basis
        assert falling_factorial_expansion(DIPPING) \
            == dict(stirling_recurrence(DIPPING).values)
        # the same product, counted settlement by settlement
        assert settlement_product(DIPPING, 1) \
            == enumerate_settlements(DIPPING, 1)

    def test_coefficient_level_expansion(self, sweep_types):
        for t in sweep_types[::3]:
            assert falling_factorial_expansion(t) \
                == dict(stirling_recurrence(t).values)


class TestCoherentExpectation:
    def test_zero_amplitude(self):
        out = coherent_expectation(StringType.uniform(1, 1, 3), 0, 10)
        assert out.real == 0 and out.imag == 0

    def test_unit_amplitude_is_bell(self, sweep_types):
        for t in sweep_types[::9]:
            out = coherent_expectation(t, 1, 30)
            assert out.real == bell_number(t) and out.imag == 0

    def test_ordinary_bell(self):
        out = coherent_expectation(StringType.uniform(1, 1, 3), 1, 20)
        assert out.real == 5 and out.imag == 0

    def test_pure_imaginary_amplitude(self):
        # excess 1, |z| = 1: conj(i)^1 * B(1) with B(x) = x gives -i
        out = coherent_expectation(StringType((2,), (1,)),
                                   (Fraction(0), Fraction(1)), 30)
        assert (out.real, out.imag) == (0, -1)

    def test_gaussian_rational_input(self):
        # |z|^2 = 1 on the 3-4-5 circle; excess 0 so phase drops out
        t = StringType.uniform(1, 1, 2)
        out = coherent_expectation(t, (Fraction(3, 5), Fraction(4, 5)), 30)
        assert out.real == 2 and out.imag == 0

    def test_complex_float_input(self):
        out = coherent_expectation(StringType.uniform(1, 1, 2), 1 + 0j, 15)
        assert out.real == 2 and out.imag == 0

    def test_negative_prefix_matches_recurrence_and_enumeration(self):
        out = coherent_expectation(DIPPING, 1, 10)
        assert out.imag == 0
        assert out.real == bell_number(DIPPING) \
            == sum(count_colonies_by_free_legs(DIPPING).values())

    def test_refuses_negative_excess(self):
        with pytest.raises(NegativeExcess):
            coherent_expectation(StringType((1, 1), (1, 2)), 1, 10)

    def test_refuses_no_digits(self):
        with pytest.raises(ValueError) as exc:
            coherent_expectation(StringType.uniform(1, 1, 2), 1, 0)
        assert str(exc.value) == "target_digits must be positive"

    @pytest.mark.parametrize("z, digits, real, imag", [
        (1, 20, "2.0000000000000000000", "0"),
        ((0, 1), 10, "0", "-2.000000000"),
        (Fraction(1, 3), 12, "0.0411522633745", "0"),
        (1, MAX_DIGITS, Fraction(2), "0"),
        (Fraction(1, 3), MAX_DIGITS, Fraction(10, 243), "0"),
    ], ids=["exact-real", "exact-imaginary", "rounded", "exact-max-digits",
            "rounded-max-digits"])
    def test_exact_values_print_every_digit(self, z, digits, real, imag):
        # an exact quotient keeps every requested digit, as a rounded one
        # does; only 0 prints short.  At MAX_DIGITS the quotient is
        # converted by halves, and every digit is checked against a
        # division at that precision
        out = coherent_expectation(StringType((1, 2), (1, 1)), z, digits)
        if isinstance(real, Fraction):
            with localcontext() as ctx:
                ctx.prec = digits
                assert out.real == (Decimal(real.numerator)
                                    / Decimal(real.denominator))
            real = str(out.real)
        assert (str(out.real), str(out.imag)) == (real, imag)
        assert len(out.real.as_tuple().digits) == digits or out.real == 0

    def test_large_excess_answers_in_time_and_exactly(self):
        # (a+)^(d+1) a has excess d and B(x) = x, so z = 2 gives 2^(d+2)
        # and z = 3i gives (-i)^d 3^(d+2) = -i 3^(d+2) at d = 20 001,
        # z = (3 + 4i)/5 on the unit circle a value of modulus 1, and the
        # binary floats of z = 0.1 + 0.7i one of squared modulus
        # (|z|^2)^(d+2), its parts about 1.1 Mbit over 1.1 Mbit.  One
        # Fraction multiply per unit of d took 5 s at d = 8 000 on the
        # unit-circle z, and converting the float z's parts to decimal
        # before dividing took 10 s; a child process with a timeout fails
        # the test instead of hanging
        d = 20_001
        code = ("from fractions import Fraction\n"
                "from bosonorder import StringType, coherent_expectation\n"
                f"t = StringType(({d + 1},), (1,))\n"
                "for z in (2, (0, 3), (Fraction(3, 5), Fraction(4, 5)),\n"
                "          0.1 + 0.7j):\n"
                "    out = coherent_expectation(t, z, 40)\n"
                "    print(out.real, out.imag)\n")
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=5, env=dict(os.environ, PYTHONPATH=str(root / "src")))
        assert (proc.returncode, proc.stderr) == (0, "")
        got = list(map(Decimal, proc.stdout.split()))
        with localcontext() as ctx:
            ctx.prec = 40
            expected = [+Decimal(2 ** (d + 2)), 0, 0, -Decimal(3 ** (d + 2))]
        assert got[:4] == expected
        assert [len(v.as_tuple().digits) for v in got[:4]] == [40, 1, 1, 40]
        modulus = Fraction(got[4]) ** 2 + Fraction(got[5]) ** 2
        assert abs(modulus - 1) < Fraction(1, 10 ** 38)
        square = Fraction(0.1) ** 2 + Fraction(0.7) ** 2
        with localcontext() as ctx:
            ctx.prec = 60
            expected = (Decimal(square.numerator)
                        / Decimal(square.denominator)) ** (d + 2)
        modulus = Fraction(got[6]) ** 2 + Fraction(got[7]) ** 2
        assert abs(modulus / Fraction(expected) - 1) < Fraction(1, 10 ** 38)

    def test_power_matches_one_multiply_per_unit(self):
        # conj(z)^d multiplied in d times, as before squaring, at d <= 300
        # on Gaussian rationals: equal after one rounding at 40 digits
        rng = random.Random(30)
        for d in (0, 1, 2, 3, 64, 255, 300, *rng.sample(range(300), 6)):
            t = StringType((2, d + 1), (1, 2))
            poly = bell_polynomial(t)
            for _ in range(3):
                z = (Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                b = poly.evaluate(z[0] ** 2 + z[1] ** 2)
                re, im = _gaussian_power((z[0], -z[1]), d)
                out = coherent_expectation(t, z, 40)
                with localcontext() as ctx:
                    ctx.prec = 40
                    for got, exact in ((out.real, re * b), (out.imag, im * b)):
                        assert got == (Decimal(exact.numerator)
                                       / Decimal(exact.denominator)), (d, z)


class TestApproxCarriers:
    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxValue(Decimal(1), 0, 1)
        with pytest.raises(ValueError):
            ApproxValue(Decimal(1), 5, 0)
        with pytest.raises(ValueError):
            ComplexApproxValue(Decimal(0), Decimal(0), 5, 0)
        with pytest.raises(ValueError) as exc:
            ComplexApproxValue(Decimal(0), Decimal(0), 0, 1)
        assert str(exc.value) == "precision_digits must be positive"

    def test_coherent_counts_coefficients(self):
        # B(x) = x + 3x^2 + x^3 has three nonzero coefficients
        out = coherent_expectation(StringType.uniform(1, 1, 3), 1, 10)
        assert out.coefficients_used == 3


def _gaussian_product(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _gaussian_power(u, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _gaussian_product(out, u)
    return out


def _assert_close(value, exact, digits):
    # one rounding to digits significant digits: within 10^(1-digits)
    # relative, and an exact zero stays zero
    assert abs(Fraction(value) - exact) <= abs(exact) / 10 ** (digits - 1)


class TestNegativePrefixSweep:
    """Every type of at most 3 factors with exponents 1..3 whose prefix
    excesses dip below zero (439 of them): the routes that take a signed
    settlement product agree with the recurrence and with enumeration."""

    @pytest.fixture(scope="class")
    def dipping_types(self, every_small_type):
        types = [t for t in every_small_type
                 if not t.has_nonnegative_prefixes()]
        assert len(types) == 439
        return types

    def test_dobinski_within_one_ulp(self, dipping_types):
        for t in dipping_types:
            poly = bell_polynomial(t)
            for x in (Fraction(1), Fraction(7, 3), Fraction(1, 5)):
                _assert_within_one_ulp(dobinski_eval(t, x, 30).value,
                                       poly.evaluate(x), 30)

    def test_polynomial_identity_and_expansion(self, dipping_types):
        for t in dipping_types:
            assert falling_factorial_expansion(t) \
                == dict(stirling_recurrence(t).values), t
            assert all(check_polynomial_identity(t, x)
                       for x in range(-3, 8)), t

    def test_settlement_product_matches_enumeration(self, dipping_types):
        for t in dipping_types:
            for m in range(5):
                assert settlement_product(t, m) \
                    == enumerate_settlements(t, m), (t, m)

    def test_selfcheck_passes_every_check(self, dipping_types):
        for t in dipping_types:
            statuses = {r.name: r.status for r in run_selfcheck(t)}
            assert list(statuses.values()) == ["pass"] * 4, (t, statuses)

    def test_signed_kernel_closed_form_matches_recurrence(self,
                                                          dipping_types):
        for t in dipping_types:
            assert closed_form_table(t) \
                == dict(stirling_recurrence(t).values), t

    def test_coherent_matches_normal_form(self, dipping_types):
        # <z| word |z> from the rewritten normal form, monomial by monomial:
        # (a+)^i a^j gives conj(z)^i z^j
        checked = 0
        for t in dipping_types:
            if t.excess < 0:
                continue
            form = normal_order(word_from_type(t))
            for z in ((Fraction(3, 5), Fraction(4, 5)),
                      (Fraction(-1, 2), Fraction(3, 2))):
                conj = (z[0], -z[1])
                exact = [Fraction(0), Fraction(0)]
                for i, j, c in form.monomials():
                    re, im = _gaussian_product(_gaussian_power(conj, i),
                                               _gaussian_power(z, j))
                    exact[0] += c * re
                    exact[1] += c * im
                out = coherent_expectation(t, z, 30)
                _assert_close(out.real, exact[0], 30)
                _assert_close(out.imag, exact[1], 30)
            checked += 1
        assert checked == 111


class TestPinnedNumbers:
    """Values as the package printed them when decimal and fractions were
    imported with the stirling module: loading them only where a value
    needs them changes no digit and no result type."""

    @pytest.mark.parametrize("r, s, x, digits, value, terms", [
        ((2, 1), (1, 1), Fraction(1, 2), 40,
         "1.250000000000000000000000000000000000000", 31),
        ((3, 2, 1), (1, 2, 1), 3, 30, "702.000000000000000000000000000", 45),
        ((1,) * 5, (1,) * 5, Fraction(7, 3), 60,
         "767.176954732510288065843621399176954732510288065843621399177", 65),
        ((1, 3), (2, 1), 0, 12, "0", 1),
    ])
    def test_dobinski(self, r, s, x, digits, value, terms):
        approx = dobinski_eval(StringType(r, s), x, digits)
        assert (str(approx.value), approx.terms_used) == (value, terms)

    @pytest.mark.parametrize("r, s, z, digits, real, imag, used", [
        ((3, 1), (1, 1), complex(0.5, -1.25), 35,
         "-11.448486328125000000000000000000000",
         "10.903320312500000000000000000000000", 2),
        ((3, 1), (1, 1), (Fraction(1, 3), Fraction(2, 7)), 30,
         "0.0181404962922364181539701439919",
         "-0.117215514503681471148730161179", 2),
        ((2, 2), (1, 2), 2, 20, "272.00000000000000000", "0", 3),
        ((2, 2), (1, 2), 0, 5, "0", "0", 3),
    ])
    def test_coherent(self, r, s, z, digits, real, imag, used):
        out = coherent_expectation(StringType(r, s), z, digits)
        assert (str(out.real), str(out.imag), out.coefficients_used) \
            == (real, imag, used)

    def test_split_conversions(self):
        # thousands of digits, so _exact_decimal converts by halves
        approx = dobinski_eval(StringType((2, 1), (1, 1)), Fraction(1, 3),
                               6000)
        text = str(approx.value)
        assert (len(text), approx.terms_used) == (6002, 1818)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "918c48d9bfe616cdedded78a1611135f7c1ec2240f1fc2e9130cd0709f13d415")
        out = coherent_expectation(StringType((3, 1), (1, 1)),
                                   (Fraction(1, 3), Fraction(2, 7)), 5500)
        assert hashlib.sha256(f"{out.real} {out.imag}".encode()).hexdigest() \
            == "cc2c201ab04be93ffda5a92157bb7b1d38a01909b9c42fa285bb79630f573969"

    def test_bell_polynomial_evaluate(self):
        poly = bell_polynomial(StringType((2, 2), (1, 2)))
        assert poly.coeffs == (0, 2, 4, 1)
        for x, value in ((5, 235), (True, 7), (Fraction(5, 3),
                                               Fraction(515, 27)),
                         (Fraction(4), Fraction(136))):
            got = poly.evaluate(x)
            assert got == value and type(got) is type(value), x
