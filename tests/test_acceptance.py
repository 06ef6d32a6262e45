"""Acceptance suite: one test per release criterion, each summarized as a
PASS/FAIL line in the terminal summary.  All comparisons are exact unless a
tolerance is stated in the test."""

import json
import math
import random
import subprocess
import sys
from decimal import Decimal

from bosonorder import (ANNIHILATION, CREATION, DEFAULT_ENUM_CAP, BosonWord,
                        NegativeExcess, StringType, bell_number,
                        bell_polynomial, bell_r1_numeric,
                        coherent_expectation, colony_to_forest,
                        count_increasing_forests, dobinski_eval,
                        enumerate_colonies, enumerate_settlements,
                        falling_factorial, forest_egf, forest_to_colony,
                        free_legs, settlement_product, stirling_recurrence,
                        tree_series, tree_series_closed_form)
from bosonorder.check import TABLE_ROUTES
from bosonorder.cli import parse_word, word_to_text
from oracles import count_surjective_settlements, dobinski_terms, empty_cells

SHOWCASE = StringType((3, 2, 1, 3), (2, 2, 2, 3))


def test_criterion_01_four_way_agreement(every_small_type):
    """all four table methods agree across the small-type sweep

    every route of the CLI's route table (rewriting, recurrence, closed
    form, enumeration) gives the same coefficient table, exactly, on every
    type of at most 3 factors with exponents 1..3, negative prefix
    excesses included; rewriting sits out only at negative excess, which
    it refuses"""
    assert len(every_small_type) == 819
    bad = []
    for t in every_small_type:
        table = dict(stirling_recurrence(t).values)
        off = {}
        for name, route in TABLE_ROUTES.items():
            try:
                got = route(t, DEFAULT_ENUM_CAP)
            except NegativeExcess:
                assert t.excess < 0, t
                continue
            if got != table:
                off[name] = got
        if off:
            bad.append((t, table, off))
    assert not bad, f"first disagreement: {bad[0]}"


def test_criterion_02_classical_reduction():
    """the all-ones case reproduces the classical set-partition numbers

    tables match an independently built triangle, row sums give the Bell
    numbers 1, 2, 5, 15, 52, 203, 877, 4140"""
    # independent triangle: S(n+1, k) = S(n, k-1) + k S(n, k), edges 1
    triangle = {1: {1: 1}}
    for n in range(1, 8):
        row = {}
        for k in range(1, n + 2):
            row[k] = triangle[n].get(k - 1, 0) + k * triangle[n].get(k, 0)
        row[1] = row[n + 1] = 1
        triangle[n + 1] = row
    bells = []
    for n in range(1, 9):
        t = StringType.uniform(1, 1, n)
        got = dict(stirling_recurrence(t).values)
        assert got == triangle[n], f"n = {n}: {got} != {triangle[n]}"
        bells.append(sum(got.values()))
    assert bells == [1, 2, 5, 15, 52, 203, 877, 4140]


def test_criterion_03_empty_cell_count(sweep_types):
    """every enumerated colony has exactly excess-plus-free-legs empty cells"""
    for t in sweep_types:
        for colony in enumerate_colonies(t):
            assert empty_cells(colony) == t.excess + free_legs(colony), \
                f"{t}: {colony.placement}"


def test_criterion_04_settlement_counts(sweep_types):
    """settlement counts agree between enumeration, product, and table

    checked for m = 0..6 on the sweep and through m = 12 on the
    four-factor showcase type, whose 11 947 colonies are walked at every
    m"""
    for t in sweep_types:
        table = stirling_recurrence(t).values
        for m in range(7):
            enumerated = enumerate_settlements(t, m)
            product = settlement_product(t, m)
            expanded = sum(v * falling_factorial(m, k)
                           for k, v in table.items())
            assert enumerated == product == expanded, \
                f"{t}, m = {m}: {enumerated}, {product}, {expanded}"
    # the four-factor showcase type: identity and enumeration up to m = 12
    table = stirling_recurrence(SHOWCASE).values
    assert dict(table) == {3: 864, 4: 3936, 5: 4632, 6: 2076, 7: 404,
                           8: 34, 9: 1}
    for m in range(13):
        product = settlement_product(SHOWCASE, m)
        expanded = sum(v * falling_factorial(m, k) for k, v in table.items())
        enumerated = enumerate_settlements(SHOWCASE, m)
        assert enumerated == product == expanded, \
            f"m = {m}: {enumerated}, {product}, {expanded}"


def test_criterion_05_surjective_settlements(sweep_types):
    """surjective settlement counts equal table entry times factorial"""
    for t in sweep_types:
        table = stirling_recurrence(t).values
        for m in range(t.total_s + 2):
            assert count_surjective_settlements(t, m) \
                == table.get(m, 0) * math.factorial(m), f"{t}, m = {m}"


def test_criterion_06_series_convergence(sweep_types):
    """series evaluation at 30 digits is within 1e-25 of the exact value

    every sweep type at x = 1; partial sums are monotone because terms
    are nonnegative"""
    tol = Decimal("1e-25")
    for t in sweep_types:
        exact = bell_polynomial(t).evaluate(1)
        approx = dobinski_eval(t, 1, 30)
        rel = abs(approx.value - exact) / exact
        assert rel < tol, f"{t}: relative error {rel}"
        terms = dobinski_terms(t, 1)
        assert all(next(terms) >= 0 for _ in range(25)), t


def test_criterion_07_single_leg_suite():
    """single-leg counts agree across all four specialized routes

    colony enumeration, the forest generating function, the explicit
    numeric sum (to 1e-10), and the forest bijection round-trip"""
    counted = [sum(1 for _ in enumerate_colonies(StringType.uniform(2, 1, n)))
               for n in range(1, 6)]
    assert counted == [1, 3, 13, 73, 501]
    f = forest_egf(2, 5)
    assert [f.counts[n] for n in range(1, 6)] == counted
    for n, expected in enumerate(counted, start=1):
        got = bell_r1_numeric(2, n, 20).value
        assert abs(got - expected) / expected < Decimal("1e-10"), n
    for r in (1, 2, 3):
        for n in range(1, 5):
            t = StringType.uniform(r, 1, n)
            colonies = list(enumerate_colonies(t))
            for colony in colonies:
                assert forest_to_colony(colony_to_forest(colony)) == colony
            assert count_increasing_forests(r, n) == len(colonies)


def test_criterion_08_tree_series_identity():
    """both increasing-tree series constructions agree through order 12"""
    for r in (2, 3, 4):
        assert tree_series(r, 12) == tree_series_closed_form(r, 12), r


def test_criterion_09_coherent_state_values(sweep_types):
    """coherent-state expectations hit the Bell number at 1 and zero at 0"""
    for t in sweep_types:
        at_one = coherent_expectation(t, 1, 30)
        assert at_one.real == bell_number(t) and at_one.imag == 0, t
        at_zero = coherent_expectation(t, 0, 30)
        assert at_zero.real == 0 and at_zero.imag == 0, t


def test_criterion_10_cli_contract():
    """selfcheck exits 0, parsing round-trips, JSON output is byte-stable

    the parse round-trip runs over 1000 seeded random words of length
    up to 12"""
    proc = subprocess.run(
        [sys.executable, "-m", "bosonorder", "selfcheck",
         "--r", "1,1,1", "--s", "1,1,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

    rng = random.Random(20260814)
    for _ in range(1000):
        letters = tuple(rng.choice((CREATION, ANNIHILATION))
                        for _ in range(rng.randint(0, 12)))
        word = BosonWord(letters)
        assert parse_word(word_to_text(word)) == word

    args = [sys.executable, "-m", "bosonorder", "stirling",
            "--r", "3,2,1,3", "--s", "2,2,2,3", "--format", "json"]
    first = subprocess.run(args, capture_output=True).stdout
    second = subprocess.run(args, capture_output=True).stdout
    assert first == second and json.loads(first)["bell"] == "11947"
