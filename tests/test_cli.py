import argparse
import hashlib
import importlib
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bosonorder
from bosonorder import (ANNIHILATION, CREATION, ApproxValue, BosonOrderError,
                        BosonWord, LengthMismatch, NegativeExcess, NormalForm,
                        ParseError, StirlingTable, StringType, TooLarge,
                        normal_order, stirling_recurrence, type_from_word)
from bosonorder import algebra, check, cli, combinat, stirling
from bosonorder.check import run_selfcheck
from bosonorder.cli import (MAX_ARITY, MAX_DIGITS, MAX_EXPONENT_DIGITS,
                            build_parser, main, parse_type, parse_word,
                            word_to_text)
from oracles import apply_crossing

SHOWCASE = StringType((3, 2, 1, 3), (2, 2, 2, 3))

SUBCOMMANDS = ("order", "stirling", "bell", "dobinski", "colonies",
               "settlements", "forests", "series", "selfcheck")

# a 30-factor type with nonnegative prefix excesses, so every table method
# accepts it
THIRTY_R = "3,2,3,1,3,3,1,2,1,2,2,3,1,1,2,1,3,1,1,1,1,3,3,2,3,2,3,1,2,1"
THIRTY_S = "1,2,2,1,2,1,2,2,1,2,2,2,1,1,1,2,1,1,2,2,1,1,2,2,2,2,2,1,1,1"

SELFCHECK_111_JSON = """\
{
  "type": {
    "r": [
      1,
      1,
      1
    ],
    "s": [
      1,
      1,
      1
    ]
  },
  "checks": [
    {
      "name": "stirling tables agree",
      "status": "pass",
      "detail": "4 methods on table {1: 1, 2: 3, 3: 1}"
    },
    {
      "name": "empty cells equal excess plus free legs",
      "status": "pass",
      "detail": ""
    },
    {
      "name": "settlement counts agree",
      "status": "pass",
      "detail": "m = 0..3"
    },
    {
      "name": "dobinski series gives the bell number",
      "status": "pass",
      "detail": "bell 5 to 1e-25 in 32 terms"
    }
  ]
}
"""

SERIES_TREE_3_6 = """\
{
  "kind": "tree",
  "arity": 3,
  "order": 6,
  "convention": "egf",
  "coefficients": [
    "1",
    "1",
    "3/2",
    "5/2",
    "35/8",
    "63/8",
    "231/16"
  ],
  "counts": [
    "1",
    "1",
    "3",
    "15",
    "105",
    "945",
    "10395"
  ]
}
"""

SERIES_FOREST_3_6 = """\
{
  "kind": "forest",
  "arity": 3,
  "order": 6,
  "convention": "egf",
  "coefficients": [
    "1",
    "1",
    "2",
    "25/6",
    "211/24",
    "559/30",
    "28471/720"
  ],
  "counts": [
    "1",
    "1",
    "4",
    "25",
    "211",
    "2236",
    "28471"
  ]
}
"""


SRC = Path(__file__).resolve().parent.parent / "src"


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# values an integer flag's type is tried on: below, at and above each bound
TYPE_PROBES = ("-1", "0", "1", "2", str(MAX_ARITY), str(MAX_ARITY + 1),
               str(MAX_DIGITS + 1), "x")


def _type_outcome(convert, text: str):
    try:
        return convert(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        return type(exc).__name__, str(exc)


def _action_fields(action: argparse.Action) -> dict:
    # every field of a flag but the parser holding it, its type as what it
    # does with TYPE_PROBES
    fields = {k: v for k, v in vars(action).items() if k != "container"}
    if callable(fields["type"]):
        fields["type"] = [_type_outcome(fields["type"], text)
                          for text in TYPE_PROBES]
    return fields


def imported_modules(*argv, code: int = 0) -> set[str]:
    """The modules a python child imports running argv, which exits with
    code.  -S keeps site from preloading typing; -X importtime writes one
    stderr line per module imported, so no timing is compared."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *argv],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == code, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


class TestParseWord:
    def test_plain_tokens(self):
        assert parse_word("ad a").letters == (CREATION, ANNIHILATION)

    def test_exponents(self):
        word = parse_word("ad^3 a^2 ad^2 a^2")
        assert word.letters == (CREATION,) * 3 + (ANNIHILATION,) * 2 \
            + (CREATION,) * 2 + (ANNIHILATION,) * 2

    def test_huge_exponents_stay_runs(self):
        word = parse_word("ad^1000000 a^1000000")
        assert word.runs == ((CREATION, 10 ** 6), (ANNIHILATION, 10 ** 6))
        assert normal_order(word) == NormalForm(0, {10 ** 6: 1})

    def test_huge_crossing(self):
        # a^2 (a+)^L: three terms, each keyed by its surviving annihilators
        form = normal_order(parse_word("a^2 ad^1000000"))
        assert form == NormalForm(10 ** 6 - 2, {
            2 - p: c for p, c in apply_crossing(2, 10 ** 6)})

    def test_empty_text_is_empty_word(self):
        assert parse_word("").letters == ()

    def test_unknown_token_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_word("bogus")
        assert exc.value.offset == 0

    def test_offset_points_at_bad_token(self):
        with pytest.raises(ParseError) as exc:
            parse_word("ad xx")
        assert exc.value.offset == 3
        assert "(byte 3)" in str(exc.value)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_word("ad^0")

    def test_glued_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_word("ada")

    def test_offset_is_computed_only_for_an_error(self, monkeypatch):
        # encoding the prefix of every token made parsing quadratic
        calls = []

        def byte_offset(text, index):
            calls.append(index)
            return len(text[:index].encode("utf-8"))

        monkeypatch.setattr(cli, "_byte_offset", byte_offset)
        assert len(parse_word("ad a " * 100).letters) == 200
        assert len(calls) <= 1
        calls.clear()
        with pytest.raises(ParseError) as exc:
            parse_word("ad a " * 100 + "\u00e9")
        assert exc.value.offset == 500 and len(calls) == 1


class TestWordText:
    def test_round_trip_example(self):
        text = "ad^3 a^2 ad^2 a^2"
        assert word_to_text(parse_word(text)) == text

    def test_single_letters_unexponented(self):
        assert word_to_text(BosonWord((CREATION, ANNIHILATION))) == "ad a"

    @given(st.lists(st.sampled_from([CREATION, ANNIHILATION]), max_size=12))
    @settings(deadline=None)
    def test_round_trip(self, letters):
        word = BosonWord(tuple(letters))
        assert parse_word(word_to_text(word)) == word


class TestParseType:
    def test_example(self):
        assert parse_type("3,2,1,3", "2,2,2,3") == SHOWCASE

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            parse_type("1,2", "1")

    def test_bad_entry_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_type("1,x,2", "1,1,1")
        assert exc.value.offset == 2

    def test_zero_entry_rejected(self):
        with pytest.raises(ParseError):
            parse_type("0,1", "1,1")


# small types of both prefix signs, each with s_1 > 0
SMALL_TYPES = [StringType.uniform(1, 1, 3), StringType((2, 1, 3), (1, 2, 2)),
               StringType((1, 1, 3), (1, 3, 1))]
SMALL_TYPE_IDS = ["ones", "positive", "negative-prefix"]


class TestSelfcheck:
    def test_all_pass(self):
        results = run_selfcheck(StringType.uniform(1, 1, 3))
        assert [r.status for r in results] == ["pass"] * 4

    def test_two_bug_type(self):
        results = run_selfcheck(StringType.uniform(2, 1, 2))
        assert all(r.status == "pass" for r in results)

    def test_negative_prefix_runs_identity(self):
        # prefix excesses (0, 0, -2, 0): the closed form joins the table
        # check, whose agreement proves the falling-factorial identity
        t = StringType((1, 1, 3), (1, 3, 1))
        results = run_selfcheck(t)
        assert [(r.name, r.status) for r in results] == [
            ("stirling tables agree", "pass"),
            ("empty cells equal excess plus free legs", "pass"),
            ("settlement counts agree", "pass"),
            ("dobinski series gives the bell number", "pass")]
        assert results[0].detail == \
            f"4 methods on table {dict(stirling_recurrence(t).values)}"
        assert run_selfcheck(StringType((1, 3), (2, 1)))[0].detail \
            == "4 methods on table {2: 1, 3: 1}"

    def test_identity_reaches_the_top_entry(self, monkeypatch):
        # (x)_k = 0 for x < k, so an error in S(sum(s)) shows only at
        # x = sum(s), here 8, the last point the closed form reads
        t = StringType.uniform(1, 1, 8)
        right = stirling_recurrence(t).values
        top = max(right)
        wrong = {**right, top: right[top] + 1}
        monkeypatch.setattr(check, "stirling_recurrence",
                            lambda u: StirlingTable(u, wrong))
        tables = run_selfcheck(t)[0]
        assert tables.status == "fail"
        assert tables.detail == (
            f"recurrence gives {wrong}, others {{'rewrite': {right}, "
            f"'closed-form': {right}, 'enumerate': {right}}}")

    def test_identity_covers_every_degree(self, monkeypatch):
        # sum(s) = 13 and excess -11: the closed form reads p(0..13), and
        # the series cannot stop before m = 14, so its term cap counts
        # from there: 41 terms fit a cap of 13 + 30, not one of 30
        monkeypatch.setattr(check, "DEFAULT_MAX_TERMS", 30)
        results = run_selfcheck(StringType((1, 1), (1, 12)))
        assert results[0].detail == "3 methods on table {12: 12, 13: 1}"
        assert results[2].detail == "m = 0..13"
        assert results[-1].detail == "bell 13 to 1e-25 in 41 terms"
        assert all(r.status == "pass" for r in results)

    def test_walks_the_colonies_once(self, monkeypatch):
        # one walk gives the enumeration route's table and checks 2 and 3
        walks = []
        walk = combinat._walk

        def counted(*args):
            walks.append(args[0])
            return walk(*args)

        monkeypatch.setattr(combinat, "_walk", counted)
        t = StringType.uniform(1, 1, 3)
        assert [r.status for r in run_selfcheck(t)] == ["pass"] * 4
        assert walks == [t]

    def test_settlement_check_reads_the_walked_colonies(self, monkeypatch):
        # the second yield, foot 2 on bug 1's cell, leaves foot 3 no cell
        # and foot 4 only bug 2's; with that cell gone the one walk loses
        # one colony, feet 1 and 3 on the ground: the enumeration route's
        # table has 1 colony with two free legs, not 2, and (m)_2 sees it
        # at m = 2, 3 and 4, 2, 30 and 132 settlements against 4, 36 and 144
        walk = combinat._walk

        def one_dropped(*args):
            for ground, near, far in walk(*args):
                if not near:
                    far &= far - 1
                yield ground, near, far

        monkeypatch.setattr(combinat, "_walk", one_dropped)
        results = run_selfcheck(StringType((1, 1, 1), (1, 2, 1)))
        assert [r.status for r in results] == ["fail", "pass", "fail", "pass"]
        assert results[0].detail == (
            "recurrence gives {2: 2, 3: 4, 4: 1}, others "
            "{'enumerate': {2: 1, 3: 4, 4: 1}}")
        assert results[2].detail == \
            "(m, enumerated, product) = [(2, 2, 4), (3, 30, 36), (4, 132, 144)]"

    def test_empty_cells_are_counted_from_the_held_cells(self, monkeypatch):
        # where foot 2 holds bug 1's cell, foot 4 is handed that cell in
        # place of bug 3's, which foot 3 cannot take: the masks keep their
        # bit counts, so the free legs stay right and only the cell count
        # sees the doubled cell, 3 empty cells against 0 + 2
        walk = combinat._walk

        def doubled(t, held, changed):
            for ground, near, far in walk(t, held, changed):
                if held[1]:
                    far = far & ~(1 << 2) | held[1]
                yield ground, near, far

        monkeypatch.setattr(combinat, "_walk", doubled)
        results = run_selfcheck(StringType.uniform(1, 1, 4))
        assert [r.status for r in results] == ["pass", "fail", "pass", "pass"]
        assert results[1].detail == "3 cells vs 0 + 2"

    def test_empty_cells_are_counted_for_the_foot_before_last(self,
                                                              monkeypatch):
        # where foot 2 holds bug 1's cell, foot 3 is handed that cell in
        # place of the lowest cell it may take: near keeps its bit count, so
        # the free legs stay right, and the check of foot 3 itself, before
        # foot 4 moves, sees the doubled cell, 3 empty cells against 0 + 2
        # (the check of foot 4 alone would report 2 cells against 0 + 1)
        walk = combinat._walk

        def traded(t, held, changed):
            for ground, near, far in walk(t, held, changed):
                if held[1]:
                    near = near & (near - 1) | held[1]
                yield ground, near, far

        monkeypatch.setattr(combinat, "_walk", traded)
        results = run_selfcheck(StringType.uniform(1, 1, 4))
        assert [r.status for r in results] == ["pass", "fail", "pass", "pass"]
        assert results[1].detail == "3 cells vs 0 + 2"

    def test_empty_cell_leg_matches_a_per_colony_reference(self,
                                                          monkeypatch):
        # selfcheck tests each yield of the walk once; the reference counts
        # every colony's cells.  Walks are corrupted at random yields: a
        # held cell put into near or far, a bit dropped from near, ground
        # lowered by one.  Both sides see the same corruptions and must
        # give the same status and detail
        walk = combinat._walk
        rng = random.Random(35)
        kinds = set()
        checked = 0
        while checked < 200:
            n = rng.randint(1, 6)
            r = [rng.randint(1, 3) for _ in range(n)]
            s = [rng.randint(1, 3) for _ in range(n)]
            if rng.random() < 0.25:
                s[0] = 0
            if rng.random() < 0.25:
                r[-1] = 0
            t = StringType(r, s)
            if bosonorder.bell_number(t) > 2000:
                continue
            checked += 1
            seed = rng.random()
            monkeypatch.setattr(combinat, "_walk",
                                _corrupted_walk(walk, random.Random(seed)))
            got = run_selfcheck(t)[1]
            monkeypatch.setattr(combinat, "_walk",
                                _corrupted_walk(walk, random.Random(seed)))
            status, detail, kind = _per_colony_empty_cells(t)
            assert (got.status, got.detail) == (status, detail), t
            kinds.add(kind)
        assert kinds == {None, "count", "mask"}

    def test_refuses_over_the_cap_before_any_route(self, monkeypatch):
        # the cap is checked first: rewriting and the closed form (seconds
        # on this type) never run, and the walk never starts.  Its largest
        # Dobinski term, p(m)/m! at m = 1032 with p(m) = (m)_1000^2, refuses
        # it without the recurrence
        def never(*args):
            raise AssertionError("a route ran on a type over the cap")

        t = StringType((1000, 1000), (1000, 1000))
        lower = math.perm(1032, 1000) ** 2 // (3 * math.factorial(1032))
        monkeypatch.setattr(check, "normal_order", never)
        monkeypatch.setattr(check, "closed_form_table", never)
        monkeypatch.setattr(combinat, "_walk", never)
        monkeypatch.setattr(stirling, "stirling_recurrence", never)
        with pytest.raises(TooLarge) as exc:
            run_selfcheck(t)
        assert str(exc.value) == (f"more than {lower} colonies exceed the "
                                  f"cap of 10000000")
        # below that bound, the recurrence counts the colonies exactly
        monkeypatch.undo()
        with pytest.raises(TooLarge, match=r"^4213597 colonies exceed the "
                                           r"cap of 4213596$"):
            run_selfcheck(StringType.uniform(1, 1, 12), enum_cap=4213596)

    def test_runs_the_recurrence_at_most_twice(self, monkeypatch):
        # once as a table route, and once for the cap if no bound decides it
        calls = []
        recurrence = stirling.stirling_recurrence

        def counted(t):
            calls.append(t)
            return recurrence(t)

        monkeypatch.setattr(stirling, "stirling_recurrence", counted)
        monkeypatch.setattr(check, "stirling_recurrence", counted)
        # colonies at most 1 * 2^3 * 3 = 24 by the upper bound: no count
        t = StringType((1, 1, 3), (1, 3, 1))
        assert [r.status for r in run_selfcheck(t)] == ["pass"] * 4
        assert calls == [t]
        # 11! is over the cap, 678 570 colonies are not, and the largest
        # Dobinski term over 3 is about 1.7e5: counted for the cap
        calls.clear()
        t = StringType.uniform(1, 1, 11)
        assert [r.status for r in run_selfcheck(t)] == ["pass"] * 4
        assert calls == [t, t]

    def test_numeric_check_fails_one_unit_off(self, monkeypatch):
        t = StringType.uniform(1, 1, 3)
        right = check.dobinski_eval(t, 1, 30)
        assert right.value == 5
        wrong = right.value + 1
        monkeypatch.setattr(check, "dobinski_eval", lambda *args: ApproxValue(
            wrong, right.precision_digits, right.terms_used))
        results = run_selfcheck(t)
        assert [r.status for r in results] == ["pass"] * 3 + ["fail"]
        assert results[-1].detail == f"{wrong} vs 5"

    @pytest.mark.parametrize("t", SMALL_TYPES, ids=SMALL_TYPE_IDS)
    def test_numeric_check_at_its_boundary(self, t, monkeypatch):
        # |v - bell| 10^25 = bell exactly fails, and one unit of v's last
        # place either side decides as the Fraction form does
        bell = stirling_recurrence(t).bell()
        right = check.dobinski_eval(t, 1, 30)
        unit = Decimal(1).scaleb(-25)
        above, below = Decimal(bell) * (1 + unit), Decimal(bell) * (1 - unit)
        statuses = []
        for value in (above - unit, above, above + unit,
                      below - unit, below, below + unit):
            monkeypatch.setattr(check, "dobinski_eval",
                                lambda *args, value=value: ApproxValue(
                                    value, 30, right.terms_used))
            status = run_selfcheck(t)[-1].status
            fails = abs(Fraction(value) - bell) * 10 ** 25 >= bell
            assert status == ("fail" if fails else "pass"), value
            statuses.append(status)
        assert statuses == ["pass", "fail", "fail", "fail", "fail", "pass"]

    @pytest.mark.parametrize("t", SMALL_TYPES, ids=SMALL_TYPE_IDS)
    def test_builds_p_0_to_sum_s_once(self, t, monkeypatch):
        # the closed form and the settlement leg read one window p(0..sum(s));
        # the Dobinski leg's own windows start at s_1
        stirling._closed_form_row.cache_clear()
        builds = []
        products = stirling._settlement_products

        def counted(*args):
            builds.append(args)
            return products(*args)

        # counted wherever it is looked up, check too if it binds the name
        monkeypatch.setattr(stirling, "_settlement_products", counted)
        monkeypatch.setattr(check, "_settlement_products", counted,
                            raising=False)
        assert [r.status for r in run_selfcheck(t)] == ["pass"] * 4
        window = (t, 0, t.total_s + 1)
        assert builds.count(window) == 1
        others = [args for args in builds if args != window]
        assert all(u is t and lo >= t.s[0] > 0 for u, lo, _ in others)

    def test_budget_is_checked_before_any_route(self, monkeypatch):
        # at a budget of 36 differences, sum(s) = 5 runs and sum(s) = 6 is
        # refused with no route run and the walk never started
        monkeypatch.setattr(stirling, "CLOSED_FORM_BUDGET", 36)
        assert [r.status for r in run_selfcheck(
            StringType((2, 3), (2, 3)))] == ["pass"] * 4

        def never(*args):
            raise AssertionError("a route ran past the closed-form budget")

        monkeypatch.setattr(check, "normal_order", never)
        monkeypatch.setattr(check, "stirling_recurrence", never)
        monkeypatch.setattr(check, "closed_form_table", never)
        monkeypatch.setattr(combinat, "_walk", never)
        with pytest.raises(TooLarge, match="^49 differences exceed the "
                                           "closed-form budget of 36$"):
            run_selfcheck(StringType((3, 3), (3, 3)))


def _corrupted_walk(walk, rng):
    # the walk with about one yield in ten corrupted, chosen by rng
    def corrupted(t, held, changed):
        for ground, near, far in walk(t, held, changed):
            kind = rng.randrange(40)
            cells = [bit for bit in held[:len(held) - 2] if bit]
            if kind == 0 and cells:
                near |= rng.choice(cells)
            elif kind == 1 and cells:
                far |= rng.choice(cells)
            elif kind == 2 and near:
                near &= near - 1
            elif kind == 3:
                ground -= 1
            yield ground, near, far
    return corrupted


def _per_colony_empty_cells(t):
    # the empty-cell leg one colony at a time: each colony's cells counted
    # from every foot's cell, against excess plus free legs.  Returns the
    # leg's status and detail, and which colony failed first: "count" for
    # the pair's both-on-the-ground colony, "mask" for another, None
    held = [0] * t.total_s
    for ground, near, far in combinat._walk(t, held, [0]):
        cells = 0
        for bit in held[:len(held) - 2]:
            cells |= bit
        # foot last-1 steps through near shifted up one, bit 0 the ground
        xs = near << 1 | 1
        while xs:
            x = xs & -xs
            xs ^= x
            hx, legs = cells | x >> 1, ground + (x == 1)
            if (empty := t.total_r - hx.bit_count()) != t.excess + legs + 1:
                return ("fail", f"{empty} cells vs {t.excess} + {legs + 1}",
                        "count" if x == 1 else "mask")
            free = far & ~(x >> 1)
            while free:
                y = free & -free
                free ^= y
                if (empty := t.total_r - (hx | y).bit_count()) \
                        != t.excess + legs:
                    return ("fail", f"{empty} cells vs {t.excess} + {legs}",
                            "mask")
    return "pass", "", None


def _tally_off_by_one(tally):
    # one colony too many at the lowest free-leg count
    def mutant(t, walk):
        hist = tally(t, walk)
        low = min(hist)
        return {**hist, low: hist[low] + 1}
    return mutant


def _crossing_off_by_one(times_creations):
    # one unit too many on the lowest term of every crossing
    def mutant(lo, row, l):
        lo, row = times_creations(lo, row, l)
        return lo, [row[0] + 1, *row[1:]]
    return mutant


def _walk_repeats_first_yield(walk):
    # the first placement's colonies walked twice: every type has one, even
    # a one-foot type, whose one yield has no cells in far to mutate
    def mutant(t, held, changed):
        yields = walk(t, held, changed)
        first = next(yields)
        yield first
        yield first
        yield from yields
    return mutant


def _recurrence_off_by_one(recurrence):
    # one unit too many on the lowest entry of the table
    def mutant(t):
        values = recurrence(t).values
        low = min(values)
        return StirlingTable(t, {**values, low: values[low] + 1})
    return mutant


def _last_product_off_by_one(products):
    # one unit too many on the last entry of every window of p
    def mutant(t, lo, hi):
        p = products(t, lo, hi)
        return [*p[:-1], p[-1] + 1]
    return mutant


# Private kernels of the routes, each with the modules that read it, a
# seeded mutant (given the kernel, it returns the mutated kernel), the
# outputs the mutant may change and the selfcheck legs it must fail.
# Outputs are the four table routes and "settlements",
# enumerate_settlements at m = 0..sum(s).  On a type where a route refuses
# (rewriting, on a negative excess), its kernel's mutant changes nothing
# and fails no leg.  p feeds the closed form, whose window the settlement
# leg reads too, and through its own windows the Dobinski leg
KERNELS = {
    "_tally": ((combinat,), _tally_off_by_one, {"enumerate", "settlements"},
               {"stirling tables agree", "settlement counts agree"}),
    "_settlement_sum": ((combinat,),
                        lambda total: lambda hist, m: total(hist, m) + 1,
                        {"settlements"}, {"settlement counts agree"}),
    "_times_creations": ((algebra,), _crossing_off_by_one, {"rewrite"},
                         {"stirling tables agree"}),
    "_walk": ((combinat,), _walk_repeats_first_yield,
              {"enumerate", "settlements"},
              {"stirling tables agree", "settlement counts agree"}),
    "stirling_recurrence": ((check, stirling), _recurrence_off_by_one,
                            {"recurrence"},
                            {"stirling tables agree",
                             "dobinski series gives the bell number"}),
    "_settlement_products": ((stirling,), _last_product_off_by_one,
                             {"closed-form"},
                             {"stirling tables agree",
                              "settlement counts agree",
                              "dobinski series gives the bell number"}),
}

# small types of both prefix signs, one with a negative excess; the
# word of (5, 2), (2, 4) crosses a creator run of 2 one creator per pass
# and one of 5 over a one-term row by the crossing formula
KERNEL_TYPES = [StringType((2, 1, 3), (1, 2, 2)),
                StringType((1, 1, 3), (1, 3, 1)),
                StringType((1, 3), (2, 1)), StringType((2,), (1,)),
                StringType.uniform(1, 1, 4), StringType((1, 1), (1, 3)),
                StringType((5, 2), (2, 4))]


def _kernel_outputs(t):
    # a route that raises gives None for a refused negative excess, else
    # the exception's type and message
    outputs = {}
    for name, route in check.TABLE_ROUTES.items():
        try:
            outputs[name] = route(t, combinat.DEFAULT_ENUM_CAP)
        except NegativeExcess:
            outputs[name] = None
        except Exception as exc:
            outputs[name] = (type(exc), str(exc))
    outputs["settlements"] = [combinat.enumerate_settlements(t, m)
                              for m in range(t.total_s + 1)]
    return outputs


class TestKernelMutants:
    @pytest.fixture(autouse=True)
    def _no_cached_closed_form(self):
        # the closed form keeps one row: none built before a mutant may
        # answer for it, and none built by a mutant may outlive it
        stirling._closed_form_row.cache_clear()
        yield
        stirling._closed_form_row.cache_clear()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mutant_changes_its_outputs_and_fails_its_legs(self, kernel,
                                                           monkeypatch):
        modules, mutate, changes, fails = KERNELS[kernel]
        right = {t: _kernel_outputs(t) for t in KERNEL_TYPES}
        mutant = mutate(getattr(modules[0], kernel))
        for module in modules:
            monkeypatch.setattr(module, kernel, mutant)
        refusals = 0
        for t in KERNEL_TYPES:
            reached = {name for name in changes if right[t][name] is not None}
            refusals += reached != changes
            wrong = _kernel_outputs(t)
            assert {name for name, out in wrong.items()
                    if out != right[t][name]} == reached, t
            results = run_selfcheck(t)
            assert {r.name for r in results if r.status == "fail"} \
                == (fails if reached else set()), t
            assert len(results) == 4
        # the sweep meets rewriting's refusal, on the negative-excess type
        assert refusals == ("rewrite" in changes)

    def test_tally_mutant_shows_in_the_enumerated_table(self, monkeypatch,
                                                        capsys):
        monkeypatch.setattr(combinat, "_tally",
                            _tally_off_by_one(combinat._tally))
        assert main(["stirling", "--method", "enumerate", "--r", "2,1,3",
                     "--s", "1,2,2"]) == 0
        assert capsys.readouterr().out == (
            "d = 1\nS(2) = 13\nS(3) = 24\nS(4) = 10\nS(5) = 1\nbell = 48\n")
        assert main(["selfcheck", "--r", "2,1,3", "--s", "1,2,2"]) == 1
        assert [line.split(":")[0] for line in
                capsys.readouterr().out.splitlines()] == [
            "FAIL stirling tables agree",
            "PASS empty cells equal excess plus free legs",
            "FAIL settlement counts agree",
            "PASS dobinski series gives the bell number"]

    def test_leg_that_raises_prints_fail_not_a_traceback(self, monkeypatch,
                                                         capsys):
        # p(3) one too many leaves Delta^3 p(0) = 7, not divisible by 3!:
        # the closed form raises, in the table leg and again in the
        # settlement leg, which reads its p; the other legs still run
        monkeypatch.setattr(stirling, "_settlement_products",
                            _last_product_off_by_one(
                                stirling._settlement_products))
        raised = "AssertionError: difference 7 not divisible by 3!"
        argv = ["selfcheck", "--r", "1,2", "--s", "2,1"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == (
            f"FAIL stirling tables agree: {raised}\n"
            "PASS empty cells equal excess plus free legs\n"
            f"FAIL settlement counts agree: {raised}\n"
            "FAIL dobinski series gives the bell number: "
            "2.00000000000000103427732360603 vs 2\n")
        assert err == ""
        assert main([*argv, "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert [(c["status"], c["detail"])
                for c in json.loads(out)["checks"]] == [
            ("fail", raised), ("pass", ""), ("fail", raised),
            ("fail", "2.00000000000000103427732360603 vs 2")]
        assert err == ""


def _readme_examples():
    # (argv, stdout) for every "$ bosonorder ..." line of README.md whose
    # output follows in full (up to a blank line or the next "$"), and for
    # the JSON block printed verbatim; an example with no output, or whose
    # output elides lines with "...", is not a full transcript
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", text, re.S | re.M):
        for command, output in re.findall(
                r"^\$ bosonorder (.*)\n((?:(?!\$ )[^\n]+\n)*)", block, re.M):
            if output and "..." not in output:
                examples.append((shlex.split(command, comments=True), output))
    for command, output in re.findall(
            r"`bosonorder ([^`]*)`,?\s+verbatim:\s+```json\n(.*?)^```",
            text, re.S | re.M):
        examples.append((shlex.split(command), output))
    return examples


README_EXAMPLES = _readme_examples()


class TestReadme:
    def test_examples_found(self):
        assert README_EXAMPLES

    @pytest.mark.parametrize("argv, expected", README_EXAMPLES,
                             ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
    def test_example_output(self, argv, expected, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_python_blocks_run(self):
        # every ```python block of README.md runs cleanly against src/
        root = Path(__file__).resolve().parents[1]
        blocks = re.findall(r"^```python\n(.*?)^```",
                            (root / "README.md").read_text(), re.S | re.M)
        assert blocks
        for code in blocks:
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(root / "src")))
            assert (proc.returncode, proc.stderr) == (0, "")


# every exported exception class: BosonOrderError and its subclasses
REFUSALS = sorted(name for name in bosonorder.__all__
                  if isinstance(cls := getattr(bosonorder, name), type)
                  and issubclass(cls, BosonOrderError))


class TestMainInProcess:
    def test_order_expression(self, capsys):
        assert main(["order", "--word", "a^2 ad^2"]) == 0
        assert capsys.readouterr().out == "2 + 4 ad a + ad^2 a^2\n"

    def test_stirling_json_shape(self, capsys):
        assert main(["stirling", "--r", "1,1", "--s", "1,1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "type": {"r": [1, 1], "s": [1, 1]},
            "d": 0,
            "stirling": {"1": "1", "2": "1"},
            "bell": "2",
            "method": "recurrence",
        }

    def test_methods_agree(self, capsys):
        tables = {}
        for method in check.TABLE_ROUTES:
            assert main(["stirling", "--r", "2,2,2", "--s", "1,1,1",
                         "--method", method, "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            tables[method] = payload["stirling"]
            assert payload["method"] == method
        assert len(set(map(str, tables.values()))) == 1

    @pytest.mark.parametrize("sub", ["stirling", "bell"])
    def test_method_choices_are_the_route_table(self, sub):
        # the parser names the routes without loading check
        method = next(a for a in _subparsers(build_parser([sub]))[sub]._actions
                      if a.dest == "method")
        assert tuple(method.choices) == ("auto", *check.TABLE_ROUTES)

    def test_negative_excess_word_is_computational_error(self, capsys):
        assert main(["stirling", "--word", "a^2 ad", "--method",
                     "rewrite"]) == 1
        assert "error" in capsys.readouterr().err
        # auto takes the recurrence, keyed by surviving annihilators
        assert main(["stirling", "--word", "a^2 ad"]) == 0
        assert capsys.readouterr().out \
            == "d = -1\nS(1) = 2\nS(2) = 1\nbell = 3\n"

    @pytest.mark.parametrize("method", ["closed-form", "recurrence"])
    def test_closed_form_answers_negative_prefix(self, method, capsys):
        # prefix excesses (0, -1, 1): the full closed-form table takes them
        assert main(["stirling", "--r", "1,3", "--s", "2,1", "--method",
                     method]) == 0
        assert capsys.readouterr().out == "d = 1\nS(2) = 1\nS(3) = 1\nbell = 2\n"

    def test_ungrouped_word_gets_its_table(self, capsys):
        assert main(["order", "--word", "a ad a ad"]) == 0
        capsys.readouterr()
        assert main(["stirling", "--word", "a ad a ad"]) == 0
        assert "d = 0" in capsys.readouterr().out

    def test_ungrouped_word_json_type_is_padded(self, capsys):
        assert main(["stirling", "--word", "a ad", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == {"r": [1, 0], "s": [0, 1]}
        assert payload["method"] == "recurrence"

    def test_bell_of_huge_exponent(self, capsys):
        assert main(["bell", "--r", "3000000", "--s", "1"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_bell(self, capsys):
        assert main(["bell", "--r", "2,2,2", "--s", "1,1,1"]) == 0
        assert capsys.readouterr().out == "13\n"

    def test_dobinski_plain(self, capsys):
        assert main(["dobinski", "--r", "1,1", "--s", "1,1",
                     "--x", "1", "--digits", "10"]) == 0
        assert capsys.readouterr().out.startswith("2.0000")

    def test_dobinski_bad_x(self, capsys):
        assert main(["dobinski", "--r", "1", "--s", "1", "--x", "nope"]) == 2
        assert main(["dobinski", "--r", "1", "--s", "1", "--x", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read 'nope' as a rational number (byte 0)\n"
            "error: x must be nonnegative (byte 0)\n")

    @pytest.mark.parametrize("x", [
        "1" * 5000, "1" * MAX_DIGITS, "0." + "0" * 4400 + "1", "x" * MAX_DIGITS,
    ], ids=["5000-ones", "max-digits-ones", "long-decimal", "max-digits-letters"])
    def test_dobinski_long_unreadable_x_is_quoted_short(self, x, capsys):
        # a digit run past the int-to-str limit is unreadable: the error
        # quotes the head of --x and its length, not the whole input
        assert main(["dobinski", "--r", "1", "--s", "1", "--x", x]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: cannot read {x[:20] + '...'!r} ({len(x)} "
                       "characters) as a rational number (byte 0)\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("x", [
        "1e100000", "1e-100000", "1e10000000", "1e-1000000",
        "1" * (MAX_DIGITS + 1), "1.5e+00_99999", "1e" + "9" * 5000,
    ], ids=["1e100000", "1e-100000", "1e10000000", "1e-1000000",
            "long-integer", "1.5e+00_99999", "long-exponent"])
    def test_dobinski_x_past_max_digits_is_a_usage_error(self, x, capsys):
        # refused before Fraction() builds 10^exponent or sums the series
        assert main(["dobinski", "--r", "1", "--s", "1", "--x", x]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: x may have at most {MAX_DIGITS} digits, "
                       "counting its decimal exponent (byte 0)\n")

    def test_dobinski_x_at_max_digits_is_read(self, capsys):
        # 2 * 10^99999 terms are needed before the tail bound can hold: a
        # refusal that prints the count in scientific notation
        assert main(["dobinski", "--r", "1", "--s", "1",
                     "--x", "1e99999"]) == 1
        assert capsys.readouterr().err == (
            "error: the tail bound needs at least 2.00000e+99999 terms, "
            "over the cap of 10000\n")

    def test_dobinski_tiny_x_prints_in_json(self, capsys):
        assert main(["dobinski", "--r", "1", "--s", "1", "--x", "1e-5000",
                     "--digits", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x"] == "1/1" + "0" * 5000
        assert payload["value"] == "1.0000E-5000"

    def test_parse_error_exit_code(self, capsys):
        assert main(["stirling", "--word", "ad qq"]) == 2
        assert "(byte 3)" in capsys.readouterr().err

    def test_length_mismatch_exit_code(self, capsys):
        assert main(["stirling", "--r", "1,2", "--s", "1"]) == 2

    def test_too_large_exit_code(self, capsys):
        assert main(["colonies", "--r", "3,2,1,3", "--s", "2,2,2,3",
                     "--enum-cap", "1000"]) == 1

    @pytest.mark.parametrize("name", REFUSALS)
    def test_every_refusal_prints_one_error_line(self, name, monkeypatch,
                                                 capsys):
        cls = getattr(bosonorder, name)
        exc = cls("refused", 3) if cls is ParseError else cls("refused")

        def refuse(args, t):
            raise exc

        monkeypatch.setattr(cli, "_cmd_bell", refuse)
        code = 2 if cls in (ParseError, LengthMismatch) else 1
        assert main(["bell", "--r", "1", "--s", "1"]) == code
        line = "refused (byte 3)" if cls is ParseError else "refused"
        assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_settlements(self, capsys):
        assert main(["settlements", "--r", "1,1", "--s", "1,1",
                     "--m", "2"]) == 0
        assert capsys.readouterr().out == "4\n"
        assert main(["settlements", "--r", "1,1", "--s", "1,1",
                     "--m", "2", "--method", "product"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_settlements_answer_wherever_the_colonies_fit(self, capsys):
        # two colonies walked, 16 000 000 settlements counted
        assert main(["settlements", "--r", "1,1", "--s", "1,1",
                     "--m", "4000"]) == 0
        assert capsys.readouterr().out == "16000000\n"

    def test_forests(self, capsys):
        assert main(["forests", "--arity", "3", "--n", "4"]) == 0
        assert capsys.readouterr().out == "211\n"

    def test_forests_json_golden(self, capsys):
        assert main(["forests", "--arity", "3", "--n", "4",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out \
            == '{\n  "arity": 3,\n  "n": 4,\n  "count": "211"\n}\n'

    def test_selfcheck_json_golden(self, capsys):
        assert main(["selfcheck", "--r", "1,1,1", "--s", "1,1,1",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == SELFCHECK_111_JSON

    @pytest.mark.parametrize("name, reason", [
        ("", "Is a directory"),
        ("missing/out.txt", "No such file or directory"),
    ], ids=["directory", "missing-parent"])
    def test_unwritable_out_is_a_usage_error(self, name, reason, tmp_path,
                                             capsys):
        path = tmp_path / name
        assert main(["order", "--word", "ad", "--out", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot write {path}: {reason}\n"

    @pytest.mark.parametrize("argv, flag", [
        (["settlements", "--r", "1", "--s", "1", "--m", "-1"], "--m"),
        (["forests", "--arity", "0", "--n", "2"], "--arity"),
        (["forests", "--arity", "2", "--n", "-1"], "--n"),
        (["series", "--arity", "1"], "--arity"),
        (["series", "--arity", str(MAX_ARITY + 1), "--order", "1"],
         "--arity"),
        (["series", "--arity", "2", "--order", "-1"], "--order"),
    ], ids=["m", "forests-arity", "n", "series-arity", "series-arity-max",
            "order"])
    def test_out_of_range_flags_are_usage_errors(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}: must be" in err

    @pytest.mark.parametrize("argv, expected", [
        (["settlements", "--r", "1", "--s", "1", "--m", "0"], "0\n"),
        (["forests", "--arity", "1", "--n", "0"], "1\n"),
        (["series", "--arity", "2", "--order", "0"], "a_0 = 1 (count 1)\n"),
    ], ids=["m-0", "forests-arity-1-n-0", "series-arity-2-order-0"])
    def test_boundary_flag_values_are_accepted(self, argv, expected, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv, flag", [
        (["order", "--word", "ad a", "--digits", "5"], "--digits"),
        (["bell", "--r", "1", "--s", "1", "--max-terms", "3"], "--max-terms"),
        (["series", "--arity", "2", "--enum-cap", "3"], "--enum-cap"),
        (["dobinski", "--r", "1", "--s", "1", "--enum-cap", "3"],
         "--enum-cap"),
        (["selfcheck", "--r", "1", "--s", "1", "--x-samples", "8"],
         "--x-samples"),
        (["selfcheck", "--r", "1,1", "--s", "1,1", "--m-max", "4"],
         "--m-max"),
        (["bell", "--r", "1", "--s", "1", "--digits", str(MAX_DIGITS + 1)],
         "--digits"),
        (["series", "--arity", "2", "--digits", str(MAX_DIGITS + 1)],
         "--digits"),
    ], ids=["order-digits", "bell-max-terms", "series-enum-cap",
            "dobinski-enum-cap", "selfcheck-x-samples", "selfcheck-m-max",
            "bell-digits", "series-digits"])
    def test_flags_a_subcommand_does_not_take_are_usage_errors(
            self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err and flag in err

    def test_unrecognized_flag_names_the_subcommand_in_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["order", "--word", "ad a", "--digits", "5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: bosonorder order ")
        assert err.endswith(
            "bosonorder order: error: unrecognized arguments: --digits 5\n")

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        output = {"--format", "--out"}
        word = output | {"--word", "--r", "--s"}
        table = word | {"--method", "--enum-cap"}
        expected = {
            "order": word,
            "stirling": table,
            "bell": table,
            "dobinski": word | {"--x", "--digits", "--max-terms"},
            "colonies": word | {"--dot", "--enum-cap"},
            "settlements": word | {"--m", "--method", "--enum-cap"},
            "forests": output | {"--arity", "--n", "--enum-cap"},
            "series": output | {"--kind", "--arity", "--order"},
            "selfcheck": word | {"--enum-cap"},
        }
        got = {name: {flag for action in sub._actions
                      for flag in action.option_strings} - {"-h", "--help"}
               for name, sub in _subparsers(build_parser(SUBCOMMANDS)).items()}
        assert got == expected
        assert sum(map(len, got.values())) == 58

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_one_subcommands_parser_is_unchanged(self, sub):
        # built for argv naming only sub, the parser has every subcommand,
        # the same top-level help, and sub's flags as they are built for
        # all nine; the other subcommands get no flags
        every = build_parser(SUBCOMMANDS)
        one = build_parser([sub])
        assert one.format_help() == every.format_help() \
            == build_parser([]).format_help()
        subs, every_subs = _subparsers(one), _subparsers(every)
        assert list(subs) == list(every_subs) == list(SUBCOMMANDS)
        got, want = subs[sub], every_subs[sub]
        assert got.format_help() == want.format_help()
        assert list(map(_action_fields, got._actions)) \
            == list(map(_action_fields, want._actions))
        for p in (got, want):
            assert p.get_default("parser") is p
        assert got.get_default("handler") is want.get_default("handler")
        assert {k for k in got._defaults} == {k for k in want._defaults} \
            == {"parser", "handler"}
        assert all(a.option_strings == ["-h", "--help"]
                   for name, p in subs.items() if name != sub
                   for a in p._actions)

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        # the installed entry point calls main() with no argument list
        monkeypatch.setattr(sys, "argv", ["bosonorder", "bell", "--r", "2,2",
                                          "--s", "1,1", "--method", "rewrite"])
        assert main() == 0
        assert capsys.readouterr().out == "3\n"

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: bosonorder {sub}")

    def test_series_counts(self, capsys):
        assert main(["series", "--kind", "forest", "--arity", "2",
                     "--order", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == ["1", "1", "3", "13", "73", "501"]
        assert payload["convention"] == "egf"

    @pytest.mark.parametrize("kind", ["tree", "tree-closed", "forest"])
    def test_series_json_golden(self, kind, capsys):
        assert main(["series", "--kind", kind, "--arity", "3",
                     "--order", "6", "--format", "json"]) == 0
        expected = SERIES_FOREST_3_6 if kind == "forest" \
            else SERIES_TREE_3_6.replace('"tree"', f'"{kind}"')
        assert capsys.readouterr().out == expected

    def test_colonies_listing(self, capsys):
        assert main(["colonies", "--r", "1,1", "--s", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "colony 1 (free legs 2)" in out
        assert "total 2" in out

    def test_colonies_dot(self, capsys):
        assert main(["colonies", "--r", "1", "--s", "1", "--dot"]) == 0
        assert "digraph colony" in capsys.readouterr().out

    # SHA-256 of the stdout of `colonies` listings as first released: the
    # canonical order and every serializer must stay byte-identical
    @pytest.mark.parametrize("argv, digest", [
        (["--r", "2,1,2", "--s", "1,2,1"],
         "69bf591036cb8aa635ddcc7eb524ea39448e058132ef84752e162772e3430b22"),
        (["--r", "2,1,2", "--s", "1,2,1", "--format", "json"],
         "ac696e4118778e04ad29948c475f404122d843b1be6a5dd68fa5700616e3fd44"),
        (["--r", "2,1,2", "--s", "1,2,1", "--dot"],
         "79a83259b6ec846f068cad29bd511aef23b1e86977fded0087c0f78cac8267f9"),
        (["--r", "1,1,1,1,1,1", "--s", "1,1,1,1,1,1"],
         "9d70636eb0f6319d9521ac0a549bf33932f66b929021a7ce0205426122d25d74"),
        (["--r", "1,1,1,1,1,1", "--s", "1,1,1,1,1,1", "--format", "json"],
         "33ee17501dd7bd7289df4496d8fa382f53893c73cdb15f693f1aad879288e387"),
        (["--r", "1,1,1,1,1,1", "--s", "1,1,1,1,1,1", "--dot"],
         "6eeca738f8f57ac37283521ef2d8a52ca1ad1fbd55abf7272e81d8568283db01"),
    ], ids=["212-plain", "212-json", "212-dot", "six-plain", "six-json",
            "six-dot"])
    def test_colonies_golden_bytes(self, capsys, argv, digest):
        assert main(["colonies", *argv]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    # SHA-256 of the stdout of the table subcommands on one 30-factor type
    # as recorded before the leg-by-leg and column-sliced kernels: the
    # tables and their serializers must stay byte-identical
    @pytest.mark.parametrize("argv, digest", [
        (["stirling", "--method", "recurrence"],
         "4607b6fc4fb33e4637b9b6c98eb146524bd59a6ffd766db0a7783c1873c297d1"),
        (["stirling", "--method", "recurrence", "--format", "json"],
         "b9bf92c3d2a0abc8a58ed45a88814ed56e435e71a85ac010836b0893c8ca5a25"),
        (["stirling", "--method", "closed-form"],
         "4607b6fc4fb33e4637b9b6c98eb146524bd59a6ffd766db0a7783c1873c297d1"),
        (["stirling", "--method", "closed-form", "--format", "json"],
         "d5b22d2b73202cae7bd3b99b7303b7646892f6a63a1c85161eed945230ded337"),
        (["bell"],
         "336cdee75194c8367e2d7c3ae68a1b63e14eb4df7cc482cea8e787698b22f6d0"),
        (["bell", "--format", "json"],
         "7efd50dc83a3f29738f0d8066bad44fa977370124c0b6d9e743985cb313b10d2"),
    ], ids=["recurrence-plain", "recurrence-json", "closed-form-plain",
            "closed-form-json", "bell-plain", "bell-json"])
    def test_table_golden_bytes(self, capsys, argv, digest):
        assert main([*argv, "--r", THIRTY_R, "--s", THIRTY_S]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    # SHA-256 of the stdout of `order` as recorded while words were stored
    # one letter at a time: merging repeated tokens on construction must
    # print the same word and the same normal form
    @pytest.mark.parametrize("argv, digest", [
        (["--word", "ad ad^2 a a^3 ad a^2 ad^4"],
         "8b6ddb07b318c5569e86f7d0caab0f760527e1eadfcd016a94d3d6524ef2d89c"),
        (["--word", "ad ad^2 a a^3 ad a^2 ad^4", "--format", "json"],
         "ff5948435b345b56877eca0656d0940b6d4a615db4ae18239cc6eeb3b53bd318"),
        (["--r", "3,1,2", "--s", "1,2,2"],
         "37d47a14123552511c0908c42fbdbcd7f82e64329ada63282a51ffcfbfec5ef7"),
        (["--r", "3,1,2", "--s", "1,2,2", "--format", "json"],
         "62652f12ef911d9cf72643ed21ff55840db5c7e2ee4dc09a8d203876c4a8e422"),
    ], ids=["word-plain", "word-json", "type-plain", "type-json"])
    def test_order_golden_bytes(self, capsys, argv, digest):
        assert main(["order", *argv]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    def test_word_and_type_inputs_exclusive(self, capsys):
        # the usage line is the subcommand's, not the top-level one
        for argv in (["order", "--word", "ad", "--r", "1"],
                     ["stirling", "--word", "ad a", "--r", "1", "--s", "1"],
                     ["selfcheck"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"usage: bosonorder {argv[0]} ")
            assert err.endswith(
                f"bosonorder {argv[0]}: error: provide exactly one input: "
                "--word or --r together with --s\n")

    def test_r_without_s(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stirling", "--r", "1,1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bosonorder stirling ")
        assert err.endswith("bosonorder stirling: error: --r and --s must "
                            "be given together\n")


def _digits(n):
    # decimal digits of n, converted 1000 at a time below the interpreter's
    # int-to-str limit: an oracle that shares nothing with the CLI's printing
    chunk = 10 ** 1000
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(f"{low:01000d}")
    return str(n) + "".join(reversed(parts))


def _least_falling(bound: int, s: int = 9) -> int:
    # the least n with (n)_s >= bound
    lo, hi = s, 2 * s
    while math.perm(hi, s) < bound:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if math.perm(mid, s) >= bound else (mid + 1, hi)
    return lo


# n whose (n)_9 has 2 000 and 2 001 bits, either side of cli.STR_BITS;
# 641 digits, just past the lowest int-to-str limit; and 4 300 and 4 301
# digits, either side of the default one
THRESHOLD_N = {
    "2000-bits": _least_falling(1 << 2000) - 1,
    "2001-bits": _least_falling(1 << 2000),
    "641-digits": _least_falling(10 ** 640),
    "4300-digits": _least_falling(10 ** 4300) - 1,
    "4301-digits": _least_falling(10 ** 4300),
}

# requests whose answer holds (n)_9 from an input under 640 digits: the
# top coefficient of a^9 ad^n, S(1) of the type r = (n, 1), s = (1, 9), and
# the settlements of r = s = (9,) on n cells
THRESHOLD_REQUESTS = {
    "order": lambda n: ["order", "--word", f"a^9 ad^{n}"],
    "stirling-json": lambda n: ["stirling", "--r", f"{n},1", "--s", "1,9",
                                "--format", "json"],
    "settlements-product": lambda n: ["settlements", "--r", "9", "--s", "9",
                                      "--m", str(n), "--method", "product"],
}


class TestBigNumbers:
    """Answers longer than the 4300-digit int-to-str limit print in full;
    exponents past it are refused as parse errors with a byte offset."""

    def test_threshold_values_straddle_both_limits(self):
        sizes = [(v.bit_length(), len(_digits(v)))
                 for v in (math.perm(n, 9) for n in THRESHOLD_N.values())]
        assert [bits for bits, _ in sizes[:2]] == [2000, 2001]
        assert [digits for _, digits in sizes[2:]] == [641, 4300, 4301]
        assert all(len(str(n)) < 640 for n in THRESHOLD_N.values())

    @pytest.mark.parametrize("n", THRESHOLD_N.values(), ids=THRESHOLD_N)
    @pytest.mark.parametrize("request_", THRESHOLD_REQUESTS)
    def test_print_threshold_keeps_the_bytes(self, request_, n, monkeypatch,
                                             capsys):
        # every int printed the one way the decimal module does, in
        # process, against a child under each int-to-str limit: unset,
        # the 640-digit floor, and none
        argv = THRESHOLD_REQUESTS[request_](n)
        monkeypatch.setattr(cli, "_number_text",
                            lambda v: str(stirling._exact_decimal(v)))
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert str(stirling._exact_decimal(math.perm(n, 9))) in expected
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        for limit in (None, "640", "0"):
            if limit is not None:
                env["PYTHONINTMAXSTRDIGITS"] = limit
            proc = subprocess.run(
                [sys.executable, "-m", "bosonorder", *argv],
                capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stderr) == (0, ""), limit
            assert proc.stdout == expected, limit

    def test_plain_and_json(self, capsys):
        expected = _digits(math.factorial(2000))
        assert len(expected) > 4300
        argv = ["settlements", "--r", "1", "--s", "2000", "--m", "2000",
                "--method", "product"]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected + "\n"
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == expected

    def test_csv(self, capsys):
        # 40 legs landing on ~10^120 free creators each
        t = StringType((10 ** 120, 1), (1, 40))
        table = stirling_recurrence(t).values
        assert len(_digits(table[1])) > 4300
        assert main(["stirling", "--r", f"{10 ** 120},1", "--s", "1,40",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == "\n".join(
            ["k,S_k"] + [f"{k},{_digits(v)}" for k, v in sorted(table.items())]
        ) + "\n"

    def test_longest_exponent_is_read(self, capsys):
        digits = "9" * MAX_EXPONENT_DIGITS
        assert main(["order", "--word", f"ad^{digits}"]) == 0
        assert capsys.readouterr().out == f"ad^{digits}\n"

    def test_split_printing_matches_str(self):
        # sizes around every split of a conversion by halves: the threshold,
        # and the widths of the top few levels, a few bits either side
        rng = random.Random(16)
        widths = [(stirling.SPLIT_BITS << level) + rng.randint(-3, 3) + skew
                  for level in range(4) for skew in (-1, 0, 1)]
        values = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in widths]
        values += [(1 << bits) - 1 for bits in widths]
        values += [1 << bits for bits in widths]
        values += [10 ** 20_000, 10 ** 20_000 - 1, 0, 1]
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for v in values:
                assert cli._number_text(v) == str(v)
                assert cli._number_text(-v) == str(-v)
            big = -rng.getrandbits(3 * stirling.SPLIT_BITS)
            q = Fraction(big, 3 ** 20_000)
            assert cli._number_text(q) == str(q)
        finally:
            sys.set_int_max_str_digits(old_limit)

    @pytest.mark.parametrize("argv, offset", [
        (["order", "--word", "ad a^" + "9" * 4301], 3),
        (["order", "--word", "ad^" + "9" * 4300 + " ad"], 4304),
        (["bell", "--r", "1," + "9" * 4301, "--s", "1,1"], 2),
        (["bell", "--r", "2,2", "--s", "9" * 4300 + ",1"], 4301),
    ], ids=["long-token", "word-sum", "long-entry", "list-sum"])
    def test_overlong_exponents_are_parse_errors(self, capsys, argv, offset):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"less than 10^{MAX_EXPONENT_DIGITS} (byte {offset})" in err


# what each request loads of bosonorder's modules and of decimal,
# fractions and json; FRONT is what every request needs.  fractions
# imports decimal itself
FRONT = {"bosonorder", "bosonorder.cli", "bosonorder.algebra",
         "bosonorder.errors"}
ROUTES = {"bosonorder.check", "bosonorder.combinat", "bosonorder.stirling"}
RECURRENCE = {"bosonorder.stirling"}
WALK = {"bosonorder.combinat"}
NUMBERS = {"decimal", "fractions"}
ONE_ONE = ("--r", "1,1", "--s", "1,1")
STARTUP = {
    "import-package": (("-c", "import bosonorder"), 0, {"bosonorder"}),
    "import": (("-c", "import bosonorder.cli"), 0, FRONT),
    "order": (("order", "--word", "a^2 ad^2"), 0, FRONT),
    "order-json": (("order", "--word", "a^2 ad^2", "--format", "json"), 0,
                   FRONT | {"json"}),
    "parse-refusal": (("order", "--word", "b"), 2, FRONT),
    "usage-error": (("order", "--bogus"), 2, FRONT),
    "stirling": (("stirling", *ONE_ONE), 0, FRONT | RECURRENCE),
    "bell": (("bell", *ONE_ONE), 0, FRONT | RECURRENCE),
    "stirling-enumerate": (("stirling", *ONE_ONE, "--method", "enumerate"),
                           0, FRONT | ROUTES),
    "bell-refusal": (("bell", "--r", "1,0", "--s", "1,1"), 2, FRONT),
    "dobinski": (("dobinski", *ONE_ONE), 0, FRONT | RECURRENCE | NUMBERS),
    "colonies": (("colonies", *ONE_ONE), 0, FRONT | WALK),
    # past the upper bound the cap check counts with the recurrence
    "colonies-past-cap": (("colonies", "--r", "3,2,1,3", "--s", "2,2,2,3",
                           "--enum-cap", "1000"), 1,
                          FRONT | WALK | RECURRENCE),
    "settlements": (("settlements", *ONE_ONE, "--m", "3"), 0, FRONT | WALK),
    "settlements-product": (("settlements", *ONE_ONE, "--m", "3",
                             "--method", "product"), 0, FRONT | RECURRENCE),
    "forests": (("forests", "--arity", "2", "--n", "3"), 0, FRONT | WALK),
    "series": (("series", "--arity", "2"), 0,
               FRONT | {"bosonorder.series"} | NUMBERS),
    "selfcheck": (("selfcheck", *ONE_ONE), 0, FRONT | ROUTES | NUMBERS),
}


class TestSubprocess:
    @pytest.mark.parametrize("argv, code, expected", STARTUP.values(),
                             ids=STARTUP)
    def test_startup_skips_slow_modules(self, argv, code, expected):
        # bosonorder's modules, and decimal, fractions and json: each
        # request loads exactly the ones its subcommand runs
        if argv[0] != "-c":
            argv = ("-m", "bosonorder", *argv)
        imported = imported_modules(*argv, code=code)
        assert {m for m in imported if m.split(".")[0] == "bosonorder"
                or m in NUMBERS | {"json"}} == expected
        assert not imported & {"dataclasses", "inspect", "typing"}

    def test_checks_load_without_the_front_end(self):
        # the route table and selfcheck are library code
        imported = imported_modules("-c", "import bosonorder.check")
        assert "bosonorder.check" in imported
        assert not imported & {"argparse", "bosonorder.cli"}


class TestLazyExports:
    """bosonorder's public names load on first read (PEP 562)."""

    def test_each_name_comes_from_its_home_module(self):
        for name in bosonorder.__all__:
            home = importlib.import_module(
                f"bosonorder.{bosonorder._HOME[name]}")
            value = getattr(bosonorder, name)
            assert value is getattr(home, name)
            # bound on first read: later reads are plain attributes
            assert vars(bosonorder)[name] is value
            if isinstance(value, (type, FunctionType)):
                assert value.__module__ == home.__name__

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from bosonorder import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(bosonorder.__all__)
        assert len(bosonorder.__all__) == len(set(bosonorder.__all__)) == 50

    def test_unknown_name_is_attribute_error(self):
        assert set(bosonorder.__all__) <= set(dir(bosonorder))
        with pytest.raises(AttributeError, match="'no_such_name'"):
            bosonorder.no_such_name
        with pytest.raises(AttributeError, match="'no_such_name'"):
            cli.no_such_name

    def test_cli_passes_on_run_selfcheck(self):
        assert cli.run_selfcheck is check.run_selfcheck
        assert vars(cli)["run_selfcheck"] is check.run_selfcheck

    def test_import_binds_nothing_until_read(self):
        code = """if True:
            import sys
            import bosonorder
            names = set(bosonorder.__all__)
            assert not names & set(vars(bosonorder))
            assert names <= set(dir(bosonorder))
            assert not [m for m in sys.modules if m.startswith("bosonorder.")]
            word = bosonorder.BosonWord
            assert vars(bosonorder)["BosonWord"] is word
            assert "bosonorder.algebra" in sys.modules
            assert "bosonorder.stirling" not in sys.modules
        """
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))


def _listing_in_memory(t: StringType, form: str) -> str:
    """A colony listing built whole in memory, the way it was printed before
    listings streamed: the oracle for the streamed bytes."""
    colonies = list(combinat.enumerate_colonies(t))
    if form == "dot":
        text = "\n\n".join(map(combinat.colony_to_dot, colonies))
    elif form == "json":
        counts = {}
        for c in colonies:
            k = combinat.free_legs(c)
            counts[k] = counts.get(k, 0) + 1
        text = json.dumps({
            "type": {"r": list(t.r), "s": list(t.s)},
            "count": len(colonies),
            "by_free_legs": {str(k): str(v)
                             for k, v in sorted(counts.items())},
            "colonies": [combinat.colony_to_text(c).split("\n")
                         if t.total_s else [] for c in colonies],
        }, indent=2)
    else:
        blocks = [f"colony {i} (free legs {combinat.free_legs(c)})\n"
                  f"{combinat.colony_to_text(c)}".rstrip()
                  for i, c in enumerate(colonies, start=1)]
        blocks.append(f"total {len(colonies)}")
        text = "\n\n".join(blocks)
    return text + "\n"


FORM_FLAGS = {"plain": [], "json": ["--format", "json"], "dot": ["--dot"]}

EIGHT_BUGS = ["--r", "1,1,1,1,1,1,1,1", "--s", "1,1,1,1,1,1,1,1"]


class TestStreamedListings:
    @pytest.mark.parametrize("form", FORM_FLAGS)
    def test_same_bytes_as_the_in_memory_listing(self, form, capsys):
        # every type of at most 3 factors with exponents 1..2, then the
        # feetless word ad^2 and the zero-boundary words a ad and a a
        inputs = [(["--r", ",".join(map(str, r)), "--s", ",".join(map(str, s))],
                   StringType(r, s))
                  for n in (1, 2, 3)
                  for r in itertools.product((1, 2), repeat=n)
                  for s in itertools.product((1, 2), repeat=n)]
        inputs += [(["--word", w], type_from_word(parse_word(w)))
                   for w in ("ad^2", "a ad", "a a")]
        for argv, t in inputs:
            assert main(["colonies", *argv, *FORM_FLAGS[form]]) == 0
            assert capsys.readouterr().out == _listing_in_memory(t, form), argv

    @pytest.mark.parametrize("form", FORM_FLAGS)
    def test_out_gets_the_same_bytes(self, form, tmp_path, capsys):
        path = tmp_path / "listing.txt"
        assert main(["colonies", "--r", "2,1,2", "--s", "1,2,1",
                     *FORM_FLAGS[form], "--out", str(path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert path.read_text(encoding="utf-8") == _listing_in_memory(
            StringType((2, 1, 2), (1, 2, 1)), form)

    def test_dot_wins_over_json(self, capsys):
        assert main(["colonies", "--r", "1,1", "--s", "1,1", "--dot",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == _listing_in_memory(
            StringType((1, 1), (1, 1)), "dot")

    @pytest.mark.parametrize("form", FORM_FLAGS)
    def test_memory_stays_flat(self, form, tmp_path):
        # 4 140 colonies, 0.77-1.0 MB of text; built in memory, the listing
        # peaked at 2.75 (plain), 2.95 (dot) and 7.39 MB (json)
        path = tmp_path / "listing.txt"
        main(["colonies", "--r", "1", "--s", "1", "--out", str(path)])
        tracemalloc.start()
        try:
            assert main(["colonies", *EIGHT_BUGS, *FORM_FLAGS[form],
                         "--out", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 750_000
        assert peak < 1_500_000

    @pytest.mark.parametrize("name", ["listing.txt", "missing/listing.txt"],
                             ids=["writable", "missing-parent"])
    def test_refusal_comes_before_out_is_opened(self, name, tmp_path,
                                                capsys):
        path = tmp_path / name
        assert main(["colonies", "--r", "1,1", "--s", "1,1", "--enum-cap",
                     "1", "--out", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "exceed the cap of 1" in err
        assert not path.exists()

    def test_out_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(["colonies", "--r", "1,1", "--s", "1,1",
                     "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_empty_out_is_a_usage_error(self, capsys):
        # an empty path is refused, not taken for stdout
        assert main(["bell", "--r", "1", "--s", "1", "--out", ""]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == 'error: cannot write "": No such file or directory\n'

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that refuses every write")
    def test_write_failing_midstream_is_a_usage_error(self, capsys):
        assert main(["colonies", *EIGHT_BUGS, "--out", "/dev/full"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: cannot write /dev/full: "
                       "No space left on device\n")
