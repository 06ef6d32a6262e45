import itertools
import math
import re
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bosonorder import (DEFAULT_ENUM_CAP, Colony, IncreasingForest,
                        StringType, TooLarge, bell_number, colony_to_dot,
                        colony_to_forest, colony_to_text,
                        count_colonies_by_free_legs,
                        count_increasing_forests, enumerate_colonies,
                        enumerate_settlements, falling_factorial,
                        forest_to_colony, free_legs, settlement_product,
                        stirling_recurrence)
from bosonorder import combinat, stirling
from bosonorder.check import run_selfcheck
from bosonorder.errors import _count_text
from oracles import count_surjective_settlements, empty_cells

SHOWCASE = StringType((3, 2, 1, 3), (2, 2, 2, 3))


def naive_placements(t):
    """Every colony placement by brute force over each foot's options
    (ground, then every cell of an earlier bug), injective choices only,
    sorted lexicographically with ground before any cell."""
    options = []
    for j, s in enumerate(t.s, start=1):
        cells = [(i, c) for i in range(1, j) for c in range(1, t.r[i - 1] + 1)]
        options += [[None] + cells] * s
    flats = [flat for flat in itertools.product(*options)
             if len({ref for ref in flat if ref is not None})
             == sum(ref is not None for ref in flat)]
    flats.sort(key=lambda flat: [(0, 0) if ref is None else ref
                                 for ref in flat])
    placements = []
    for flat in flats:
        feet, start = [], 0
        for s in t.s:
            feet.append(tuple(flat[start:start + s]))
            start += s
        placements.append(tuple(feet))
    return placements


@st.composite
def boundary_types(draw, factors=5, top=3):
    """Types of 1..factors factors with exponents 1..top, except the two
    boundary ones, s_1 and r_n, drawn from 0..top."""
    n = draw(st.integers(1, factors))
    r = [draw(st.integers(1, top)) for _ in range(n)]
    s = [draw(st.integers(1, top)) for _ in range(n)]
    s[0] = draw(st.integers(0, top))
    r[-1] = draw(st.integers(0, top))
    return StringType(r, s)


def reference_walk(t, held, changed):
    """The walk as it stood before foot last-2 took its options in one inner
    loop: every placement runs the general back-up and descent.  Kept as the
    reference for the yield stream."""
    reach = [(1 << below) - 1 for below, s in
             zip(itertools.accumulate(t.r, initial=0), t.s) for _ in range(s)]
    stop = len(held) - 2
    changed[0] = 0
    if stop < 0:
        yield stop, 0, reach[-1] if reach else 0
        return
    near, far = reach[stop], reach[stop + 1]
    rest = [0] * stop
    occupied = ground = level = 0
    while True:
        while level < stop:
            rest[level] = reach[level] & ~occupied
            held[level] = 0
            ground += 1
            level += 1
        yield ground, near & ~occupied, far & ~occupied
        level = stop - 1
        while level >= 0:
            bit = held[level]
            if bit:
                occupied ^= bit
            else:
                ground -= 1
            free = rest[level]
            if free:
                bit = free & -free
                rest[level] = free ^ bit
                held[level] = bit
                occupied |= bit
                changed[0] = level
                level += 1
                break
            level -= 1
        else:
            return


def walk_stream(walk, t):
    """Everything a consumer may read at each yield of walk over t: the
    yield, the choices of feet 0..last-2 and the first foot that moved."""
    held, changed = [0] * t.total_s, [0]
    stop = max(t.total_s - 2, 0)
    return [(ground, near, far, tuple(held[:stop]), changed[0])
            for ground, near, far in walk(t, held, changed)]


def traced_peak(f):
    """f() and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        value = f()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestColonies:
    def test_single_bug_stands_on_ground(self):
        got = list(enumerate_colonies(StringType((2,), (3,))))
        assert len(got) == 1
        assert got[0].placement == ((None, None, None),)

    def test_two_bug_order(self):
        got = list(enumerate_colonies(StringType.uniform(1, 1, 2)))
        assert [c.placement for c in got] == [
            ((None,), (None,)),
            ((None,), ((1, 1),)),
        ]

    def test_count_matches_bell(self, every_small_type):
        for t in every_small_type[::4]:
            assert sum(1 for _ in enumerate_colonies(t)) == bell_number(t)

    def test_thirteen_colonies(self):
        assert sum(1 for _ in enumerate_colonies(StringType.uniform(2, 1, 3))) \
            == 13

    def test_deterministic(self):
        t = StringType((2, 2), (2, 1))
        assert list(enumerate_colonies(t)) == list(enumerate_colonies(t))

    def test_cap(self):
        with pytest.raises(TooLarge):
            enumerate_colonies(SHOWCASE, enum_cap=1000)

    def test_refusal_of_a_count_past_the_int_to_str_limit(self):
        # the Dobinski term at m = 1, p(1) = (10^120)_40 over 1!, bounds the
        # count from below: str() refuses the bound's 4 800 digits, and the
        # message gives its leading six in scientific notation, rounded down
        t = StringType((10**120, 1), (1, 40))
        lower = math.perm(10**120, 40) // 3
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            digits = str(lower)
            assert lower < bell_number(t)
        finally:
            sys.set_int_max_str_digits(old_limit)
        assert len(digits) > 4300
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(TooLarge) as exc:
                enumerate_colonies(t)
            message = str(exc.value)
        finally:
            sys.set_int_max_str_digits(old_limit)
        assert message == (f"more than {digits[0]}.{digits[1:6]}e+"
                           f"{len(digits) - 1} colonies exceed the cap of "
                           f"{DEFAULT_ENUM_CAP}")

    def test_free_leg_histogram(self, every_small_type):
        # the histogram counts the colonies of each placement of all feet
        # but the last two from the pair's cell masks, near within far: its
        # total is the number of colonies the walk covered
        for t in every_small_type:
            hist = count_colonies_by_free_legs(t)
            assert hist == stirling_recurrence(t).values, t
            assert sum(hist.values()) == bell_number(t)

    @given(boundary_types())
    @example(StringType((0,), (0,)))   # the empty word: no feet at all
    @example(StringType((2,), (0,)))   # no feet under two cells
    @example(StringType((1, 0), (0, 3)))   # s_1 = r_n = 0, last bug's feet
    @example(StringType((1, 1), (0, 1)))   # one foot
    @example(StringType((2, 1), (1, 1)))   # two feet in two bugs
    @example(StringType((2, 1), (0, 2)))   # two feet in one bug
    @example(StringType((2, 1), (0, 3)))   # three feet in one bug
    @example(StringType((1, 2, 1), (0, 1, 2)))  # three feet in two bugs
    @settings(deadline=None, max_examples=300)
    def test_walk_consumers_agree(self, t):
        # the histogram, the listing and selfcheck each read the one walk
        # their own way: on types with zero boundary exponents (s_1 = 0,
        # r_n = 0, even no feet at all) they agree with each other and with
        # the recurrence, and every listed colony is a valid one
        assume(bell_number(t) <= 3000)
        hist = count_colonies_by_free_legs(t)
        colonies = list(enumerate_colonies(t))
        tally = dict(Counter(map(free_legs, colonies)))
        assert hist == tally == stirling_recurrence(t).values
        assert len({c.placement for c in colonies}) == bell_number(t)
        assert all(Colony(t, c.placement) == c for c in colonies)
        assert [r.status for r in run_selfcheck(t)] == ["pass"] * 4

    def test_walk_stream_matches_the_reference(self, every_small_type):
        # foot last-2's inner loop leaves every yield as it was: the same
        # (ground, near, far), held[:stop] and changed[0], in the same order
        yields = 0
        for t in every_small_type:
            stream = walk_stream(combinat._walk, t)
            assert stream == walk_stream(reference_walk, t), t
            yields += len(stream)
        assert yields > 1000

    @given(boundary_types())
    @example(StringType((1, 3), (3, 1)))        # d_1 = -2
    @example(StringType((1, 1, 2), (0, 3, 1)))  # s_1 = 0, d_2 = -1
    @example(StringType((2, 1), (0, 3)))        # three feet in one bug
    @example(StringType((1, 2, 1), (0, 1, 2)))  # three feet in two bugs
    @settings(deadline=None, max_examples=300)
    def test_walk_stream_matches_the_reference_on_both_signs(self, t):
        assume(bell_number(t) <= 20000)
        assert walk_stream(combinat._walk, t) \
            == walk_stream(reference_walk, t)

    def test_near_lies_within_far(self, every_small_type):
        # the histogram counts |near| (|far| - 1) colonies with both of the
        # last two feet on cells: that needs every cell foot last-1 may
        # take to be one foot last may take too
        yields = 0
        for t in every_small_type:
            held = [0] * t.total_s
            for _, near, far in combinat._walk(t, held, [0]):
                assert near & ~far == 0, (t, held)
                yields += 1
        assert yields > 1000

    def test_order_matches_naive_oracle(self, every_small_type):
        checked = 0
        for t in every_small_type:
            if bell_number(t) > 2000:
                continue
            assert [c.placement for c in enumerate_colonies(t)] \
                == naive_placements(t), t
            checked += 1
        assert checked == 810

    def test_walk_colonies_equal_validated_ones(self):
        for colony in enumerate_colonies(SHOWCASE):
            assert Colony(colony.type, colony.placement) == colony

    def test_listing_memory_ignores_unreachable_cells(self):
        # two colonies: a million cells no foot can reach cost nothing
        t = StringType((1, 10**6), (1, 1))
        count, peak = traced_peak(
            lambda: sum(1 for _ in enumerate_colonies(t)))
        assert count == 2
        assert peak < 1_000_000


def upper_bound(t):
    """prod_j (1 + R_j)^(s_j): a foot of bug j stands on the ground or on
    one of the R_j cells of the bugs before it."""
    return math.prod((1 + below) ** s for below, s in
                     zip(itertools.accumulate(t.r, initial=0), t.s))


def recurrence_steps(t):
    """sum_j s_j (min(R_j, S_j - s_1) + 1), from the type's prefix sums."""
    return sum(s * (min(sum(t.r[:j]), sum(t.s[:j + 1]) - t.s[0]) + 1)
               for j, s in enumerate(t.s))


class TestCap:
    # The cap is decided by the upper bound, the largest Dobinski term's
    # lower bound, the exact count, or, past the budget, the count's cost,
    # in that order: each bound must hold, each decision on the count must
    # be bell_number(t) > cap, and a budget refusal comes only past it

    def check(self, t, monkeypatch, deciders):
        bell = bell_number(t)
        upper = upper_bound(t)
        assert bell <= upper
        assert combinat._under_upper_bound(t, upper)
        assert upper == 1 or not combinat._under_upper_bound(t, upper - 1)
        peak = stirling._dobinski_peak(t)
        ms = list(range(t.total_s + 3)) + ([peak[0]] if peak else [])
        for m in ms:
            assert (settlement_product(t, m) // (3 * math.factorial(m))
                    < bell), (t, m)
        steps = recurrence_steps(t)
        counted = []
        recurrence = stirling.stirling_recurrence
        monkeypatch.setattr(stirling, "stirling_recurrence",
                            lambda t: counted.append(t) or recurrence(t))
        # far below the count, the lower bound decides some types too; a
        # budget one step short of the count leaves it undecided
        for cap in {1, bell // 64, bell // 2, bell - 1, bell, bell + 1,
                    2 * bell} - {0}:
            for budget in stirling.CLOSED_FORM_BUDGET, steps - 1:
                monkeypatch.setattr(stirling, "CLOSED_FORM_BUDGET", budget)
                counted.clear()
                try:
                    combinat._require_under_cap(t, cap)
                    refused = ""
                except TooLarge as exc:
                    refused = str(exc)
                if refused.startswith("cap undecided"):
                    assert not counted and steps > budget, (t, cap)
                    assert refused == (f"cap undecided: {steps} steps to "
                                       f"count the colonies exceed the "
                                       f"budget of {budget}")
                    deciders.add("budget")
                    continue
                assert bool(refused) == (bell > cap), (t, cap)
                deciders.add("count" if counted else
                             "lower" if refused else "upper")
                if refused.startswith("more than"):
                    assert not counted
                    lower = int(refused.split()[2])
                    assert cap <= lower < bell, (t, cap)
                elif refused:
                    assert refused == (f"{bell} colonies exceed the cap of "
                                       f"{cap}")
        monkeypatch.undo()

    def test_decisions_on_every_small_type(self, every_small_type,
                                           monkeypatch):
        deciders = set()
        for t in every_small_type:
            self.check(t, monkeypatch, deciders)
        assert deciders == {"upper", "lower", "count", "budget"}

    # prefix excesses of either sign, up to about 10^12 colonies
    @given(boundary_types(factors=8, top=6))
    @example(StringType((1, 3), (3, 1)))      # d_1 = -2
    @example(StringType((6, 1, 6), (6, 6, 1)))  # d = 0, -5, 0
    @example(StringType.uniform(1, 1, 8))
    @settings(deadline=None, max_examples=200)
    def test_decisions_on_types_of_both_signs(self, t):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(t, monkeypatch, set())

    def test_many_feet_on_one_bug_are_refused_by_the_budget(self,
                                                            monkeypatch):
        # 10^11 feet pass the cap by sum(s) alone, so the upper bound
        # declines, and the one colony is far under the lower bound: the
        # count's 10^11 recurrence steps are refused before the first, with
        # nothing huge allocated on the way
        def never(t):
            raise AssertionError("the recurrence ran past its budget")

        monkeypatch.setattr(stirling, "stirling_recurrence", never)

        def decide():
            with pytest.raises(TooLarge) as exc:
                combinat._require_under_cap(StringType((1,), (10**11,)),
                                            DEFAULT_ENUM_CAP)
            return str(exc.value)

        refused, peak = traced_peak(decide)
        assert refused == ("cap undecided: 100000000000 steps to count the "
                           "colonies exceed the budget of 10000000")
        assert peak < 100_000

    def test_steps_bound_the_recurrence(self, every_small_type, monkeypatch):
        # each leg multiplies the entries its row holds and one padded zero:
        # less one per leg, the products count the entries held, which the
        # estimate bounds
        calls = []

        def mul(a, b):
            calls.append(1)
            return a * b

        monkeypatch.setattr(stirling, "mul", mul)
        for t in every_small_type:
            calls.clear()
            stirling_recurrence(t)
            assert len(calls) - t.total_s <= recurrence_steps(t), t

    def test_no_power_is_raised_as_far_as_an_exponent(self):
        # bug 1's feet stand on the ground, a factor 1 however many there
        # are; a power past the cap's bit length is refused before it is
        # raised
        huge = 10**5000

        def decide():
            return [combinat._under_upper_bound(StringType((5, 1), (huge, 3)),
                                                216),
                    combinat._under_upper_bound(StringType((5, 1), (huge, 3)),
                                                215),
                    combinat._under_upper_bound(StringType((1, 1), (1, huge)),
                                                DEFAULT_ENUM_CAP),
                    combinat._under_upper_bound(
                        StringType((huge, 1), (1, huge)), DEFAULT_ENUM_CAP)]

        decided, peak = traced_peak(decide)
        assert decided == [True, False, False, False]
        assert peak < 100_000

    def test_peak_is_found_past_two_to_the_fourteen(self):
        # one bug: p(m) = (m)_s, so the largest term, 1, sits at m = s, and
        # its bound sits just below ln 1 = 0
        m, low = stirling._dobinski_peak(StringType((1,), (2**14 + 1,)))
        assert m == 2**14 + 1
        assert -0.01 < low < 0

    def test_terms_rising_past_two_to_the_fourteen_are_counted(
            self, monkeypatch):
        # the terms still rise at m0 = 20 000 > 2^14; the peak is found,
        # far under the cap, and the count, 20 001 colonies, accepts
        t = StringType((1, 1), (1, 20000))
        assert stirling._dobinski_peak(t)[0] > 20000
        counts = []
        bell = stirling.bell_number
        monkeypatch.setattr(stirling, "bell_number",
                            lambda u: counts.append(bell(u)) or counts[-1])
        combinat._require_under_cap(t, DEFAULT_ENUM_CAP)
        assert counts == [20001]

    def test_a_peak_past_the_bit_limit_is_refused_in_floats(self,
                                                            monkeypatch):
        # the peak, at m = 1, has p(1) = (10^6)_100000 of about 2 * 10^6
        # bits, past PEAK_BITS: the float bound refuses without building it
        def never(*args):
            raise AssertionError("an exact value was built")

        monkeypatch.setattr(stirling, "settlement_product", never)
        monkeypatch.setattr(stirling, "stirling_recurrence", never)

        def decide():
            with pytest.raises(TooLarge) as exc:
                combinat._require_under_cap(
                    StringType((10**6, 1), (1, 10**5)), DEFAULT_ENUM_CAP)
            return str(exc.value)

        refused, peak = traced_peak(decide)
        assert refused == ("more than 10^597751 colonies exceed the cap of "
                           "10000000")
        assert peak < 100_000

    def test_a_value_past_floats_is_counted(self):
        # d_1 = 10^400 - 1 fits no float: the lower bound gives up and the
        # recurrence counts the colonies for the refusal
        t = StringType((10**400, 1), (1, 2))
        assert stirling._dobinski_peak(t) is None
        with pytest.raises(TooLarge) as exc:
            enumerate_colonies(t)
        assert str(exc.value) == (f"{bell_number(t)} colonies exceed the "
                                  f"cap of {DEFAULT_ENUM_CAP}")


@st.composite
def wide_types(draw):
    """boundary_types whose creation exponents may instead be 2^32 to 2^40:
    prefix excesses of either sign, and of 2^32 or more."""
    t = draw(boundary_types(factors=6, top=6))
    return StringType([draw(st.sampled_from([r, draw(st.integers(2**32,
                                                                 2**40))]))
                       for r in t.r], t.s)


class TestPeakBound:
    # the second value of _dobinski_peak is a proven lower bound on
    # ln(p(m)/m!) at the peak's m, within a few thousandths of it

    @given(wide_types())
    @example(StringType((2**32, 1), (1, 3)))
    @example(StringType((1, 3), (3, 1)))
    @settings(deadline=None, max_examples=300)
    def test_never_exceeds_the_exact_term(self, t):
        m, low = stirling._dobinski_peak(t)
        p, factorial = settlement_product(t, m), math.factorial(m)
        exact = math.log(p) - math.log(factorial)
        assert exact - 0.01 * (t.n + 1) < low <= exact, t
        if low >= math.log(3):
            k = int((low - math.log(3)) / math.log(10))
            assert 10 ** k <= p // (3 * factorial), t

    @pytest.mark.parametrize("r, s, cap", [
        ((2000, 2000), (2000, 2000), DEFAULT_ENUM_CAP),
        ((3000, 3000), (3000, 3000), DEFAULT_ENUM_CAP),
        ((1000, 1000), (1000, 1000), DEFAULT_ENUM_CAP),
        ((2000, 1), (1, 2000), DEFAULT_ENUM_CAP),
        ((10**120, 1), (1, 40), DEFAULT_ENUM_CAP),
        ((3, 2, 1, 3), (2, 2, 2, 3), 1000)])
    def test_float_path_names_at_most_the_exact_bound(self, r, s, cap,
                                                      monkeypatch):
        # the pinned over-cap types: their exact refusal names L, and with
        # PEAK_BITS too small for it the float path names 10^k <= L
        t = StringType(r, s)
        m = stirling._dobinski_peak(t)[0]
        exact = settlement_product(t, m) // (3 * math.factorial(m))
        with pytest.raises(TooLarge) as exc:
            combinat._require_under_cap(t, cap)
        assert str(exc.value) == (f"more than {_count_text(exact)} colonies "
                                  f"exceed the cap of {cap}")
        monkeypatch.setattr(stirling, "PEAK_BITS", 1)
        with pytest.raises(TooLarge) as exc:
            combinat._require_under_cap(t, cap)
        k = int(re.fullmatch(rf"more than 10\^(\d+) colonies exceed the "
                             rf"cap of {cap}", str(exc.value))[1])
        assert 10 ** k <= exact < 10 ** (k + 2)


class TestManyFeet:
    # one level per foot: the walk must not recurse once per foot
    def test_one_bug_five_thousand_feet(self):
        assert count_colonies_by_free_legs(StringType((1,), (5000,))) \
            == {5000: 1}

    def test_one_cell_under_three_thousand_feet(self):
        t = StringType((1, 1), (1, 3000))
        hist = count_colonies_by_free_legs(t)
        assert sum(hist.values()) == 3001
        assert hist == stirling_recurrence(t).values


class TestColonyValidation:
    def test_forward_grab_rejected(self):
        t = StringType.uniform(1, 1, 2)
        with pytest.raises(ValueError):
            Colony(t, (((2, 1),), (None,)))

    def test_missing_cell_rejected(self):
        t = StringType.uniform(1, 1, 2)
        with pytest.raises(ValueError):
            Colony(t, ((None,), ((1, 2),)))

    def test_cell_reuse_rejected(self):
        t = StringType((2, 1, 1), (1, 1, 1))
        with pytest.raises(ValueError):
            Colony(t, ((None,), ((1, 1),), ((1, 1),)))

    def test_foot_count_enforced(self):
        with pytest.raises(ValueError):
            Colony(StringType((1,), (2,)), ((None,),))

    def test_placement_count_enforced(self):
        with pytest.raises(ValueError) as exc:
            Colony(StringType.uniform(1, 1, 2), ((None,),))
        assert str(exc.value) == "one placement tuple per bug required"

    def test_hand_built_example(self):
        # four bugs with shapes (3,2),(2,2),(1,2),(3,3); feet 1,2,4,6,9 on
        # the ground, the rest grabbing earlier cells
        colony = Colony(SHOWCASE, (
            (None, None),
            ((1, 1), None),
            ((1, 2), None),
            ((2, 1), (3, 1), None),
        ))
        assert free_legs(colony) == 5
        assert empty_cells(colony) == 5

    def test_excess_plus_free_legs(self, every_small_type):
        for t in every_small_type[::13]:
            for colony in enumerate_colonies(t):
                assert empty_cells(colony) == t.excess + free_legs(colony)


class TestSettlements:
    def test_counts_match_product(self, every_small_type):
        for t in every_small_type[::6]:
            for m in range(4):
                assert enumerate_settlements(t, m) == settlement_product(t, m)

    def test_stirling_expansion(self):
        # settlements sort by how many ground cells they cover
        t = StringType((2, 2), (2, 1))
        table = stirling_recurrence(t).values
        for m in range(5):
            expected = sum(v * falling_factorial(m, k)
                           for k, v in table.items())
            assert enumerate_settlements(t, m) == expected

    def test_cap(self):
        with pytest.raises(TooLarge):
            enumerate_settlements(SHOWCASE, 7, enum_cap=10_000)

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            enumerate_settlements(StringType((1,), (1,)), -1)

    @pytest.mark.parametrize("count", [enumerate_settlements,
                                       count_surjective_settlements])
    def test_negative_m_is_refused_before_the_cap(self, count):
        with pytest.raises(ValueError):
            count(SHOWCASE, -1, enum_cap=1)


class TestSurjectiveSettlements:
    def test_two_bugs(self):
        assert count_surjective_settlements(StringType.uniform(1, 1, 2), 2) == 2

    def test_three_bugs(self):
        assert count_surjective_settlements(StringType.uniform(1, 1, 3), 2) == 6

    def test_zero_beyond_reach(self):
        t = StringType.uniform(1, 1, 2)
        assert count_surjective_settlements(t, 3) == 0

    def test_answers_wherever_the_colonies_fit(self):
        # 4 213 597 colonies fit the default cap; the count, S2(12, 11) 11!
        # surjections, is far over it
        t = StringType.uniform(1, 1, 12)
        assert count_surjective_settlements(t, 11) \
            == math.comb(12, 2) * math.factorial(11)

    def test_factorial_formula(self, every_small_type):
        for t in every_small_type[::17]:
            table = stirling_recurrence(t).values
            for m in range(t.total_s + 2):
                assert count_surjective_settlements(t, m) \
                    == table.get(m, 0) * math.factorial(m)


class TestForests:
    def test_binary_counts(self):
        got = [count_increasing_forests(2, n) for n in range(5)]
        assert got == [1, 1, 3, 13, 73]

    def test_empty_forest(self):
        assert count_increasing_forests(5, 0) == 1

    def test_unary_chains(self):
        # forests of paths on n labelled vertices with increasing labels
        assert count_increasing_forests(1, 3) == 5

    def test_matches_colony_count(self):
        # every small arity and size, then wide arities near the cap
        cases = [(r, n) for r in range(1, 6) for n in range(1, 8)]
        cases += [(100, 4), (2000, 3), (100_000, 2), (10**6, 1)]
        for r, n in cases:
            assert count_increasing_forests(r, n) \
                == bell_number(StringType.uniform(r, 1, n))

    def test_cap(self):
        with pytest.raises(TooLarge):
            count_increasing_forests(3, 8, enum_cap=1000)

    @pytest.mark.parametrize("r, n, count, bound", [
        (100_000, 2, 100_001, 15_000_000),
        (10**6, 1, 1, 1_000_000),
        (2000, 3, 8_004_001, 1_000_000),
    ])
    def test_last_vertex_is_counted_not_walked(self, r, n, count, bound):
        # the last vertex's choices are counted at once, and a partial
        # forest is two ints: no slot tuples, whatever the arity
        got, peak = traced_peak(lambda: count_increasing_forests(r, n))
        assert got == count
        assert peak < bound

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            count_increasing_forests(0, 2)
        with pytest.raises(ValueError):
            count_increasing_forests(2, -1)


class TestForestBijection:
    def test_round_trip(self):
        for r in range(1, 4):
            for n in range(1, 5):
                t = StringType.uniform(r, 1, n)
                for colony in enumerate_colonies(t):
                    forest = colony_to_forest(colony)
                    assert forest_to_colony(forest) == colony

    def test_roots_are_free_legs(self):
        t = StringType.uniform(2, 1, 3)
        for colony in enumerate_colonies(t):
            forest = colony_to_forest(colony)
            assert len(forest.roots) == free_legs(colony)

    def test_rejects_multi_leg(self):
        colony = Colony(StringType((1,), (2,)), ((None, None),))
        with pytest.raises(ValueError, match=r"^every bug needs exactly one "
                                             r"leg, got s=\(2,\)$"):
            colony_to_forest(colony)

    def test_forest_validation(self):
        with pytest.raises(ValueError):
            IncreasingForest((2, 2), (None, (2, 1)))
        with pytest.raises(ValueError):
            IncreasingForest((2, 2), ((1, 1),))
        with pytest.raises(ValueError):
            IncreasingForest((1, 1, 1), (None, (1, 1), (1, 1)))

    @pytest.mark.parametrize("arities, parent, message", [
        ((2, 0), (None, (1, 1)), "arities must be positive"),
        ((2, 2), (None, (1, 3)), "vertex 1 has no slot 3"),
    ], ids=["zero-arity", "missing-slot"])
    def test_forest_validation_messages(self, arities, parent, message):
        with pytest.raises(ValueError) as exc:
            IncreasingForest(arities, parent)
        assert str(exc.value) == message


class TestSerialization:
    def test_colony_text(self):
        colony = Colony(StringType.uniform(1, 1, 2), ((None,), ((1, 1),)))
        assert colony_to_text(colony) == \
            "foot 1 -> ground\nfoot 2 -> bug 1 cell 1"

    def test_dot(self):
        colony = Colony(StringType.uniform(1, 1, 2), ((None,), ((1, 1),)))
        dot = colony_to_dot(colony)
        assert dot.startswith("digraph colony {")
        assert '"foot 2" -> "bug 1 cell 1";' in dot
        assert dot.endswith("}")
