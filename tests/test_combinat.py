import math

import pytest

from bosonorder import (Colony, IncreasingForest, NotUnary, Settlement,
                        StringType, TooLarge, bell_number,
                        colony_to_dot, colony_to_forest, colony_to_text,
                        count_colonies_by_free_legs,
                        count_increasing_forests,
                        count_surjective_settlements, empty_cells,
                        enumerate_colonies, enumerate_settlements,
                        falling_factorial, forest_to_colony, free_legs,
                        iter_settlements, settlement_product,
                        settlement_to_text, stirling_recurrence)

SHOWCASE = StringType((3, 2, 1, 3), (2, 2, 2, 3))


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

    def test_count_matches_bell(self, sweep_types):
        for t in sweep_types[::4]:
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

    def test_free_leg_histogram(self, sweep_types):
        for t in sweep_types[::4]:
            assert count_colonies_by_free_legs(t) \
                == stirling_recurrence(t).values


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

    def test_excess_plus_free_legs(self, sweep_types):
        for t in sweep_types[::13]:
            for colony in enumerate_colonies(t):
                assert empty_cells(colony) == t.excess + free_legs(colony)


class TestSettlements:
    def test_structures_for_two_bugs(self):
        got = list(iter_settlements(StringType.uniform(1, 1, 2), 2))
        assert len(got) == 4
        texts = {settlement_to_text(s) for s in got}
        assert "foot 1 -> ground cell 1\nfoot 2 -> ground cell 2" in texts
        assert "foot 1 -> ground cell 1\nfoot 2 -> bug 1 cell 1" in texts

    def test_counts_match_product(self, sweep_types):
        for t in sweep_types[::6]:
            if not t.has_nonnegative_prefixes():
                continue
            for m in range(4):
                assert enumerate_settlements(t, m) == settlement_product(t, m)

    def test_iter_agrees_with_count(self):
        t = StringType.uniform(2, 1, 2)
        for m in range(4):
            assert sum(1 for _ in iter_settlements(t, m)) \
                == enumerate_settlements(t, m)

    def test_stirling_expansion(self):
        # settlements sort by how many ground cells they cover
        t = StringType((2, 2), (2, 1))
        table = stirling_recurrence(t).values
        for m in range(5):
            expected = sum(v * falling_factorial(m, k)
                           for k, v in table.items())
            assert enumerate_settlements(t, m) == expected

    def test_validation(self):
        colony = Colony(StringType((1,), (2,)), ((None, None),))
        with pytest.raises(ValueError):
            Settlement(colony, 2, (1, 1))
        with pytest.raises(ValueError):
            Settlement(colony, 1, (1, 2))
        with pytest.raises(ValueError):
            Settlement(colony, 2, (1,))

    def test_surjective_flag(self):
        colony = Colony(StringType((1,), (2,)), ((None, None),))
        assert Settlement(colony, 2, (2, 1)).surjective
        assert not Settlement(colony, 3, (2, 1)).surjective

    def test_cap(self):
        with pytest.raises(TooLarge):
            enumerate_settlements(SHOWCASE, 7, enum_cap=10_000)
        with pytest.raises(TooLarge):
            iter_settlements(SHOWCASE, 7, enum_cap=10_000)

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            enumerate_settlements(StringType((1,), (1,)), -1)


class TestSurjectiveSettlements:
    def test_two_bugs(self):
        assert count_surjective_settlements(StringType.uniform(1, 1, 2), 2) == 2

    def test_three_bugs(self):
        assert count_surjective_settlements(StringType.uniform(1, 1, 3), 2) == 6

    def test_zero_beyond_reach(self):
        t = StringType.uniform(1, 1, 2)
        assert count_surjective_settlements(t, 3) == 0

    def test_factorial_formula(self, sweep_types):
        for t in sweep_types[::17]:
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
        for r in range(1, 4):
            for n in range(5):
                if n == 0:
                    continue
                assert count_increasing_forests(r, n) \
                    == bell_number(StringType.uniform(r, 1, n))

    def test_cap(self):
        with pytest.raises(TooLarge):
            count_increasing_forests(3, 8, enum_cap=1000)

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
        with pytest.raises(NotUnary):
            colony_to_forest(colony)

    def test_forest_validation(self):
        with pytest.raises(ValueError):
            IncreasingForest((2, 2), (None, (2, 1)))
        with pytest.raises(ValueError):
            IncreasingForest((2, 2), ((1, 1),))
        with pytest.raises(ValueError):
            IncreasingForest((1, 1, 1), (None, (1, 1), (1, 1)))


class TestSerialization:
    def test_colony_text(self):
        colony = Colony(StringType.uniform(1, 1, 2), ((None,), ((1, 1),)))
        assert colony_to_text(colony) == \
            "foot 1 -> ground\nfoot 2 -> bug 1 cell 1"

    def test_settlement_text(self):
        colony = Colony(StringType((1,), (2,)), ((None, None),))
        settlement = Settlement(colony, 3, (3, 1))
        assert settlement_to_text(settlement) == \
            "foot 1 -> ground cell 3\nfoot 2 -> ground cell 1"

    def test_dot(self):
        colony = Colony(StringType.uniform(1, 1, 2), ((None,), ((1, 1),)))
        dot = colony_to_dot(colony)
        assert dot.startswith("digraph colony {")
        assert '"foot 2" -> "bug 1 cell 1";' in dot
        assert dot.endswith("}")
