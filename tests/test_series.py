import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from bosonorder import (EGF, PowerSeries, PrecisionUnreachable, StringType,
                        bell_number, bell_r1_numeric, forest_egf, series_exp,
                        stirling_recurrence, tree_series,
                        tree_series_closed_form)
from oracles import bell_r1_terms


def product_counts(f, g):
    # counts of the product of two EGFs: sum_i C(n,i) f_i g_(n-i)
    return [sum(math.comb(n, i) * f[i] * g[n - i] for i in range(n + 1))
            for n in range(min(len(f), len(g)))]


class TestPowerSeries:
    def test_construction_coerces_to_fractions(self):
        f = PowerSeries((1, 2, 6))
        assert f.coeffs == (Fraction(1), Fraction(2), Fraction(3))
        assert all(isinstance(c, Fraction) for c in f.coeffs)
        assert f.order == 2 and f.convention == EGF

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PowerSeries(())

    def test_rejects_fractional_counts(self):
        with pytest.raises(TypeError):
            PowerSeries((1, Fraction(1, 2)))

    def test_counts_are_stored_counts(self):
        f = PowerSeries((1, 3, 13))
        assert f.counts == (1, 3, 13)
        assert f.coeffs == (1, 3, Fraction(13, 2))


class TestExp:
    def test_exp_zero(self):
        assert series_exp(PowerSeries((0, 0, 0))).counts == (1, 0, 0)

    def test_exp_x(self):
        # exp(x) counts one set at every size
        out = series_exp(PowerSeries((0, 1, 0, 0, 0)))
        assert out.counts == (1, 1, 1, 1, 1)
        assert out.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6),
                              Fraction(1, 24))

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError,
                           match=r"^constant term 1 is not zero$"):
            series_exp(PowerSeries((1, 1)))

    def test_fragmented_permutations(self):
        # exp(x/(1-x)) counts partitions into ordered blocks; x/(1-x) has
        # n! linear orders at each size n >= 1
        inner = PowerSeries((0,) + tuple(math.factorial(n)
                                         for n in range(1, 9)))
        assert series_exp(inner).counts \
            == (1, 1, 3, 13, 73, 501, 4051, 37633, 394353)


class TestTreeSeries:
    def test_binary_is_geometric(self):
        assert tree_series(2, 6).coeffs == (1,) * 7

    def test_ternary(self):
        got = tree_series(3, 6).coeffs
        assert got == (1, 1, Fraction(3, 2), Fraction(5, 2), Fraction(35, 8),
                       Fraction(63, 8), Fraction(231, 16))

    def test_quaternary_counts(self):
        f = tree_series(4, 6)
        assert list(f.counts) \
            == [1, 1, 4, 28, 280, 3640, 58240]

    def test_satisfies_defining_equation(self):
        # y' = y^r: the counts of y' are the counts of y shifted by one
        for r in (2, 3, 4):
            y = list(tree_series(r, 12).counts)
            power = y
            for _ in range(r - 1):
                power = product_counts(power, y)
            assert y[1:] == power[:-1]

    def test_closed_form_agrees(self):
        for r in (2, 3, 4, 5, 7):
            assert tree_series_closed_form(r, 160) == tree_series(r, 160), r

    def test_rejects_unary(self):
        with pytest.raises(ValueError):
            tree_series(1, 5)
        with pytest.raises(ValueError):
            tree_series_closed_form(1, 5)

    @pytest.mark.parametrize("build", [tree_series, tree_series_closed_form])
    def test_rejects_negative_order(self, build):
        with pytest.raises(ValueError) as exc:
            build(2, -1)
        assert str(exc.value) == "order must be nonnegative"


class TestForestEgf:
    def test_binary_counts(self):
        f = forest_egf(2, 6)
        assert list(f.counts) \
            == [1, 1, 3, 13, 73, 501, 4051]

    def test_ternary_counts(self):
        f = forest_egf(3, 6)
        assert list(f.counts) \
            == [1, 1, 4, 25, 211, 2236, 28471]

    def test_matches_colony_bells(self):
        for r in (2, 3):
            f = forest_egf(r, 5)
            for n in range(1, 6):
                assert f.counts[n] \
                    == bell_number(StringType.uniform(r, 1, n))


class TestExplicitSum:
    def test_first_term_by_hand(self):
        # r = 3, n = 2: term at k = 1 is (1 + 1/2) / 0! = 3/2
        terms = bell_r1_terms(3, 2)
        assert next(terms) == Fraction(3, 2)
        assert next(terms) == Fraction(2)

    def test_terms_positive(self):
        terms = bell_r1_terms(2, 4)
        assert all(next(terms) > 0 for _ in range(40))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bell_r1_terms(1, 2)
        with pytest.raises(ValueError):
            bell_r1_terms(2, 0)

    def test_n_one_sums_to_one(self):
        out = bell_r1_numeric(2, 1, 25)
        assert abs(out.value - 1) < Decimal("1e-20")

    def test_binary_three_vertices(self):
        out = bell_r1_numeric(2, 3, 25)
        assert abs(out.value - 13) < Decimal("1e-20")

    def test_ternary_two_vertices(self):
        out = bell_r1_numeric(3, 2, 25)
        assert abs(out.value - 4) < Decimal("1e-20")

    def test_matches_forests_broadly(self):
        for r in (2, 3, 4):
            for n in range(1, 5):
                expected = bell_number(StringType.uniform(r, 1, n))
                out = bell_r1_numeric(r, n, 20)
                assert abs(out.value - expected) / expected \
                    < Decimal("1e-15")

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 7, 19, 40])
    @pytest.mark.parametrize("digits", [5, 20, 60])
    def test_rounds_exact_bell_number(self, r, n, digits):
        exact = bell_number(StringType.uniform(r, 1, n))
        with localcontext() as ctx:
            ctx.prec = digits
            rounded = +Decimal(exact)
        assert bell_r1_numeric(r, n, digits).value == rounded

    def test_term_cap(self):
        with pytest.raises(PrecisionUnreachable):
            bell_r1_numeric(2, 3, 30, max_terms=4)
        # n = 20 legs: no stop before term 21, refused before summing
        with pytest.raises(PrecisionUnreachable,
                           match="needs at least 21 terms"):
            bell_r1_numeric(2, 20, 30, max_terms=20)

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            bell_r1_numeric(2, 2, 0)

    @pytest.mark.parametrize("r, n, message", [(1, 2, "needs r >= 2"),
                                               (2, 0, "needs n >= 1")])
    def test_numeric_rejects_bad_args(self, r, n, message):
        with pytest.raises(ValueError) as exc:
            bell_r1_numeric(r, n, 10)
        assert str(exc.value) == message


def single_leg_tables(r, order):
    # a reference for the series layer, kept out of the package: uniform
    # types grow one factor at a time, so one leg-by-leg pass over
    # uniform(r,1,order) holds the table of uniform(r,1,n) after factor n.
    # Factor n's one leg meets d = (n-1)(r-1) creators before it:
    # S'(k) = (d+k) S(k) + S(k-1), row[k] = S(k) from k = 0
    row = [1]
    yield row
    for n in range(1, order + 1):
        d = (n - 1) * (r - 1)
        row = [(d + k) * row[k] + (row[k - 1] if k else 0)
               for k in range(len(row))] + [row[-1]]
        yield row


class TestSingleLegReference:
    """The series layer at order 400 against the leg-by-leg pass: each
    table's row sum is the forest count B_{r,1}(n), its k = 1 entry the
    tree count."""

    ORDER = 400

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_forests_and_trees(self, r):
        tables = list(single_leg_tables(r, self.ORDER))
        assert forest_egf(r, self.ORDER).counts \
            == tuple(sum(row) for row in tables)
        assert tree_series(r, self.ORDER).counts[1:] \
            == tuple(row[1] for row in tables[1:])

    def test_small_tables_match_recurrence(self):
        for r in (1, 2, 3):
            tables = list(single_leg_tables(r, 6))
            for n, row in enumerate(tables[1:], start=1):
                assert {k: v for k, v in enumerate(row) if v} \
                    == stirling_recurrence(StringType.uniform(r, 1, n)).values


class TestSpeciesColumns:
    """A colony of uniform(r,1,n) is a forest of increasing r-ary trees,
    one tree per free leg, so column k of the table has the EGF
    (T_r - 1)^k / k!: S_{r,1}(n,k) = n! [x^n] (T_r - 1)^k / k!."""

    ORDER = 30

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_columns_match_recurrence(self, r):
        trees = (0,) + tree_series(r, self.ORDER).counts[1:]
        # powers[k] holds the counts of (T_r - 1)^k, each power one
        # binomial convolution with T_r - 1 past the one before
        powers = [[1] + [0] * self.ORDER]
        for k in range(1, self.ORDER + 1):
            powers.append(product_counts(powers[-1], trees))
            assert all(c % math.factorial(k) == 0 for c in powers[k])
        for n in range(1, self.ORDER + 1):
            columns = {k: powers[k][n] // math.factorial(k)
                       for k in range(n + 1) if powers[k][n]}
            assert columns \
                == stirling_recurrence(StringType.uniform(r, 1, n)).values
            if r == 2:
                # the Lah numbers
                assert columns == {
                    k: math.comb(n - 1, k - 1) * math.factorial(n)
                    // math.factorial(k) for k in range(1, n + 1)}
