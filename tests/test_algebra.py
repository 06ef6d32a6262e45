import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonorder import (ANNIHILATION, CREATION, BosonWord, NegativeExcess,
                        NormalForm, StringType, algebra, apply_crossing,
                        extract_stirling, falling_factorial, normal_order,
                        settlement_product, stirling_recurrence,
                        type_from_word, word_from_type)

AD, A = CREATION, ANNIHILATION


def word(*letters):
    return BosonWord(tuple(letters))


words_st = st.lists(st.sampled_from([AD, A]), max_size=10).map(
    lambda ls: BosonWord(tuple(ls)))


class TestApplyCrossing:
    def test_2_2(self):
        # a^2 ad^2 = ad^2 a^2 + 4 ad a + 2
        assert apply_crossing(2, 2) == [(0, 1), (1, 4), (2, 2)]

    def test_single_commutator(self):
        assert apply_crossing(1, 1) == [(0, 1), (1, 1)]

    def test_nothing_to_cross(self):
        assert apply_crossing(0, 5) == [(0, 1)]
        assert apply_crossing(4, 0) == [(0, 1)]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            apply_crossing(-1, 2)

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_coefficients_positive(self, k, l):
        terms = apply_crossing(k, l)
        assert [p for p, _ in terms] == list(range(min(k, l) + 1))
        assert all(c > 0 for _, c in terms)


class TestNormalOrder:
    def test_single_commutator(self):
        # a ad = 1 + ad a
        form = normal_order(word(A, AD))
        assert form.excess == 0
        assert form.coeffs == {0: 1, 1: 1}

    def test_number_operator_squared(self):
        form = normal_order(word(AD, A, AD, A))
        assert form.coeffs == {1: 1, 2: 1}

    def test_number_operator_cubed(self):
        form = normal_order(word(AD, A, AD, A, AD, A))
        assert form.coeffs == {1: 1, 2: 3, 3: 1}

    def test_already_normal(self):
        form = normal_order(word(AD, AD, AD, A, A))
        assert form.excess == 1
        assert form.coeffs == {2: 1}

    def test_empty_word_is_identity(self):
        form = normal_order(BosonWord())
        assert form.excess == 0 and form.coeffs == {0: 1}

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            normal_order(BosonWord(), method="magic")

    def test_methods_agree_exhaustively(self):
        # every word of length <= 10: the one-commutator-at-a-time rewriter
        # and the fold over runs must reach the same normal form
        for size in range(11):
            for letters in itertools.product((AD, A), repeat=size):
                w = BosonWord(letters)
                assert (normal_order(w, "letterwise")
                        == normal_order(w, "blockwise"))

    @given(st.lists(st.sampled_from([AD, A]), min_size=11, max_size=14))
    @settings(deadline=None, max_examples=100)
    def test_methods_agree_on_random_long_words(self, letters):
        # beyond the exhaustive range: either letter first, any excess sign
        w = BosonWord(tuple(letters))
        assert normal_order(w, "letterwise") == normal_order(w, "blockwise")

    @pytest.mark.parametrize("t", [StringType.uniform(2, 1, 14),
                                   StringType.uniform(3, 2, 60)])
    def test_many_factors_match_recurrence(self, t):
        d, values = extract_stirling(normal_order(word_from_type(t)))
        assert d == t.excess
        assert values == stirling_recurrence(t).values

    @given(words_st)
    @settings(deadline=None)
    def test_excess_preserved_and_coeffs_positive(self, w):
        form = normal_order(w)
        assert form.excess == w.excess
        assert all(v > 0 for v in form.coeffs.values())

    @given(words_st, words_st)
    @settings(deadline=None)
    def test_product_homomorphism(self, u, v):
        lhs = normal_order(u.concat(v))
        rhs = normal_order(u).multiply(normal_order(v))
        assert lhs == rhs


def _dict_fold(w):
    # an independent reference for the row kernel: a dict of monomials
    # (i, j), multiplied by each run's one-term form through apply_crossing
    acc = {(0, 0): 1}
    for letter, count in w.runs:
        i2, j2 = (count, 0) if letter is AD else (0, count)
        nxt = {}
        for (i1, j1), c in acc.items():
            for p, weight in apply_crossing(j1, i2):
                key = (i1 + i2 - p, j1 + j2 - p)
                nxt[key] = nxt.get(key, 0) + c * weight
        acc = nxt
    return NormalForm(w.excess, {min(i, j): c for (i, j), c in acc.items()})


def _alternating(first, counts):
    other = A if first is AD else AD
    return BosonWord.from_runs(
        (first if t % 2 == 0 else other, c) for t, c in enumerate(counts))


few_runs_st = st.builds(_alternating, st.sampled_from([AD, A]),
                        st.lists(st.integers(1, 64), min_size=1, max_size=5))


class TestRowKernel:
    def test_matches_dict_fold_exhaustively(self):
        # every word of at most 14 letters
        for size in range(15):
            for letters in itertools.product((AD, A), repeat=size):
                w = BosonWord(letters)
                assert normal_order(w) == _dict_fold(w)

    @given(few_runs_st)
    @settings(deadline=None, max_examples=200)
    def test_matches_dict_fold_on_few_long_runs(self, w):
        assert normal_order(w) == _dict_fold(w)

    @given(few_runs_st, few_runs_st)
    @settings(deadline=None, max_examples=40)
    def test_multiply_is_normal_order_of_the_concatenation(self, u, v):
        # both operands have many terms whenever a run of a precedes a+
        assert (normal_order(u).multiply(normal_order(v))
                == normal_order(u.concat(v)))

    @pytest.mark.parametrize("left, right", [
        ((AD, [3, 5, 2]), (A, [4, 6, 1])),
        ((A, [4, 6, 1]), (A, [2, 3, 5, 1])),
        ((AD, [1, 7]), (AD, [2, 3, 3])),
    ])
    def test_multiply_multi_term_operands(self, left, right):
        u, v = _alternating(*left), _alternating(*right)
        fu, fv = normal_order(u), normal_order(v)
        assert len(fv.coeffs) > 1
        assert fu.multiply(fv) == normal_order(u.concat(v))

    def test_multiply_by_zero_and_sparse_forms(self):
        zero = NormalForm(1, {})
        n_op = normal_order(word(AD, A))
        assert n_op.multiply(zero) == zero
        assert zero.multiply(n_op) == zero
        # 2 a + 5 (a+)^3 a^4 times a (a+)^2, one monomial at a time
        sparse = NormalForm(-1, {0: 2, 3: 5})
        right = word(A, AD, AD)
        expected = {}
        for i, j, c in sparse.monomials():
            runs = [(l, n) for l, n in ((AD, i), (A, j)) if n]
            term = normal_order(BosonWord.from_runs(runs).concat(right))
            for k, v in term.coeffs.items():
                expected[k] = expected.get(k, 0) + c * v
        assert sparse.multiply(normal_order(right)) == NormalForm(0, expected)

    def test_sparse_left_operand_keeps_gaps_out_of_rows(self, monkeypatch):
        # runs of degrees 0..1 and 10^6: no row handed to the crossing
        # kernel may span the gap between them
        left = NormalForm(0, {0: 1, 1: 2, 10 ** 6: 1})
        right = BosonWord.from_runs([(A, 1), (AD, 3)])
        expected = {}
        for i, j, c in left.monomials():
            runs = [(l, n) for l, n in ((AD, i), (A, j)) if n]
            term = normal_order(BosonWord.from_runs(runs).concat(right))
            for k, v in term.coeffs.items():
                expected[k] = expected.get(k, 0) + c * v
        lengths = []
        crossing = algebra._times_creations

        def recording(lo, row, l):
            lengths.append(len(row))
            return crossing(lo, row, l)

        monkeypatch.setattr(algebra, "_times_creations", recording)
        product = left.multiply(normal_order(right))
        assert product == NormalForm(2, expected)
        assert lengths and max(lengths) <= 2


class TestNormalForm:
    def test_monomials_nonnegative_excess(self):
        form = NormalForm(2, {0: 3, 1: 5})
        assert list(form.monomials()) == [(2, 0, 3), (3, 1, 5)]

    def test_monomials_negative_excess(self):
        form = NormalForm(-1, {1: 4})
        assert list(form.monomials()) == [(1, 2, 4)]

    def test_zero_coefficients_dropped(self):
        assert NormalForm(0, {0: 1, 1: 0}).coeffs == {0: 1}

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            NormalForm(0, {-1: 1})

    def test_multiply_matches_rewriting(self):
        n_op = normal_order(word(AD, A))
        assert n_op.multiply(n_op) == normal_order(word(AD, A, AD, A))


class TestWordsAndTypes:
    def test_word_from_type_order(self):
        # factor 1 is rightmost: ((1,2),(1,1)) reads ad^2 a ad a
        t = StringType((1, 2), (1, 1))
        assert word_from_type(t).letters == (AD, AD, A, AD, A)

    def test_word_length_is_total_exponent_sum(self):
        t = StringType((3, 2, 1, 3), (2, 2, 2, 3))
        w = word_from_type(t)
        assert len(w) == t.total_r + t.total_s == 18
        assert w.excess == 0

    def test_type_round_trip(self, sweep_types):
        for t in sweep_types:
            assert type_from_word(word_from_type(t)) == t

    def test_type_from_ungrouped_word(self):
        # a leading a gets r_n = 0, a trailing ad gets s_1 = 0
        assert type_from_word(word(A, AD)) == StringType((1, 0), (0, 1))
        assert type_from_word(word(AD)) == StringType((1,), (0,))
        assert type_from_word(word(A)) == StringType((0,), (1,))
        assert type_from_word(BosonWord()) == StringType((0,), (0,))

    def test_every_word_round_trips(self):
        # every word of at most 10 letters has exactly one type
        types = set()
        for size in range(11):
            for letters in itertools.product((AD, A), repeat=size):
                w = BosonWord(letters)
                t = type_from_word(w)
                assert word_from_type(t) == w
                assert type_from_word(word_from_type(t)) == t
                types.add(t)
        assert len(types) == 2 ** 11 - 1

    def test_excess(self):
        assert word(AD, AD, A).excess == 1
        assert word(A, A).excess == -2
        assert BosonWord().excess == 0

    def test_string_type_validation(self):
        with pytest.raises(ValueError):
            StringType((1, 2), (1,))
        with pytest.raises(ValueError):
            StringType((), ())
        # zeros anywhere but s_1 and r_n, negatives anywhere
        for r, s in [((0, 1), (1, 1)), ((1, 1), (1, 0)),
                     ((1, 0, 1), (1, 1, 1)), ((-1,), (1,)), ((1,), (-1,)),
                     ((1, -1), (0, 1)), ((1, 1), (-1, 1))]:
            with pytest.raises(ValueError):
                StringType(r, s)

    @pytest.mark.parametrize("r, s", [((0,), (1,)), ((1,), (0,)),
                                      ((0,), (0,)), ((2, 1, 0), (0, 1, 3))])
    def test_zero_boundary_exponents_accepted(self, r, s):
        t = StringType(r, s)
        assert (t.r, t.s) == (r, s)
        assert type_from_word(word_from_type(t)) == t

    def test_prefix_excesses(self):
        t = StringType((3, 2, 1, 3), (2, 2, 2, 3))
        assert t.prefix_excesses == (0, 1, 1, 0, 0)
        assert t.excess == 0
        assert t.has_nonnegative_prefixes()
        assert not StringType((1, 3), (2, 1)).has_nonnegative_prefixes()

    def test_uniform(self):
        assert StringType.uniform(2, 1, 3) == StringType((2, 2, 2), (1, 1, 1))

    def test_word_from_huge_type_is_two_runs(self):
        w = word_from_type(StringType((3_000_000,), (1,)))
        assert w.runs == ((AD, 3_000_000), (A, 1))
        assert len(w) == 3_000_001 and w.excess == 2_999_999


class TestRuns:
    def test_adjacent_runs_merge(self):
        assert BosonWord.from_runs([(A, 2), (A, 3)]) == BosonWord((A,) * 5)
        assert BosonWord.from_runs([(A, 2), (A, 3)]).runs == ((A, 5),)
        assert word(AD, AD, A, AD).runs == ((AD, 2), (A, 1), (AD, 1))

    @pytest.mark.parametrize("count", [0, -1])
    def test_nonpositive_count_refused(self, count):
        with pytest.raises(ValueError):
            BosonWord.from_runs([(AD, 1), (A, count)])

    def test_non_letter_refused(self):
        with pytest.raises(TypeError):
            BosonWord.from_runs([("a", 1)])
        with pytest.raises(TypeError):
            BosonWord(("ad",))

    def test_concat_merges_the_seam(self):
        u = BosonWord.from_runs([(AD, 2), (A, 1)])
        v = BosonWord.from_runs([(A, 4), (AD, 3)])
        assert u.concat(v).runs == ((AD, 2), (A, 5), (AD, 3))

    @given(st.lists(st.tuples(st.sampled_from([AD, A]), st.integers(1, 4)),
                    max_size=8))
    def test_round_trip(self, runs):
        w = BosonWord.from_runs(runs)
        assert BosonWord.from_runs(w.runs) == w
        assert BosonWord(w.letters) == w
        assert hash(BosonWord(w.letters)) == hash(w)
        assert len(w) == len(w.letters) == sum(c for _, c in runs)
        assert w.excess == sum(1 if l is AD else -1 for l in w.letters)
        assert all(a[0] is not b[0] for a, b in zip(w.runs, w.runs[1:]))


class TestExtractStirling:
    def test_refuses_negative_excess(self):
        form = normal_order(word(A, A, AD))
        with pytest.raises(NegativeExcess):
            extract_stirling(form)

    def test_splits_prefix(self):
        d, values = extract_stirling(normal_order(word(AD, AD, A)))
        assert d == 1 and values == {1: 1}


class TestXdAction:
    # In the representation ad -> x, a -> d/dx the normal form of a word sends
    # x^m to (sum_k S(k) (m)_k) x^(m+d); settlement_product is that number.
    @staticmethod
    def act(t, m):
        form = normal_order(word_from_type(t))
        return sum(c * falling_factorial(m, s) for _, s, c in form.monomials())

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            settlement_product(StringType((1,), (1,)), -1)

    def test_annihilates_low_monomial(self):
        # the four-factor example: degree 2 input dies on the last D^3 block
        t = StringType((3, 2, 1, 3), (2, 2, 2, 3))
        assert self.act(t, 2) == settlement_product(t, 2) == 0
        assert self.act(t, 3) == settlement_product(t, 3) > 0
