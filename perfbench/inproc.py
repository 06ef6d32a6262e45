"""The two in-process workloads, ``deep-words`` and ``big-exact``.

Each workload function turns a seeded RNG and a size (seconds of nominal
work) into a list of Ops, each kind in ascending size order.  Every
answer's reference comes from a route other than the one the op exercises
and is computed here, during set-up.  Ops look the library up through
module attributes at call time, so the traced run's wrappers see every
call.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction
from functools import lru_cache

import bosonorder as bo
import bosonorder.cli as bocli

from common import (Op, bell, decimal_ref, expect, general_word,
                    nonneg_type_exps, rand_type_exps, recurrence_table, strata,
                    table_to_coeffs, within_ulp)

# Op counts per second of --seconds.  They are fixed, so the work of a run
# depends on --seconds and the seed only; they were chosen so that the
# timed phase (all its rounds) lasts about --seconds and each kind takes
# about the share of it noted beside it at the parent revision on a 2-core
# VM.  The cheapest kinds are kept few, so that op_p50_ms does not sit in
# the sparse gap between them and the rest.
DEEP_RATES = {
    "typed": 32.5,        # ~46%: rewriting of typed words, 6-11 factors
    "general": 7.8,       # <1%: rewriting of short general words
    "colonies": 15.6,     # ~26%: colony histograms by enumeration
    "settlements": 15.6,  # ~21%: settlement counts by enumeration
    "selfcheck": 13.0,    # ~6%: four-route selfcheck on small types
}
BIG_RATES = {
    "cf_table": 10.0,     # ~23%: full closed-form tables
    "recurrence": 6.9,    # ~17%: recurrence tables of 40-160 factors
    "dobinski": 9.5,      # ~21%: Dobinski sums at 50-1000 digits
    "coherent": 8.4,      # ~2%: coherent-state values at 100 digits
    "tree": 2.8,          # ~11%: tree series
    "forest": 2.8,        # ~13%: forest series
    "bell_r1": 9.4,       # ~9%: single-leg Bell numbers from the k-sum
    "fewrun": 6.9,        # ~4%: rewriting of few-run words, exponents 10-60
}
REFUSE_SHARE = 0.03
FORESTS_PER_RUN = 8


def counts(rates: dict[str, float], seconds: float) -> dict[str, int]:
    return {k: max(2, round(v * seconds)) for k, v in rates.items()}


def n_refusals(total: int) -> int:
    return max(3, round(REFUSE_SHARE * total))


def _nearest(rng, targets, draw, cost, seen, factor=3):
    """For each target size, an unused input whose cost is nearest to it
    in log terms, from a pool of ``factor`` random candidates per target."""
    pool = []
    while len(pool) < factor * len(targets):
        cand = draw(rng)
        if cand not in seen:
            seen.add(cand)
            pool.append((math.log(cost(cand)), cand))
    pool.sort(key=lambda entry: entry[0])
    keys = [k for k, _ in pool]
    free = [True] * len(pool)
    picked = []
    for target in targets:
        i = bisect.bisect_left(keys, math.log(target))
        lo, hi = i - 1, i
        while lo >= 0 and not free[lo]:
            lo -= 1
        while hi < len(pool) and not free[hi]:
            hi += 1
        if hi >= len(pool) or (lo >= 0 and math.log(target) - keys[lo]
                               < keys[hi] - math.log(target)):
            hi = lo
        free[hi] = False
        picked.append(pool[hi][1])
    return picked


def _pick_strata(rng, items, count):
    # one item from each of `count` consecutive slices of a cost-sorted list
    count = min(count, len(items))
    return [rng.choice(items[i * len(items) // count:
                             (i + 1) * len(items) // count])
            for i in range(count)]


def _merge_runs(runs):
    out = []
    for x in runs:
        if out and (out[-1] > 0) == (x > 0):
            out[-1] += x
        else:
            out.append(x)
    return tuple(out)


def rewrite_leaves(runs: tuple[int, ...], cap: int) -> int:
    """Terms the parent revision's blockwise worklist expands for a word
    given as signed runs (+c = ad^c, -c = a^c), saturating at ``cap``.

    Its time was measured at about 10 us per term, so this is the size
    measure for typed words: a cost proxy that is exact and cheap."""

    @lru_cache(maxsize=None)
    def leaves(rs):
        for t in range(len(rs) - 1):
            if rs[t] < 0 < rs[t + 1]:
                k, l = -rs[t], rs[t + 1]
                total = 0
                for p in range(min(k, l) + 1):
                    mid = tuple(x for x in (l - p, -(k - p)) if x)
                    total += leaves(_merge_runs(rs[:t] + mid + rs[t + 2:]))
                    if total >= cap:
                        return cap
                return total
        return 1

    return leaves(runs)


def _type_runs(t) -> tuple[int, ...]:
    runs = []
    for ri, si in zip(reversed(t.r), reversed(t.s)):
        runs += [ri, -si]
    return tuple(runs)


# ---------------------------------------------------------------- checks


def _check_form(ref_coeffs, excess):
    def check(form):
        expect(form.excess == excess, f"excess {form.excess} != {excess}")
        expect(dict(form.coeffs) == ref_coeffs, "normal form coefficients")
    return check


def _check_equal(ref, what):
    def check(got):
        expect(got == ref, what)
    return check


def _check_table_identity(points):
    # sum_k S(k) (x)_k must equal the product formula at each sample x
    def check(table):
        values = table.values
        for x, ref in points:
            expect(sum(v * math.perm(x, k) for k, v in values.items()) == ref,
                   f"recurrence table fails the product identity at x={x}")
    return check


def _check_decimal(ref, digits):
    def check(approx):
        expect(approx.precision_digits == digits, "precision digits")
        expect(within_ulp(approx.value, ref, digits),
               f"value {approx.value} is not within 1 ulp of {ref}")
    return check


def _check_complex(ref_re, ref_im, digits):
    def check(approx):
        expect(within_ulp(approx.real, ref_re, digits), "real part")
        expect(within_ulp(approx.imag, ref_im, digits), "imaginary part")
    return check


def _check_selfcheck(results):
    expect(len(results) == 4, "selfcheck runs four checks")
    bad = [r.name for r in results if r.status == "fail"]
    expect(not bad, f"selfcheck failed: {bad}")


def _check_series(ref_coeffs):
    def check(series):
        expect(series.convention == bo.EGF, "series convention")
        expect(series.coeffs == ref_coeffs, "series coefficients")
    return check


# ---------------------------------------------------------------- deep-words


def _typed_op(t):
    d = t.excess
    check = _check_form(table_to_coeffs(recurrence_table(t), d), d)
    return Op("typed", lambda: bo.normal_order(bo.word_from_type(t)), check)


def deep_words(rng: random.Random, seconds: float) -> list[Op]:
    """Many factors with small exponents: the exponential regime of
    blockwise rewriting and of enumeration."""
    n = counts(DEEP_RATES, seconds)
    ops: list[Op] = []
    seen: set = set()

    def draw_typed(g):
        return bo.StringType(*rand_type_exps(g, g.randint(6, 11),
                                             (1, 1, 1, 2, 2, 3)))

    for t in _nearest(rng, strata(rng, n["typed"], 60, 8000, log=True),
                      draw_typed,
                      lambda t: rewrite_leaves(_type_runs(t), 16000), seen):
        ops.append(_typed_op(t))

    for length in strata(rng, n["general"], 8, 16.99):
        w = general_word(rng, int(length))
        while w in seen:
            w = general_word(rng, int(length))
        seen.add(w)
        ref = bo.normal_order(w, method="letterwise")
        ops.append(Op("general", lambda w=w: bo.normal_order(w),
                      _check_form(dict(ref.coeffs), ref.excess)))

    def draw_any(g):
        return bo.StringType(*rand_type_exps(g, g.randint(3, 9), (1, 1, 2)))

    for t in _nearest(rng, strata(rng, n["colonies"], 200, 15000, log=True),
                      draw_any, bell, seen, factor=12):
        ops.append(Op("colonies",
                      lambda t=t: bo.count_colonies_by_free_legs(t),
                      _check_equal(recurrence_table(t),
                                   "colony histogram")))

    def draw_nonneg(g):
        return bo.StringType(*nonneg_type_exps(g, g.randint(3, 9), (1, 1, 2)))

    for t in _nearest(rng, strata(rng, n["settlements"], 200, 12000,
                                  log=True), draw_nonneg, bell, seen,
                      factor=12):
        m = rng.randint(0, 4)
        ops.append(Op("settlements",
                      lambda t=t, m=m: bo.enumerate_settlements(t, m),
                      _check_equal(bo.settlement_product(t, m),
                                   "settlement count")))

    # forests have few distinct inputs of a useful size, so a run takes a
    # fixed number of (arity, size) pairs without repeats
    pairs = sorted((bo.stirling_recurrence(bo.StringType.uniform(r, 1, k))
                    .bell(), r, k)
                   for r in range(1, 6) for k in range(3, 10))
    pairs = [p for p in pairs if 300 <= p[0] <= 40000]
    for forests, r, k in _pick_strata(rng, pairs, FORESTS_PER_RUN):
        ops.append(Op("forests",
                      lambda r=r, k=k: bo.count_increasing_forests(r, k),
                      _check_equal(forests, "forest count")))

    def draw_small(g):
        return bo.StringType(*rand_type_exps(g, g.randint(2, 5), (1, 2, 3)))

    for t in _nearest(rng, strata(rng, n["selfcheck"], 5, 600, log=True),
                      draw_small, bell, seen, factor=12):
        ops.append(Op("selfcheck", lambda t=t: bocli.run_selfcheck(t),
                      _check_selfcheck))

    # documented computational refusals (exit code 1): over-cap
    # enumeration, and coefficient extraction at negative excess
    for i in range(n_refusals(len(ops))):
        if i % 2:
            while bell(t := draw_any(rng)) < 4:
                pass
            cap = bell(t) // 2
            ops.append(Op("refuse_cap", lambda t=t, cap=cap:
                          bo.count_colonies_by_free_legs(t, enum_cap=cap),
                          refuse=1))
        else:
            w = general_word(rng, rng.randint(6, 10))
            w = bo.BosonWord((bo.ANNIHILATION,) * (abs(w.excess) + 1)
                             + w.letters)
            ops.append(Op("refuse_excess", lambda w=w:
                          bo.extract_stirling(bo.normal_order(w)), refuse=1))
    return ops


# ---------------------------------------------------------------- big-exact


def _dobinski_x_max(digits: float) -> float:
    # largest x whose sum stays near 100 ms at this precision at the
    # parent revision: log-linear through (50, 400), (300, 80), (1000, 10)
    pts = [(math.log(50), math.log(400)), (math.log(300), math.log(80)),
           (math.log(1000), math.log(10))]
    ld = math.log(digits)
    (a0, b0), (a1, b1) = pts[:2] if ld <= pts[1][0] else pts[1:]
    return math.exp(b0 + (b1 - b0) * (ld - a0) / (a1 - a0))


def _rand_fraction(rng, value):
    q = rng.choice((1, 2, 3, 4, 5, 7))
    return Fraction(max(1, round(value * q)), q)


def big_exact(rng: random.Random, seconds: float) -> list[Op]:
    """Few factors with large numbers: big-int and Fraction arithmetic in
    the closed form, the recurrence, Dobinski sums and the series."""
    n = counts(BIG_RATES, seconds)
    ops: list[Op] = []
    seen: set = set()

    def fresh(make):
        while (t := make()) in seen:
            pass
        seen.add(t)
        return t

    for size in strata(rng, n["cf_table"], 8, 40.99):
        k = int(size)
        t = fresh(lambda: bo.StringType(
            tuple(rng.choice((2, 3)) for _ in range(k)), (2,) * k))

        def cf_table(t=t):
            cf = bo.stirling_closed_form
            return {j: v for j in range(t.s[0], t.total_s + 1)
                    if (v := cf(t, j))}
        ops.append(Op("cf_table", cf_table,
                      _check_equal(recurrence_table(t),
                                   "closed-form table")))

    for size in strata(rng, n["recurrence"], 40, 160.99):
        t = fresh(lambda: bo.StringType(*nonneg_type_exps(rng, int(size),
                                                          (1, 2, 3))))
        points = [(x, bo.settlement_product(t, x))
                  for x in (t.total_s + 1, t.total_s + 7)]
        ops.append(Op("recurrence", lambda t=t: bo.stirling_recurrence(t),
                      _check_table_identity(points)))

    # x is drawn log-uniformly below the cost limit of its precision, from
    # stratified positions so the mix of sum lengths stays put
    x_pos = strata(rng, n["dobinski"], 0, 1)
    rng.shuffle(x_pos)
    for digits_f, u in zip(strata(rng, n["dobinski"], 50, 1000, log=True),
                           x_pos):
        digits = int(digits_f)
        t = bo.StringType(*nonneg_type_exps(rng, rng.randint(1, 4),
                                            (1, 2, 3)))
        x_max = _dobinski_x_max(digits)
        x = _rand_fraction(rng, 0.5 * (x_max / 0.5) ** u)
        exact = bo.bell_polynomial(t).evaluate(x)
        ops.append(Op("dobinski",
                      lambda t=t, x=x, d=digits: bo.dobinski_eval(t, x, d),
                      _check_decimal(decimal_ref(exact, digits), digits)))

    for size in strata(rng, n["coherent"], 4, 40.99):
        t = fresh(lambda: bo.StringType(*nonneg_type_exps(rng, int(size),
                                                          (1, 2, 3))))
        zr = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        zi = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        mod2 = zr * zr + zi * zi
        b = sum(v * mod2 ** k for k, v in recurrence_table(t).items())
        re, im = Fraction(1), Fraction(0)
        for _ in range(t.excess):  # multiply by conj(z)
            re, im = re * zr + im * zi, im * zr - re * zi
        ops.append(Op("coherent", lambda t=t, z=(zr, zi):
                      bo.coherent_expectation(t, z, 100),
                      _check_complex(decimal_ref(re * b, 100),
                                     decimal_ref(im * b, 100), 100)))

    # orders stop where one series would pass ~100 ms at the parent
    # revision (its cost grows like r * order^3)
    order_max = {2: 50, 3: 38, 4: 32}
    pairs = sorted(((r * o ** 3, r, o) for r in order_max
                    for o in range(20, order_max[r] + 1)))
    for _, r, o in _pick_strata(rng, pairs, n["tree"]):
        ref = bo.tree_series_closed_form(r, o).coeffs
        ops.append(Op("tree", lambda r=r, o=o: bo.tree_series(r, o),
                      _check_series(ref)))
    for _, r, o in _pick_strata(rng, pairs, n["forest"]):
        ref = tuple(Fraction(bell(bo.StringType.uniform(r, 1, j)) if j else 1,
                             math.factorial(j)) for j in range(o + 1))
        ops.append(Op("forest", lambda r=r, o=o: bo.forest_egf(r, o),
                      _check_series(ref)))

    digits_list = strata(rng, n["bell_r1"], 30, 300, log=True)
    rng.shuffle(digits_list)
    for size, digits_f in zip(strata(rng, n["bell_r1"], 5, 40.99),
                              digits_list):
        r, k, digits = rng.randint(2, 4), int(size), int(digits_f)
        exact = Fraction(bell(bo.StringType.uniform(r, 1, k)))
        ops.append(Op("bell_r1", lambda r=r, k=k, d=digits:
                      bo.bell_r1_numeric(r, k, d),
                      _check_decimal(decimal_ref(exact, digits), digits)))

    for e in strata(rng, n["fewrun"], 10, 60.99):
        factors = rng.randint(2, 3)
        t = fresh(lambda: bo.StringType(
            *[tuple(max(1, int(e) + rng.randint(-3, 3))
                    for _ in range(factors)) for _ in range(2)]))
        ops.append(_typed_op(t))
        ops[-1].kind = "fewrun"

    # documented computational refusals (exit code 1): a term cap the tail
    # bound cannot meet, and the closed form on a negative prefix excess
    for i in range(n_refusals(len(ops))):
        if i % 2:
            t = bo.StringType(*nonneg_type_exps(rng, 2, (1, 2, 3)))
            x = _rand_fraction(rng, rng.uniform(20, 60))
            ops.append(Op("refuse_terms", lambda t=t, x=x:
                          bo.dobinski_eval(t, x, 50, max_terms=5), refuse=1))
        else:
            r, s = nonneg_type_exps(rng, rng.randint(2, 12), (1, 2, 3))
            d = sum(r[:-1]) - sum(s[:-1])
            t = bo.StringType(r[:-1] + (1,), s[:-1] + (d + 2,))
            ops.append(Op("refuse_prefix", lambda t=t:
                          bo.stirling_closed_form(t, t.total_s), refuse=1))
    return ops
