"""Generalized Stirling and Bell numbers of a boson string.

The same coefficient table is reachable four ways: direct rewriting (algebra
module), the bug-colony recurrence, an inclusion-exclusion closed form, and
brute enumeration (combinat module).  Everything here is exact: integers are
Python ints, series partial sums are integer numerators over a known
denominator, and decimal output is produced only at the final rounding step,
one integer division whose quotient alone is converted to decimal.

The closed form, the Dobinski sums and the settlement counts all read one
polynomial, p(m) = prod_j (m+d_{j-1})_(s_j).  It is built from its maximal
falling-factorial runs, p(m) = prod (m+top)_len^mult: the runs are found
once per type, by one sweep over the factors' windows, and each run costs
one column of values, raised to its multiplicity.  So ((a+)^2 a^2)^n gives
p(m) = (m)_2^n, one column and one power, not n columns.  The closed form
has one implementation, the forward-difference table of p(0..sum(s)): it
is built at most once per type across consecutive calls, and a single
coefficient reads it as the full table does.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain, count, repeat
from operator import add, index, mul, sub

from .algebra import StringType, _Value
from .errors import (DEFAULT_MAX_TERMS, NonCanonicalPrefix,
                     PrecisionUnreachable, TooLarge, _count_text)

# p(m) // (3 m!) is named exactly where p(m) and m! fit in PEAK_BITS bits;
# past CLOSED_FORM_BUDGET differences or recurrence steps, a type is refused
PEAK_BITS = 1 << 20
CLOSED_FORM_BUDGET = 10**7

# Decimal(n) is quadratic in the digits of n; above this many bits
# _exact_decimal converts by halves instead, in subquadratic time
SPLIT_BITS = 1 << 14


def falling_factorial(l: int, p: int) -> int:
    """(l)_p = l(l-1)...(l-p+1); (l)_0 = 1.

    Defined for any sign of l: 0 <= l < p gives 0, and a negative l gives
    the signed product (l)_p = (-1)^p (p-1-l)_p, whose base is positive.
    Callers that mean "number of injections" must ensure the base is
    nonnegative themselves.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    return math.perm(l, p) if l >= 0 else (-1) ** p * math.perm(p - 1 - l, p)


class StirlingTable(_Value):
    """Nonzero generalized Stirling coefficients of a type, keyed by the
    number of surviving annihilators (equally: free legs of a colony).
    Holding a dict, a table cannot be hashed."""

    __slots__ = ("type", "values")

    def __init__(self, type: StringType, values: Mapping[int, int]):
        clean = {index(k): c for k, v in sorted(values.items())
                 if (c := index(v))}
        lo, hi = type.s[0], type.total_s
        for k, v in clean.items():
            if not lo <= k <= hi:
                raise ValueError(f"key {k} outside the window [{lo}, {hi}]")
            if v < 0:
                raise ValueError("coefficients count colonies; got a negative")
        self._store(type, clean)

    def bell(self) -> int:
        return sum(self.values.values())


class BellPolynomial(_Value):
    """Dense integer coefficient vector; coeffs[k] multiplies x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        coeffs = tuple(map(index, coeffs))
        if not coeffs:
            raise ValueError("empty coefficient vector")
        self._store(coeffs)

    def evaluate(self, x):
        """Horner evaluation, exact for an int or a Fraction x = u/v: it
        sums c_k u^k v^(K-k) in integers, then takes one gcd, not K."""
        u, v = x.numerator, x.denominator
        coeffs = reversed(self.coeffs)
        acc, scale = next(coeffs), 1
        for c in coeffs:
            scale *= v
            acc = acc * u + c * scale
        if isinstance(x, int):
            return acc
        from fractions import Fraction
        return Fraction(acc, scale) if isinstance(x, Fraction) else acc


class ApproxValue(_Value):
    """A rounded numeric result together with how it was produced."""

    __slots__ = ("value", "precision_digits", "terms_used")

    def __init__(self, value: Decimal, precision_digits: int,
                 terms_used: int):
        if precision_digits < 1:
            raise ValueError("precision_digits must be positive")
        if terms_used < 1:
            raise ValueError("terms_used must be positive")
        self._store(value, precision_digits, terms_used)


class ComplexApproxValue(_Value):
    """Rounded complex result; real/imag are decimals at the same precision.

    coefficients_used counts the nonzero Bell-polynomial coefficients the
    exact evaluation combined (at least 1); no series is summed.
    """

    __slots__ = ("real", "imag", "precision_digits", "coefficients_used")

    def __init__(self, real: Decimal, imag: Decimal, precision_digits: int,
                 coefficients_used: int):
        if precision_digits < 1:
            raise ValueError("precision_digits must be positive")
        if coefficients_used < 1:
            raise ValueError("coefficients_used must be positive")
        self._store(real, imag, precision_digits, coefficients_used)


def stirling_recurrence(t: StringType) -> StirlingTable:
    """Build the coefficient table one annihilator (leg) at a time.

    The table is a list row with row[i] = S(lo + i), starting from the
    empty word: S(0) = 1 at excess d = 0.  Each annihilator of each factor,
    read with d the excess of the factors before it, takes one step

        S'(k) = (d + k) S(k) + S(k - 1),    then d -= 1:

    the new leg lands on one of the d + k creators no earlier leg holds, or
    it survives as a free leg.  Over a factor's s' legs, d + k drops by one
    at each landing and stays put at each survival, so a run with j
    survivals multiplies S(k - j) by (d+k-j)(d+k-j-1)... over its s' - j
    landings, (d+k-j)_(s'-j) wherever the survivals fall; C(s', j) runs
    have j survivals, so the factor sends S(k) to
    sum_j C(s',j) (d+k-j)_(s'-j) S(k-j), the paper's per-factor step.  The
    step is the operator x^(1-d) (D+1) x^d, which ``tests/oracles.py``
    applies in the monomial basis, a separate implementation.

    d + k counts free creators, so it is never negative for a nonzero S(k),
    for any type.  Zero entries at the low end are dropped after each leg,
    so the lowest entry is nonzero, and a negative d + lo there means that
    invariant broke: AssertionError, never a silently clamped count.  The
    table is made from the finished row in one step, ``_table_from_row``,
    which checks the row's two ends and its signs once, not key by key.
    """
    row, lo = [1], 0
    for d, s in zip(t.prefix_excesses, t.s):
        for _ in range(s):
            if d + lo < 0:
                raise AssertionError(
                    f"S({lo}) = {row[0]} with {d + lo} free creators")
            row = list(map(add, map(mul, row + [0], count(d + lo)),
                           [0] + row))
            if not row[0]:
                del row[0]
                lo += 1
            d -= 1
    return _table_from_row(t, lo, row)


def _table_from_row(t: StringType, lo: int, row: list[int]) -> StirlingTable:
    # row[i] = S(lo + i), keys ascending by construction: the window is
    # checked on the row's two ends, the signs with one min, and zeros
    # are dropped.  A violation is a broken kernel: AssertionError
    if lo < t.s[0] or lo + len(row) - 1 > t.total_s:
        raise AssertionError(f"keys {lo}..{lo + len(row) - 1} outside the "
                             f"window [{t.s[0]}, {t.total_s}]")
    if min(row) < 0:
        raise AssertionError("coefficients count colonies; got a negative")
    return StirlingTable._made(t, {k: v for k, v in zip(count(lo), row) if v})


def bell_number(t: StringType) -> int:
    """Sum of the Stirling table; also the number of colonies of this type."""
    return stirling_recurrence(t).bell()


@functools.lru_cache(maxsize=32)
def _runs(t: StringType) -> tuple[tuple[int, tuple], ...]:
    # The maximal falling-factorial runs of p, grouped by length:
    # ((len, ((top, mult), ...)), ...) with p(m) the product of
    # (m+top)_len^mult over them.  Factor j puts the linear terms m+v,
    # v = d-s+1..d, into p, so p(m) = prod_v (m+v)^(e_v); each layer
    # {v : e_v >= c} cuts into maximal intervals [top-len+1, top], read in
    # one sweep over the sorted window ends.  The stack holds the open
    # layers' starts, innermost last, as [start, layers]
    steps: dict[int, int] = {}
    for d, s in zip(t.prefix_excesses, t.s):
        steps[d - s + 1] = steps.get(d - s + 1, 0) + 1
        steps[d + 1] = steps.get(d + 1, 0) - 1
    runs: dict[int, list[tuple[int, int]]] = {}
    stack: list[list[int]] = []
    for v in sorted(steps):
        step = steps[v]
        if step > 0:
            stack.append([v, step])
        while step < 0:
            start, layers = stack[-1]
            closed = min(layers, -step)
            runs.setdefault(v - start, []).append((v - 1, closed))
            step += closed
            if closed == layers:
                stack.pop()
            else:
                stack[-1][1] -= closed
    return tuple((length, tuple(tops))
                 for length, tops in sorted(runs.items()))


def _falling_column(lo: int, hi: int, length: int) -> list[int]:
    # (v)_length for v = lo..hi-1; a listed range shares its ints among
    # the windows sliced from it, where a range would make them anew
    if length == 1:
        return list(range(lo, hi))
    column = list(map(math.perm, range(max(lo, 0), hi), repeat(length)))
    if lo < 0:
        column[:0] = map(falling_factorial, range(lo, min(hi, 0)),
                         repeat(length))
    return column


def _settlement_products(t: StringType, lo: int, hi: int) -> list[int]:
    # [p(lo), ..., p(hi - 1)] for p(m) = prod_j (m+d_{j-1})_(s_j), one
    # column per run of _runs.  The runs sharing a length share one column
    # over their windows' hull when it is no longer than the windows
    # together (dense tops); otherwise each run builds just its own window,
    # so a far-off top costs hi-lo values, not a column up to it
    width = hi - lo
    p = [1] * width
    for length, runs in _runs(t):
        top_lo, top_hi = runs[0][0], runs[-1][0]
        shared = top_hi - top_lo <= len(runs) * width
        if shared:
            column = _falling_column(lo + top_lo, hi + top_hi, length)
        for top, mult in runs:
            window = (column[top - top_lo:top - top_lo + width] if shared
                      else _falling_column(lo + top, hi + top, length))
            p = list(map(mul, p, window if mult == 1
                         else map(pow, window, repeat(mult))))
    return p


def _over_factorial(total: int, k: int) -> int:
    # Delta^k p(0) / k!, exact divisibility asserted
    quotient, remainder = divmod(total, math.factorial(k))
    if remainder:
        raise AssertionError(f"difference {total} not divisible by {k}!")
    return quotient


def _require_closed_form_budget(t: StringType) -> None:
    # checked before p is built; _count_text prints a count of any length
    if (differences := (t.total_s + 1) ** 2) > CLOSED_FORM_BUDGET:
        raise TooLarge(f"{_count_text(differences)} differences exceed the "
                       f"closed-form budget of {CLOSED_FORM_BUDGET}")


@functools.lru_cache(maxsize=1)
def _closed_form_row(t: StringType) -> tuple[tuple[int, ...], ...]:
    # (S(0..total_s), p(0..total_s)): the row from one forward-difference
    # table of p, its k-th pass leaving Delta^k p(0) in front, and that p,
    # which selfcheck's settlement leg reads too.  One entry: the traffic
    # that shares a row is calls on one type back to back
    _require_closed_form_budget(t)
    p = products = tuple(_settlement_products(t, 0, t.total_s + 1))
    row = []
    for k in range(t.total_s + 1):
        row.append(_over_factorial(p[0], k))
        p = list(map(sub, p[1:], p[:-1]))
    return tuple(row), products


def stirling_closed_form(t: StringType, k: int) -> int:
    """Single coefficient by inclusion-exclusion over monomial actions:
    (1/k!) sum_m C(k,m)(-1)^(k-m) prod_j (m+d_{j-1})_(s_j), read off its
    type's one closed-form table, which consecutive calls on one type
    share.  A lone call with a small k on a large type pays for the whole
    table (k = 5 on uniform(2,1,1000): about 0.3 s), and a type whose
    table takes more than CLOSED_FORM_BUDGET differences, (sum(s) + 1)^2,
    is refused (TooLarge) before p is built.  The identity holds
    for every type, as ``closed_form_table`` shows, but a negative prefix
    excess is refused (NonCanonicalPrefix) before any work: the benchmark
    still scores that refusal.
    """
    if not t.has_nonnegative_prefixes():
        raise NonCanonicalPrefix(
            f"prefix excesses {t.prefix_excesses} contain a negative entry")
    if not t.s[0] <= k <= t.total_s:
        raise ValueError(f"k={k} outside [{t.s[0]}, {t.total_s}]")
    return _closed_form_row(t)[0][k]


def closed_form_table(t: StringType) -> dict[int, int]:
    """The closed form at every k, zeros omitted, for every type within
    CLOSED_FORM_BUDGET differences (TooLarge past it)."""
    return {k: v for k, v in enumerate(_closed_form_row(t)[0]) if v}


def bell_polynomial(t: StringType) -> BellPolynomial:
    """The polynomial sum_k S(k) x^k; evaluation at 1 is the Bell number."""
    table = stirling_recurrence(t)
    coeffs = [0] * (t.total_s + 1)
    for k, v in table.values.items():
        coeffs[k] = v
    return BellPolynomial(tuple(coeffs))


def _dobinski_numerators(t: StringType) -> Iterator[int]:
    # p(m) for m = s_1, s_1 + 1, ...; times p^m over q^m m! they are the
    # terms p(m) x^m / m! at x = p/q.  p(m) comes in windows of doubling
    # width, so at most half of the values built go unread
    m, width = t.s[0], 16
    while True:
        yield from _settlement_products(t, m, m + width)
        m += width
        width *= 2


def _dobinski_peak(t: StringType) -> tuple[int, float] | None:
    # (m, a proven lower bound on ln(p(m)/m!)) at the largest term of the
    # Dobinski sum at x = 1, in floats; None only where a value does not
    # fit a float.  From m0 = max_j (s_j - d_{j-1}) on, every factor of p is
    # positive and the term ratio p(m+1) / ((m+1) p(m)) = prod_j (1 +
    # s_j/(m+1+d_{j-1}-s_j)) / (m+1) falls as m grows: the terms rise to one
    # peak, the first m from m0 whose ratio is at most 1, found by doubling
    # the step, then halving it.  Robbins (1955): f(n) + 1/(12n+1) < ln n!
    # < f(n) + 1/(12n), n >= 1, f(n) = (n + 1/2) ln n - n + ln(2 pi)/2.  So a
    # factor (x)_s = (x)_s' of p, x = m + d, lo = max(x - s, 1), s' = x - lo,
    # has ln (x)_s' > f(x) - f(lo) + 1/(12x+1) - 1/(12 lo), f(x) - f(lo) =
    # s' ln x + (lo + 1/2) ln(1 + s'/lo) - s', and ln m! < f(n) + 1/(12n), n
    # = max(m, 1).  The N terms are rounded within 2^-50 of themselves, their
    # sum within (N-1) 2^-53 of their magnitudes: N 2^-48 of these covers
    # that and a few roundings after.  A term past floats gives nan
    pairs = [(d, s) for d, s in zip(t.prefix_excesses, t.s) if s]
    m0 = max([0] + [s - d for d, s in pairs])

    def past_peak(m: int) -> bool:
        return (sum(math.log1p(s / (m + 1 + d - s)) for d, s in pairs)
                <= math.log(m + 1))

    try:
        below, above = m0 - 1, m0
        while not past_peak(above):
            below, above = above, 2 * above - m0 + 1
        while above - below > 1:
            mid = (below + above) // 2
            below, above = (below, mid) if past_peak(mid) else (mid, above)
        n = max(above, 1)
        terms = [n, -(n + 0.5) * math.log(n), -1 / (12 * n),
                 -math.log(math.tau) / 2]
        for d, s in pairs:
            x, lo = above + d, max(above + d - s, 1)
            s = x - lo
            terms += [s * math.log(x), (lo + 0.5) * math.log1p(s / lo), -s,
                      1 / (12 * x + 1), -1 / (12 * lo)]
        return above, sum(terms) - len(terms) * 2**-48 * sum(map(abs, terms))
    except OverflowError:
        return None


def dobinski_eval(t: StringType, x, target_digits: int,
                  max_terms: int = DEFAULT_MAX_TERMS) -> ApproxValue:
    """Numerically sum B(x) = e^(-x) sum_{m>=s_1} p(m) x^m / m!.

    With x = P/Q two partial sums are held exactly as integer numerators
    over the common denominator Q^M M!: the Dobinski sum D_M (terms s_1..M)
    and the exponential E_M = sum_{j<=M} x^j / j!.  Each term costs a
    small-int multiply and no gcd, and the value is one decimal division
    D_M / E_M; no exp is evaluated.

    Every type is accepted, whatever the signs of its prefix excesses: the
    proofs below use only p(m) = sum_k S(k) (m)_k, an identity of
    polynomials that the leg-by-leg recurrence proves for any signs, with
    S(k) >= 0 counting colonies and k <= sum(s).

    Stop rule: with room = M+1-sum(s), (m+1)_k / (m)_k = (m+1)/(m+1-k) is
    at most (m+1)/room for m >= M, so every later Dobinski term ratio is
    at most x/room; once x/room <= 1/2 the tail R_D after term M is at
    most 2 * term_M * x/room; summation stops when that bound is below
    eps = 10^-(target_digits+2) of D_M (tested in integers).  x/room <= 1/2
    first holds after sum(s) + ceil(2x) - s_1 terms, so a max_terms below
    that is refused (PrecisionUnreachable) before any term is summed.

    Why D_M / E_M is then within one ulp.  Each (m)_k is nondecreasing in
    m >= 0, so p is nondecreasing.  At the stop D_M > 0, hence p(M) > 0, and
        D_M <= p(M) E_M       (p(m) <= p(M) on every term m <= M),
        R_D >= p(M) R_E       (p(m) >= p(M) on every term m > M),
    with R_E the tail of e^x after M.  So R_E/E_M <= R_D/D_M < eps, and
    B = (D_M + R_D)/(E_M + R_E) satisfies 0 <= B - D_M/E_M < eps B: the
    quotient misses B by a relative error below eps, from below.  The one
    division D_M / E_M is correctly rounded to target_digits: it adds at
    most half a unit in the last place, and eps B is at most a hundredth
    of that unit, so the result is within one unit in the last of its
    target_digits of B.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be positive")
    from fractions import Fraction
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0 or not t.total_s:
        # B(0) = S(0) = p(0), which is 0 unless s_1 = 0; with no feet p = 1,
        # so B(x) = 1 for every x
        p0 = _settlement_products(t, 0, 1)[0]
        return ApproxValue(_rounded(p0, 1, target_digits), target_digits, 1)
    return _dobinski_sum(_dobinski_numerators(t), t.s[0],
                         t.total_s, x, target_digits, max_terms)


@functools.cache
def _exact_context():
    # the decimal Context of unbounded precision and exponent that traps
    # Inexact, so no operation in it can round; built on first use
    from decimal import MAX_EMAX, MAX_PREC, Context, Inexact
    context = Context(prec=MAX_PREC, Emax=MAX_EMAX)
    context.traps[Inexact] = True
    return context


def _exact_decimal(n: int, bits: int = -1,
                   powers: dict[int, Decimal] | None = None) -> Decimal:
    # n exactly, the package's one int-to-Decimal conversion: split n at
    # 2^w, convert both halves and recombine with one multiply-add, which
    # libmpdec does by number-theoretic transform; powers caches each 2^w
    exact = _exact_context()
    if powers is None:
        bits, powers = n.bit_length(), {}
    if bits <= SPLIT_BITS:
        return exact.create_decimal(n)
    w = bits >> 1
    high = n >> w
    if w not in powers:
        powers[w] = exact.power(2, w)
    return exact.add(_exact_decimal(n - (high << w), w, powers),
                     exact.multiply(_exact_decimal(high, bits - w, powers),
                                    powers[w]))


def _rounded(num: int, den: int, digits: int) -> Decimal:
    # num/den (den > 0) rounded half to even to digits significant digits,
    # all shown (2.000, not 2); 0 stays 0.  Every decimal result is made
    # here.  |num|/den lies in (2^(l-1), 2^(l+1)), l the bit lengths'
    # difference: 0.6 decades, so e below (l-1) log10 2 - digits + 1 by
    # 0.2 to 1.2 (a float's error is far smaller) leaves num 10^-e // den
    # digits or digits + 1 digits; only that quotient is converted
    a = abs(num)
    if not a:
        return _exact_decimal(0)
    e = math.floor((a.bit_length() - den.bit_length() - 1) * math.log10(2)
                   - 0.2) - digits + 1
    a, den = (a * 10 ** -e, den) if e < 0 else (a, den * 10 ** e)
    q, r = divmod(a, den)
    top = 10 ** digits
    if q >= top:
        q, last = divmod(q, 10)
        r, den, e = last * den + r, 10 * den, e + 1
    if 2 * r > den or 2 * r == den and q & 1:
        q += 1
        if q == top:
            q, e = q // 10, e + 1
    return _exact_decimal(q if num > 0 else -q).scaleb(
        e, _exact_context())


def _dobinski_sum(products: Iterable[int], m0: int, total_s: int,
                  x: Fraction, target_digits: int,
                  max_terms: int) -> ApproxValue:
    # e^(-x) sum_{m>=m0} p_m x^m / m! for x = p/q > 0, p_m the products from
    # m0 on, as the quotient of two sums over q^m m!: the Dobinski partial
    # acc, and the partial acc_e of e^x, both from m = 0 (products below m0
    # are zero).  Term m adds num = p_m p^m to acc*q*m and p^m to acc_e*q*m,
    # one p^m for both.  The stop rule is dobinski_eval's: both conditions
    # are multiplied through by q^m m!, q, room and 10^(target_digits+2),
    # all positive once the first holds (p > 0), so they are compared in
    # integers; it cannot hold while acc is zero.
    p, q = x.numerator, x.denominator
    # the first condition needs q (M + 1 - total_s) >= 2p, so no stop comes
    # before total_s + ceil(2x) - m0 terms: a lower cap is refused up front
    needed = total_s - (-2 * p // q) - m0
    if needed > max_terms:
        raise PrecisionUnreachable(
            f"the tail bound needs at least {_count_text(needed)} terms, over "
            f"the cap of {max_terms}")
    two_scale_p = 2 * 10 ** (target_digits + 2) * p
    # a*b >= 2^(la+lb-2) for a, b > 0 and c*d < 2^(lc+ld) in bit lengths, so
    # a*b < c*d is false unless la + lb < lc + ld + 2 (num > 0 once acc is)
    scale_bits = two_scale_p.bit_length() - 2
    acc = acc_e = 0
    ppow = 1
    for m, product in enumerate(chain(repeat(0, m0), products)):
        num = product * ppow
        acc = acc * (q * m) + num
        acc_e = acc_e * (q * m) + ppow
        ppow *= p
        q_room = q * (m + 1 - total_s)
        if (2 * p <= q_room and scale_bits + num.bit_length()
                < acc.bit_length() + q_room.bit_length()
                and two_scale_p * num < acc * q_room):
            break
        if m - m0 + 1 >= max_terms:
            raise PrecisionUnreachable(
                f"tail bound still unmet after {max_terms} terms")
    return ApproxValue(_rounded(acc, acc_e, target_digits), target_digits,
                       m - m0 + 1)


def settlement_product(t: StringType, m: int) -> int:
    """prod_j (m+d_{j-1})_(s_j): the number of m-settlements of the type.

    Pure product, no prefix condition.  It equals sum_k S(k) (m)_k for
    every type, by the polynomial identity, and so agrees with
    enumeration whatever the signs of the prefix excesses.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _settlement_products(t, m, m + 1)[0]


def _gaussian_parts(z) -> tuple[Fraction, Fraction]:
    from fractions import Fraction
    if isinstance(z, complex):
        return Fraction(z.real), Fraction(z.imag)
    if isinstance(z, tuple) and len(z) == 2:
        return Fraction(z[0]), Fraction(z[1])
    return Fraction(z), Fraction(0)


def coherent_expectation(t: StringType, z, target_digits: int) -> ComplexApproxValue:
    """Diagonal matrix element between coherent states of amplitude z.

    From the normal form sum_k S(k) (a+)^(k+d) a^k, d the excess, it is
    conj(z)^d B(|z|^2) for d >= 0, B the Bell polynomial, and z^(-d)
    sum_k S(k) |z|^(2(k+d)) for d < 0, whatever the prefix excesses.  z is
    taken apart into exact rational parts (binary floats are rationals),
    evaluated exactly, and rounded once at the end.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be positive")
    zr, zi = _gaussian_parts(z)
    poly, e = bell_polynomial(t), t.excess
    # the phase conj(z)^e, or z^(-e), is (wr + i wi) / den raised to |e| by
    # squaring in integers, where Fractions would take a gcd at every step
    den = math.lcm(zr.denominator, zi.denominator)
    wr, wi = int(zr * den), -int(zi * den)
    if e < 0:  # S(k) = 0 below -e (e + k counts free creators)
        poly, wi, e = BellPolynomial(poly.coeffs[-e:]), -wi, -e
    b = poly.evaluate(zr * zr + zi * zi)
    re, im, den = 1, 0, den ** e * b.denominator
    while e:
        if e & 1:
            re, im = re * wr - im * wi, re * wi + im * wr
        wr, wi, e = wr * wr - wi * wi, 2 * wr * wi, e >> 1
    terms = sum(1 for c in poly.coeffs if c)
    return ComplexApproxValue(_rounded(re * b.numerator, den, target_digits),
                              _rounded(im * b.numerator, den, target_digits),
                              target_digits, max(terms, 1))
