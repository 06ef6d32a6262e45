"""Reference routes that only the tests call: each restates a result of the
package another way, so the tests can compare the two."""

import math
from collections.abc import Iterator
from decimal import Context, Decimal
from fractions import Fraction
from itertools import count

from bosonorder import (ANNIHILATION, CREATION, DEFAULT_ENUM_CAP,
                        BellPolynomial, BosonWord, Colony, StringType,
                        count_colonies_by_free_legs,
                        falling_factorial, stirling_recurrence)


def bell_poly_recursion(prev: BellPolynomial, d_prev: int,
                        s_next: int) -> BellPolynomial:
    """Extend a Bell polynomial by one factor through the differential model.

    New polynomial = x^(s'-d) (D+1)^(s') x^d old, with d the excess before
    the new factor; the factor's creation exponent does not enter it.  This
    is the recurrence's per-factor step in the monomial basis.  Either
    shift may be down, d or s'-d negative: the coefficients it drops must
    be zero (AssertionError if not).
    """
    if s_next < 0:
        raise ValueError("s_next must be nonnegative")
    c = _shifted(list(prev.coeffs), d_prev)
    for _ in range(s_next):
        # (D+1) maps coefficient vector f to f_i + (i+1) f_{i+1}
        c = [c[i] + ((i + 1) * c[i + 1] if i + 1 < len(c) else 0)
             for i in range(len(c))]
    return BellPolynomial(tuple(_shifted(c, s_next - d_prev)))


def _shifted(c: list[int], shift: int) -> list[int]:
    # coefficients of x^shift times the polynomial c
    if shift >= 0:
        return [0] * shift + c
    if any(c[:-shift]):
        raise AssertionError(
            f"shift by x^{shift} hits nonzero low-order coefficients")
    return c[-shift:]


def _classical_stirling2(nmax: int) -> list[list[int]]:
    # rows[n][k] = S2(n,k) from the textbook recurrence, used only as the
    # monomial -> falling-factorial basis change
    rows = [[1]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = prev[k - 1] + (k * prev[k] if k < n else 0)
        rows.append(row)
    return rows


def falling_factorial_expansion(t: StringType) -> dict[int, int]:
    """Coefficients c_k of prod_j (X+d_{j-1})_(s_j) = sum_k c_k (X)_k.

    Expands the product into ordinary monomial coefficients and changes
    basis with the classical Stirling triangle; independent of the
    recurrence, so comparing the result against stirling_recurrence checks
    the polynomial identity coefficient by coefficient.
    """
    ds = t.prefix_excesses
    poly = [1]
    for j in range(t.n):
        for i in range(t.s[j]):
            root = ds[j] - i
            new = [0] * (len(poly) + 1)
            for a, c in enumerate(poly):
                new[a] += root * c
                new[a + 1] += c
            poly = new
    s2 = _classical_stirling2(len(poly) - 1)
    out: dict[int, int] = {}
    for n, c in enumerate(poly):
        if not c:
            continue
        for k in range(n + 1):
            v = c * s2[n][k]
            if v:
                out[k] = out.get(k, 0) + v
    return {k: v for k, v in sorted(out.items()) if v}


def factor_by_factor_product(t: StringType, x: int) -> int:
    """prod_j (x+d_{j-1})_(s_j), one falling factorial per factor."""
    return math.prod(falling_factorial(x + d, s)
                     for d, s in zip(t.prefix_excesses, t.s))


def check_polynomial_identity(t: StringType, x: int) -> bool:
    """Test prod_j (x+d_{j-1})_(s_j) == sum_k S(k) (x)_k at one integer x,
    of either sign."""
    table = stirling_recurrence(t)
    rhs = sum(v * falling_factorial(x, k) for k, v in table.values.items())
    return factor_by_factor_product(t, x) == rhs


def dobinski_terms(t: StringType, x) -> Iterator[Fraction]:
    """Exact terms p(m) x^m / m! of the infinite-series Bell representation,
    starting at m = s_1, where p(m) = prod_j (m+d_{j-1})_(s_j), for any
    type.  Each p(m) is multiplied out factor by factor, apart from the
    windowed kernel that dobinski_eval sums."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be nonnegative")
    return (factor_by_factor_product(t, m) * x ** m / math.factorial(m)
            for m in count(t.s[0]))


def bell_r1_terms(r: int, n: int) -> Iterator[Fraction]:
    """Exact terms of the infinite single-leg sum, for k = 1, 2, ...: the
    printed formula prod_{i=1}^{n-1}(i + k/(r-1)) / (k-1)!, evaluated in
    Fractions."""
    if r < 2:
        raise ValueError("needs r >= 2")
    if n < 1:
        raise ValueError("needs n >= 1")
    return (Fraction(math.prod(i + Fraction(k, r - 1) for i in range(1, n)),
                     math.factorial(k - 1))
            for k in count(1))


def apply_crossing(k: int, l: int) -> list[tuple[int, int]]:
    """Coefficients of a^k (a+)^l = sum_p C(k,p) l!/(l-p)! (a+)^(l-p) a^(k-p).

    Returns the list of (p, coefficient) for p = 0..min(k, l); every
    coefficient is a positive integer.
    """
    if k < 0 or l < 0:
        raise ValueError("exponents must be nonnegative")
    return [(p, math.comb(k, p) * math.perm(l, p)) for p in range(min(k, l) + 1)]


def adjoint_word(word: BosonWord) -> BosonWord:
    """The adjoint of a word: its letters in reverse order, a and a+
    swapped.  The adjoint of (a+)^i a^j is (a+)^j a^i, so the adjoint's
    normal form is the word's transposed: the same coefficients, the excess
    negated."""
    swap = {CREATION: ANNIHILATION, ANNIHILATION: CREATION}
    return BosonWord(swap[letter] for letter in reversed(word.letters))


def adjoint_type(t: StringType) -> StringType:
    """The type of the adjoint word: the factors in reverse order, each
    (a+)^r a^s turned into (a+)^s a^r.  Its excess is t's negated."""
    return StringType(reversed(t.s), reversed(t.r))


def count_surjective_settlements(t: StringType, m: int,
                                 enum_cap: int = DEFAULT_ENUM_CAP) -> int:
    """Count settlements covering all m ground cells: enumerated colonies
    with exactly m free legs, times the m! bijections."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return (count_colonies_by_free_legs(t, enum_cap).get(m, 0)
            * math.factorial(m))


def empty_cells(colony: Colony) -> int:
    """Number of unoccupied body cells, counted directly (not via the
    excess-plus-free-legs identity, which tests check against this)."""
    occupied = {ref for feet in colony.placement for ref in feet
                if ref is not None}
    return colony.type.total_r - len(occupied)


def rounded_by_context(num: int, den: int, digits: int) -> Decimal:
    """num/den (den > 0) to digits significant digits, all shown, by one
    decimal division and a quantize: the package's rounding before it
    divided in integers.  Decimal(int) is quadratic in the digits, and the
    default exponent range bounds the results it can give."""
    ctx = Context(prec=digits)
    value = ctx.divide(Decimal(num), Decimal(den))
    if value:
        value = value.quantize(Decimal(
            (0, (1,), value.adjusted() + 1 - digits)), context=ctx)
    return value
