"""Reference routes that only the tests call: each restates a result of the
package another way, so the tests can compare the two."""

import math

from bosonorder import (BellPolynomial, NonCanonicalPrefix, StringType,
                        falling_factorial, stirling_recurrence)


def bell_poly_recursion(prev: BellPolynomial, d_prev: int,
                        s_next: int) -> BellPolynomial:
    """Extend a Bell polynomial by one factor through the differential model.

    New polynomial = x^(s'-d) (D+1)^(s') x^d old, with d the excess before
    the new factor; the factor's creation exponent does not enter it.  This
    is the recurrence's per-factor step in the monomial basis.
    """
    if d_prev < 0:
        raise NonCanonicalPrefix(f"excess before the new factor is {d_prev}")
    if s_next < 0:
        raise ValueError("s_next must be nonnegative")
    c = [0] * d_prev + list(prev.coeffs)
    for _ in range(s_next):
        # (D+1) maps coefficient vector f to f_i + (i+1) f_{i+1}
        c = [c[i] + ((i + 1) * c[i + 1] if i + 1 < len(c) else 0)
             for i in range(len(c))]
    shift = s_next - d_prev
    if shift >= 0:
        c = [0] * shift + c
    else:
        # x^d old vanishes below degree d and each (D+1) lowers that by at
        # most one, so the coefficients shifted out are zero
        if any(c[:-shift]):
            raise AssertionError(
                f"shift by x^{shift} hits nonzero low-order coefficients")
        c = c[-shift:]
    return BellPolynomial(tuple(c))


def check_polynomial_identity(t: StringType, x: int) -> bool:
    """Test prod_j (x+d_{j-1})_(s_j) == sum_k S(k) (x)_k at one integer x,
    of either sign."""
    lhs = math.prod(falling_factorial(x + d, s)
                    for d, s in zip(t.prefix_excesses, t.s))
    table = stirling_recurrence(t)
    rhs = sum(v * falling_factorial(x, k) for k, v in table.values.items())
    return lhs == rhs
