"""Reference routes that only the tests call: each restates a result of the
package another way, so the tests can compare the two."""

import math

from bosonorder import (BellPolynomial, Colony, NonCanonicalPrefix,
                        StringType, falling_factorial, stirling_recurrence)


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


def check_polynomial_identity(t: StringType, x: int) -> bool:
    """Test prod_j (x+d_{j-1})_(s_j) == sum_k S(k) (x)_k at one integer x,
    of either sign."""
    lhs = math.prod(falling_factorial(x + d, s)
                    for d, s in zip(t.prefix_excesses, t.s))
    table = stirling_recurrence(t)
    rhs = sum(v * falling_factorial(x, k) for k, v in table.values.items())
    return lhs == rhs


def empty_cells(colony: Colony) -> int:
    """Number of unoccupied body cells, counted directly (not via the
    excess-plus-free-legs identity, which tests check against this)."""
    occupied = {ref for feet in colony.placement for ref in feet
                if ref is not None}
    return colony.type.total_r - len(occupied)
