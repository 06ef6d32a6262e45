"""Truncated exponential generating functions stored as integer counts, and
the tree/forest series of the single-leg uniform case.

A series of order N holds the counts n! * a_n for n = 0..N as Python ints;
the ordinary coefficients a_n are read back as fractions on demand.  Products
of such series are binomial convolutions of their counts, so every
construction below runs in integers without a single division.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate

from .algebra import _Value
from .errors import DEFAULT_MAX_TERMS

EGF = "egf"


class PowerSeries(_Value):
    """Truncated EGF sum_n counts[n] x^n / n!: counts[n] objects at size n."""

    __slots__ = ("counts",)
    convention = EGF

    def __init__(self, counts: Iterable[int]):
        counts = tuple(map(operator.index, counts))
        if not counts:
            raise ValueError("a series carries at least its constant term")
        self._store(counts)

    @property
    def order(self) -> int:
        return len(self.counts) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Ordinary coefficients a_n = counts[n] / n!."""
        facts = accumulate(range(1, len(self.counts)), operator.mul, initial=1)
        return tuple(Fraction(c, f) for c, f in zip(self.counts, facts))


def _binomial_weights(f, n: int) -> list[int]:
    # C(n,i) f_i for i = 0..n; their dot product with g_n, ..., g_0 is the
    # n-th count of the product of the EGFs with counts f and g
    return [math.comb(n, i) * f[i] for i in range(n + 1)]


def series_exp(f: PowerSeries) -> PowerSeries:
    """exp of a series with zero constant term, via g' = f'g: in counts,
    g_(n+1) = sum_i C(n,i) f_(i+1) g_(n-i)."""
    if f.counts[0]:
        raise ValueError(f"constant term {f.counts[0]} is not zero")
    derivative = f.counts[1:]
    g = [1]
    for n in range(f.order):
        g.append(sum(map(operator.mul, _binomial_weights(derivative, n),
                         reversed(g))))
    return PowerSeries(tuple(g))


def tree_series(r: int, order: int) -> PowerSeries:
    """EGF of increasing r-ary planar trees, built from y' = y^r, y(0) = 1.

    In counts the equation reads t_(n+1) = (y^r)_n; one running row per power
    y^k, k = 2..r, extends each row by one binomial convolution with y."""
    if r < 2:
        raise ValueError("the tree equation needs r >= 2; r = 1 is the "
                         "ordinary Bell case handled elsewhere")
    if order < 0:
        raise ValueError("order must be nonnegative")
    t = [1]
    powers = [t] + [[] for _ in range(r - 1)]  # counts of y^1 .. y^r so far
    for n in range(order):
        weights = _binomial_weights(t, n)
        for lower, row in zip(powers, powers[1:]):
            row.append(sum(map(operator.mul, weights, reversed(lower))))
        t.append(powers[-1][n])
    return PowerSeries(tuple(t))


def tree_series_closed_form(r: int, order: int) -> PowerSeries:
    """Same series from the binomial expansion of (1-(r-1)x)^(1/(1-r)): its
    n-th count n! C(-1/(r-1), n) (-(r-1))^n is prod_{j<n} (1 + j(r-1))."""
    if r < 2:
        raise ValueError("closed form is singular at r = 1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    counts = [1]
    for j in range(order):
        counts.append(counts[-1] * (1 + j * (r - 1)))
    return PowerSeries(tuple(counts))


def forest_egf(r: int, order: int) -> PowerSeries:
    """EGF of increasing r-ary planar forests: exp(T_r(x) - 1)."""
    t = tree_series(r, order)
    return series_exp(PowerSeries((0,) + t.counts[1:]))


def _bell_r1_numerators(r: int, n: int) -> Iterator[int]:
    # q(k) = prod_{i<n} (i(r-1) + k) for k = 1, 2, ...: the p(k) of the type
    # uniform(r,1,n), so q(k)/k! is (r-1)^(n-1) times bell_r1_numeric's
    # k-th term
    k = 1
    while True:
        yield math.prod(range(k, k + n * (r - 1), r - 1))
        k += 1


def bell_r1_numeric(r: int, n: int, target_digits: int,
                    max_terms: int = DEFAULT_MAX_TERMS) -> ApproxValue:
    """Numeric single-leg uniform Bell number from the explicit k-sum.

    Its k-th term, k = 1, 2, ..., is prod_{i=1}^{n-1}(i + k/(r-1)) / (k-1)!:
    the gamma-function ratio in the printed formula reduces to this
    rational rising product, so no transcendental evaluation is needed.
    (r-1)^(n-1) times the k-th term is q(k)/k! with the integer
    q(k) = prod_{i<n}(i(r-1) + k), the Dobinski term p(k)/k! at x = 1 of the
    type uniform(r,1,n), whose s-exponents sum to n.  So the sum runs in
    dobinski_eval's integer kernel with x = 1 and first term k = 1: it
    stops on the same proven tail bound, divides by the partial sum of e
    summed alongside, and is within one ulp by the proof in that docstring.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be positive")
    if r < 2:
        raise ValueError("needs r >= 2")
    if n < 1:
        raise ValueError("needs n >= 1")
    # stirling loads here, so the series alone never compile it
    from .stirling import _dobinski_sum
    return _dobinski_sum(_bell_r1_numerators(r, n), 1, n, Fraction(1),
                         target_digits, max_terms)
