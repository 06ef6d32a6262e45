"""Exact normal ordering of words in the boson creation/annihilation operators.

Words live in the algebra generated by a and a+ with a a+ - a+ a = 1.  Normal
ordering rewrites a word as an integer combination of monomials (a+)^i a^j
with every creation operator on the left; all coefficients are exact Python
integers.  Words of constant excess i - j collapse further to a prefix
(a+)^d times a diagonal sum over (a+)^k a^k, which is where the generalized
Stirling coefficients come from.

A word is stored as its runs (a+)^l and a^k, so it costs O(runs) whatever
the exponents; ``BosonWord.letters`` is a view that expands them.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator, Mapping
from itertools import accumulate, chain, repeat
from operator import add, attrgetter, index, mul, sub

from .errors import NegativeExcess


class Letter(enum.Enum):
    """One generator: CREATION is a+, ANNIHILATION is a."""

    CREATION = "ad"
    ANNIHILATION = "a"


CREATION = Letter.CREATION
ANNIHILATION = Letter.ANNIHILATION


class _Value:
    """Base of the package's immutable values.  Each subclass names its
    fields in ``_key``, an attrgetter; two values are equal when they are of
    the same class with equal fields, and hash and print by them.  Each
    ``__init__`` stores the fields with ``object.__setattr__``; after that,
    setting or deleting an attribute raises AttributeError.  Values copy,
    deep-copy and pickle."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"<{type(self).__name__} {self._key(self)!r}>"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        # copy and pickle restore past the frozen __setattr__ from slot
        # state (None, slots)
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class BosonWord(_Value):
    """A finite product of generators, leftmost letter written (and acting) last.

    The only state is ``runs``, the maximal ``(letter, count)`` runs from left
    to right: equal neighbours merge on construction, so equality and hashing
    are those of the letter sequence.  The empty word is the identity.
    """

    __slots__ = ("runs",)
    _key = attrgetter("runs")

    def __init__(self, letters: Iterable[Letter] = ()):
        self._merge((l, 1) for l in letters)

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[Letter, int]]) -> "BosonWord":
        """The word of these ``(letter, count)`` runs, left to right."""
        word = cls.__new__(cls)
        word._merge(runs)
        return word

    def _merge(self, runs: Iterable[tuple[Letter, int]]) -> None:
        merged: list[tuple[Letter, int]] = []
        for letter, count in runs:
            if not isinstance(letter, Letter):
                raise TypeError(f"not a generator: {letter!r}")
            if index(count) < 1:
                raise ValueError(f"run length must be positive, got {count}")
            if merged and merged[-1][0] is letter:
                count += merged.pop()[1]
            merged.append((letter, count))
        object.__setattr__(self, "runs", tuple(merged))

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The word one letter at a time, expanded from the runs."""
        return tuple(chain.from_iterable(repeat(l, c) for l, c in self.runs))

    def __len__(self) -> int:
        return sum(c for _, c in self.runs)

    @property
    def excess(self) -> int:
        """Number of creations minus number of annihilations."""
        return sum(c if l is CREATION else -c for l, c in self.runs)

    def concat(self, other: "BosonWord") -> "BosonWord":
        return BosonWord.from_runs(self.runs + other.runs)


class StringType(_Value):
    """Exponent vectors (r, s) of a word (a+)^r_n a^s_n ... (a+)^r_1 a^s_1.

    Factor 1 is the rightmost factor, i.e. the one applied first.  Every
    exponent is a positive integer except the two boundary ones, s_1 and
    r_n, which may be 0: a word that ends in a+ or starts with a has no
    neighbour factor to give that power to.  So every word, the empty one
    included, has exactly one type.
    """

    __slots__ = ("r", "s", "prefix_excesses")
    _key = attrgetter("r", "s")

    def __init__(self, r: Iterable[int], s: Iterable[int]):
        r = tuple(map(index, r))
        s = tuple(map(index, s))
        if len(r) != len(s):
            raise ValueError("r and s must have the same length")
        if not r:
            raise ValueError("a type needs at least one factor")
        if min(r[-1], s[0]) < 0 or min(r[:-1] + s[1:], default=1) < 1:
            raise ValueError(
                "exponents must be positive, except s_1 and r_n may be 0")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        # d_0..d_n where d_j is the creation surplus of factors 1..j; d_0 = 0
        object.__setattr__(self, "prefix_excesses",
                           tuple(accumulate(map(sub, r, s), initial=0)))

    @classmethod
    def uniform(cls, r: int, s: int, n: int) -> "StringType":
        """The type of ((a+)^r a^s)^n."""
        return cls((r,) * n, (s,) * n)

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def excess(self) -> int:
        return self.prefix_excesses[-1]

    @property
    def total_s(self) -> int:
        return sum(self.s)

    @property
    def total_r(self) -> int:
        return sum(self.r)

    def has_nonnegative_prefixes(self) -> bool:
        return min(self.prefix_excesses) >= 0


class NormalForm(_Value):
    """A normally ordered operator of constant excess.

    ``coeffs[k]`` multiplies (a+)^(k + max(excess, 0)) a^(k + max(-excess, 0)),
    so for nonnegative excess d the operator is
    (a+)^d * sum_k coeffs[k] (a+)^k a^k.  Zero coefficients are not stored;
    holding a dict, a normal form cannot be hashed.
    """

    __slots__ = ("excess", "coeffs")
    _key = attrgetter("excess", "coeffs")

    def __init__(self, excess: int, coeffs: Mapping[int, int]):
        clean = {index(k): c for k, v in sorted(coeffs.items())
                 if (c := index(v))}
        if clean and min(clean) < 0:
            raise ValueError("diagonal degree k must be nonnegative")
        object.__setattr__(self, "excess", excess)
        object.__setattr__(self, "coeffs", clean)

    def monomials(self) -> Iterator[tuple[int, int, int]]:
        """Yield (creation degree, annihilation degree, coefficient)."""
        up = max(self.excess, 0)
        down = max(-self.excess, 0)
        for k, c in self.coeffs.items():
            yield k + up, k + down, c

    def multiply(self, other: "NormalForm") -> "NormalForm":
        """Normally ordered product; excesses add.

        A * B is the sum over B's monomials (a+)^i a^j with coefficient c of
        c * (A (a+)^i) a^j: each run of self's consecutive degrees (so no
        row holds a gap) goes through one (a+)^i step of ``normal_order``'s
        kernel, and a^j only shifts it.
        """
        excess = self.excess + other.excess
        shift = max(-excess, 0)
        coeffs: dict[int, int] = {}
        for lo, row in self._runs():
            for i, j, c in other.monomials():
                new_lo, new = _times_creations(lo, row, i)
                for k, v in enumerate(new, new_lo + j - shift):
                    coeffs[k] = coeffs.get(k, 0) + c * v
        return NormalForm(excess, coeffs)

    def _runs(self) -> list[tuple[int, list[int]]]:
        # (lo, row) for each run of consecutive degrees: row[i] multiplies
        # (a+)^(j + excess) a^j with j = lo + i
        shift = max(-self.excess, 0)
        runs: list[tuple[int, list[int]]] = []
        for k, c in self.coeffs.items():
            if runs and k + shift == runs[-1][0] + len(runs[-1][1]):
                runs[-1][1].append(c)
            else:
                runs.append((k + shift, [c]))
        return runs


def apply_crossing(k: int, l: int) -> list[tuple[int, int]]:
    """Coefficients of a^k (a+)^l = sum_p C(k,p) l!/(l-p)! (a+)^(l-p) a^(k-p).

    Returns the list of (p, coefficient) for p = 0..min(k, l); every
    coefficient is a positive integer.
    """
    if k < 0 or l < 0:
        raise ValueError("exponents must be nonnegative")
    return [(p, math.comb(k, p) * math.perm(l, p)) for p in range(min(k, l) + 1)]


def _collapse(acc: dict[tuple[int, int], int], excess: int) -> NormalForm:
    coeffs: dict[int, int] = {}
    for (i, j), c in acc.items():
        if c == 0:
            continue
        if i - j != excess:
            raise AssertionError("rewriting changed the excess")
        k = min(i, j)
        coeffs[k] = coeffs.get(k, 0) + c
    return NormalForm(excess, coeffs)


def _times_creations(lo: int, row: list[int], l: int) -> tuple[int, list[int]]:
    """Right-multiply a row by (a+)^l; returns the new (lo, row).

    The row holds (a+)^(j + e) a^j for j = lo, lo + 1, ...; the product has
    excess e + l.  Each term crosses as
    a^j (a+)^l = sum_p C(l,p) (j)_p (a+)^(l-p) a^(j-p), the coefficient of
    ``apply_crossing`` (C(j,p) (l)_p = C(l,p) (j)_p), and every p is one
    vector pass: p = 0 is the row shifted, and the weights (j)_p of pass p
    are those of pass p - 1 times j - p + 1.
    """
    top = lo + len(row)  # one past the highest annihilation degree
    new_lo = max(lo - l, 0)
    new = [0] * (lo - new_lo) + row
    weighted, start = row, lo  # weighted[j - start] = row[j - lo] * (j)_p
    for p in range(1, min(l, top - 1) + 1):
        if start < p:  # (p - 1)_p = 0: that term has nothing left to cross
            weighted, start = weighted[1:], p
        weighted = list(map(mul, weighted, range(start - p + 1, top - p + 1)))
        a = start - p - new_lo
        b = a + len(weighted)
        new[a:b] = map(add, new[a:b],
                       map(mul, weighted, repeat(math.comb(l, p))))
    return new_lo, new


def _from_row(excess: int, lo: int, row: list[int]) -> NormalForm:
    shift = max(-excess, 0)
    return NormalForm(excess, {j - shift: c for j, c in enumerate(row, lo)})


def _rewrite_letterwise(word: BosonWord) -> dict[tuple[int, int], int]:
    # one commutator at a time: ... a a+ ... -> ... a+ a ... + ... (drop) ...
    # exponential blowup, only useful as a cross-check on short words
    pending: dict[tuple[Letter, ...], int] = {word.letters: 1}
    acc: dict[tuple[int, int], int] = {}
    while pending:
        nxt: dict[tuple[Letter, ...], int] = {}
        for letters, coeff in pending.items():
            pos = next(
                (t for t in range(len(letters) - 1)
                 if letters[t] is ANNIHILATION and letters[t + 1] is CREATION),
                None,
            )
            if pos is None:
                i = sum(1 for l in letters if l is CREATION)
                j = len(letters) - i
                acc[(i, j)] = acc.get((i, j), 0) + coeff
            else:
                swapped = letters[:pos] + (CREATION, ANNIHILATION) + letters[pos + 2:]
                dropped = letters[:pos] + letters[pos + 2:]
                nxt[swapped] = nxt.get(swapped, 0) + coeff
                nxt[dropped] = nxt.get(dropped, 0) + coeff
        pending = nxt
    return acc


def normal_order(word: BosonWord, method: str = "blockwise") -> NormalForm:
    """Rewrite a word into its normal form with exact integer coefficients.

    ``method="blockwise"`` is the default.  It carries the product of the
    runs read so far as one row of coefficients, ``row[i]`` multiplying
    (a+)^(j + e) a^j with j = lo + i at the running excess e, so every
    term's degrees follow from its place.  An a^k run only moves the indices
    (lo and e); an (a+)^l run clears the block boundary with the crossing
    formula, one vector pass over the row per crossing depth p.
    ``method="letterwise"`` applies the commutation relation one letter pair
    at a time; it is exponential and exists only as an independent oracle.
    Both give the same normal form.
    """
    if method == "blockwise":
        excess, lo, row = 0, 0, [1]
        for letter, count in word.runs:
            if letter is CREATION:
                lo, row = _times_creations(lo, row, count)
                excess += count
            else:
                lo += count
                excess -= count
        return _from_row(excess, lo, row)
    if method == "letterwise":
        return _collapse(_rewrite_letterwise(word), word.excess)
    raise ValueError(f"unknown method {method!r}")


def word_from_type(t: StringType) -> BosonWord:
    """The word (a+)^r_n a^s_n ... (a+)^r_1 a^s_1; factor 1 ends up rightmost.
    Zero exponents (s_1, r_n) give no run."""
    return BosonWord.from_runs(
        run for ri, si in zip(reversed(t.r), reversed(t.s))
        for run in ((CREATION, ri), (ANNIHILATION, si)) if run[1])


def type_from_word(word: BosonWord) -> StringType:
    """Inverse of word_from_type.

    The runs alternate, so they pair into factors once an empty creation
    run is put in front of a leading a (r_n = 0) and an empty annihilation
    run after a trailing a+ (s_1 = 0); the empty word is ((0,), (0,)).
    """
    counts = [c for _, c in word.runs]
    if not word.runs or word.runs[0][0] is ANNIHILATION:
        counts.insert(0, 0)
    if len(counts) % 2:
        counts.append(0)
    return StringType(counts[-2::-2], counts[::-2])


def extract_stirling(form: NormalForm) -> tuple[int, dict[int, int]]:
    """Split a normal form into (excess d, diagonal coefficient table).

    Only defined for nonnegative excess, where the operator reads
    (a+)^d sum_k S(k) (a+)^k a^k; the returned table maps k to S(k) and
    omits zeros.
    """
    if form.excess < 0:
        raise NegativeExcess(
            f"excess {form.excess} < 0: no creation prefix to factor out")
    return form.excess, dict(form.coeffs)

