"""Exact normal ordering of words in the boson creation/annihilation operators.

Words live in the algebra generated by a and a+ with a a+ - a+ a = 1.  Normal
ordering rewrites a word as an integer combination of monomials (a+)^i a^j
with every creation operator on the left; all coefficients are exact Python
integers.  Words of constant excess i - j collapse further to a prefix
(a+)^d times a diagonal sum over (a+)^k a^k, which is where the generalized
Stirling coefficients come from.

A word is stored as its runs (a+)^l and a^k, so it costs O(runs) whatever
the exponents; ``BosonWord.letters`` is a view that expands them.  Normal
ordering folds the runs into one row of coefficients, and each creator run
crosses it in ``_times_creations``: a short run (at most 3 creators, or at
most as many as the row has entries) one creator per pass, a longer one by
the crossing formula, whose passes number at most the row's top degree, not
the run's length.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator, Mapping
from itertools import accumulate, chain, count, repeat
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
    fields once, in ``__slots__``, and three hooks read them from there:
    ``__init_subclass__`` makes ``_key``, the attrgetter of the slots, unless
    the class names its own; ``_store(*values)`` writes the slots in order
    past the frozen ``__setattr__``, as each ``__init__`` does; and
    ``_made(*values)`` builds a value from fields a kernel has already put
    in canonical form, storing them without ``__init__``'s checks.  Two
    values are equal when they are of the same class with equal keys, and
    hash and print by them; setting or deleting an attribute raises
    AttributeError.  Values copy, deep-copy and pickle."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_key" not in vars(cls):
            cls._key = attrgetter(*cls.__slots__)

    def _store(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _made(cls, *values):
        value = object.__new__(cls)
        value._store(*values)
        return value

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
        self._store(tuple(merged))

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


class StringType(_Value):
    """Exponent vectors (r, s) of a word (a+)^r_n a^s_n ... (a+)^r_1 a^s_1.

    Factor 1 is the rightmost factor, i.e. the one applied first.  Every
    exponent is a positive integer except the two boundary ones, s_1 and
    r_n, which may be 0: a word that ends in a+ or starts with a has no
    neighbour factor to give that power to.  So every word, the empty one
    included, has exactly one type.
    """

    # the key leaves out prefix_excesses, which r and s determine
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
        # d_0..d_n where d_j is the creation surplus of factors 1..j; d_0 = 0
        self._store(r, s, tuple(accumulate(map(sub, r, s), initial=0)))

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

    def __init__(self, excess: int, coeffs: Mapping[int, int]):
        clean = {index(k): c for k, v in sorted(coeffs.items())
                 if (c := index(v))}
        if clean and min(clean) < 0:
            raise ValueError("diagonal degree k must be nonnegative")
        self._store(excess, clean)

    def monomials(self) -> Iterator[tuple[int, int, int]]:
        """Yield (creation degree, annihilation degree, coefficient)."""
        up = max(self.excess, 0)
        down = max(-self.excess, 0)
        for k, c in self.coeffs.items():
            yield k + up, k + down, c


def _collapse(acc: dict[tuple[int, int], int], excess: int) -> NormalForm:
    coeffs: dict[int, int] = {}
    for (i, j), c in acc.items():
        if i - j != excess:
            raise AssertionError("rewriting changed the excess")
        k = min(i, j)
        coeffs[k] = coeffs.get(k, 0) + c
    return NormalForm(excess, coeffs)


# the longest creator run that crosses one creator per pass on any row
_SHORT_RUN = 3


def _times_creations(lo: int, row: list[int], l: int) -> tuple[int, list[int]]:
    """Right-multiply a row by (a+)^l; returns the new (lo, row).

    The row holds (a+)^(j + e) a^j for j = lo, lo + 1, ...; the product has
    excess e + l.  How the run crosses depends on its length l and on the
    row's width w = len(row):

    - A short run, l <= _SHORT_RUN or l <= w, crosses one creator per pass.
      By a^j a+ = a+ a^j + j a^(j-1), each pass builds one new list,
      new[j] = row[j] + (j + 1) row[j + 1] over the degrees j; the row gains
      a term while lo > 0.
    - A long run keeps the crossing formula,
      a^j (a+)^l = sum_p C(l,p) (j)_p (a+)^(l-p) a^(j-p), one vector pass
      per crossing depth p: p = 0 is the row shifted, and the weights
      (j)_p of pass p are those of pass p - 1 times j - p + 1.

    Single passes take about l (w + l/2) steps of one multiply and one add.
    The formula takes at most min(l, lo + w - 1) passes of w steps, each
    with two multiplies and lists of its own, so it wins where l is well
    above w: single passes are quadratic in l on a one-term row, as in
    a^3000 (a+)^3000.  An in-process grid of both kernels set the rule:
    single passes were faster up to l = 3 on a one-term row and up to about
    l = w on wider ones.  The row is taken over, not copied: the caller
    drops it.
    """
    if l <= _SHORT_RUN or l <= len(row):
        for _ in range(l):
            edge = row[-1]
            inner = map(add, row, map(mul, range(lo + 1, lo + len(row)),
                                      row[1:]))
            if lo:  # the new lowest degree, lo - 1, holds lo row[0] only
                row = [lo * row[0], *inner, edge]
                lo -= 1
            else:
                row = [*inner, edge]
        return lo, row
    top = lo + len(row)  # one past the highest annihilation degree
    new_lo = max(lo - l, 0)
    new = [0] * (lo - new_lo) + row if lo else row
    weighted, start = row, lo  # weighted[j - start] = row[j - lo] * (j)_p
    for p in range(1, min(l, top - 1) + 1):
        if start < p:  # (p - 1)_p = 0: that term has nothing left to cross
            weighted, start = weighted[1:], p
        a = start - p - new_lo
        b = a + top - start
        terms = map(mul, weighted, range(start - p + 1, top - p + 1))
        if p < l:  # at p = l, C(l,l) = 1 and no later pass reads weighted
            weighted = list(terms)
            terms = map(mul, weighted, repeat(math.comb(l, p)))
        new[a:b] = map(add, new[a:b], terms)
    return new_lo, new


def _from_row(excess: int, lo: int, row: list[int]) -> NormalForm:
    # keys j - shift count from lo - shift, ascending; lo + excess, the
    # lowest creation degree, is never negative, so neither is a key
    shift = max(-excess, 0)
    if lo < shift:
        raise AssertionError(f"degree {lo - shift} < 0 in a normal form")
    return NormalForm._made(
        excess, {k: c for k, c in zip(count(lo - shift), row) if c})


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
    (lo and e); an (a+)^l run clears the block boundary in
    ``_times_creations``, which picks its kernel per run: a short one (l <= 3
    or l <= len(row)) crosses one creator per pass, a longer one keeps the
    crossing formula, one vector pass per crossing depth p, as single
    passes over a narrow row would be quadratic in l.  The normal
    form is made from the final row in one step, ``_from_row``: its keys
    ascend by construction, so only the lowest degree is checked.
    ``method="letterwise"`` applies the commutation relation one letter pair
    at a time; it is exponential and exists only as an independent oracle.
    Both give the same normal form.
    """
    if method == "blockwise":
        excess, lo, row = 0, 0, [1]
        for letter, length in word.runs:
            if letter is CREATION:
                lo, row = _times_creations(lo, row, length)
                excess += length
            else:
                lo += length
                excess -= length
        return _from_row(excess, lo, row)
    if method == "letterwise":
        return _collapse(_rewrite_letterwise(word), word.excess)
    raise ValueError(f"unknown method {method!r}")


def word_from_type(t: StringType) -> BosonWord:
    """The word (a+)^r_n a^s_n ... (a+)^r_1 a^s_1; factor 1 ends up rightmost.
    Zero exponents (s_1, r_n) give no run.  The type has checked every
    exponent and only those two may be 0, so the runs alternate as built
    and need no merging."""
    runs = [None] * (2 * t.n)
    runs[::2] = zip(repeat(CREATION), reversed(t.r))
    runs[1::2] = zip(repeat(ANNIHILATION), reversed(t.s))
    if not t.s[0]:
        del runs[-1]
    if not t.r[-1]:
        del runs[0]
    return BosonWord._made(tuple(runs))


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

