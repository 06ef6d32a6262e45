"""Pieces shared by every workload: the op record, seeded size draws, the
documented exit-code mapping and the exact-decimal answer check.

Nothing here imports bosonorder at module level: run.py first puts the
checkout's ``src`` on ``sys.path`` so the package under test is the one
imported.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Optional


class WrongAnswer(Exception):
    """An op returned a value that disagrees with its independent route."""


@dataclass
class Op:
    """One request of a workload.

    ``call`` runs the request and returns what the user would receive.
    ``check`` raises WrongAnswer when that value is wrong.  ``refuse`` is the
    documented exit code (2 usage, 1 computational) when the request must be
    refused instead of answered, else None.
    """

    kind: str
    call: Callable[[], object]
    check: Optional[Callable[[object], None]] = None
    refuse: Optional[int] = None


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def strata(rng: random.Random, count: int, lo: float, hi: float,
           log: bool = False) -> list[float]:
    """``count`` draws from [lo, hi], one from each of ``count`` equal slices
    (of log-space when ``log``), in ascending order.

    Stratified draws keep the size mix of a run almost the same from seed to
    seed while every input stays distinct, so p50 and p90 do not jump with
    the seed.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = [a + (b - a) * (i + rng.random()) / count for i in range(count)]
    return [math.exp(v) for v in vals] if log else vals


def exit_code_for(exc: BaseException) -> int:
    """The CLI's documented mapping: parse and usage errors 2, others 1."""
    from bosonorder.errors import LengthMismatch, ParseError
    return 2 if isinstance(exc, (ParseError, LengthMismatch)) else 1


def decimal_ref(value: Fraction, digits: int) -> Decimal:
    """``value`` to ``digits`` + 10 significant digits, for a 1-ulp check."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        return Decimal(value.numerator) / Decimal(value.denominator)


def within_ulp(got: Decimal, ref: Decimal, digits: int) -> bool:
    """True when ``got`` is at most one unit in the last of ``digits``
    significant places away from ``ref``."""
    if ref == 0:
        return got == 0
    with localcontext() as ctx:
        ctx.prec = digits + 20
        ulp = Decimal(10) ** (ref.adjusted() - digits + 1)
        return abs(got - ref) <= ulp


def nonneg_type_exps(rng: random.Random, n: int, choices: tuple[int, ...]):
    """Exponent vectors whose prefix excesses all stay nonnegative."""
    r, s, d = [], [], 0
    for _ in range(n):
        ri = rng.choice(choices)
        si = rng.choice([c for c in choices if c <= d + ri])
        r.append(ri)
        s.append(si)
        d += ri - si
    return tuple(r), tuple(s)


def rand_type_exps(rng: random.Random, n: int, choices: tuple[int, ...]):
    return (tuple(rng.choice(choices) for _ in range(n)),
            tuple(rng.choice(choices) for _ in range(n)))


def general_word(rng: random.Random, length: int):
    """A word of ``length`` letters in alternating runs of 1-3 letters,
    either letter first."""
    from bosonorder import ANNIHILATION, CREATION, BosonWord
    letter = rng.choice((CREATION, ANNIHILATION))
    letters: list = []
    while len(letters) < length:
        letters += [letter] * min(rng.randint(1, 3), length - len(letters))
        letter = ANNIHILATION if letter is CREATION else CREATION
    return BosonWord(tuple(letters))


def recurrence_table(t) -> dict[int, int]:
    from bosonorder import stirling_recurrence
    return dict(stirling_recurrence(t).values)


def bell(t) -> int:
    return sum(recurrence_table(t).values())


def table_to_coeffs(table: dict[int, int], excess: int) -> dict[int, int]:
    """Recurrence table keyed by surviving annihilators k, re-keyed the way
    NormalForm stores it: S(k) multiplies (a+)^(k+d) a^k, whose key is
    min(k+d, k)."""
    shift = min(excess, 0)
    return {k + shift: v for k, v in table.items()}
