"""Brute-force combinatorics: bugs, colonies, settlements, increasing forests.

Everything here enumerates structures directly from their definitions and is
deliberately independent of the algebraic formulas it is used to verify.
Counts are exact; enumeration order is canonical and deterministic so golden
outputs stay byte-stable.

Colonies come from one iterative depth-first walk over integer cell ids
with a bitmask of occupied cells.  It does not recurse, so no type is too
deep for it.  One step per placement of all feet but the last two hands
over the cells those two may take as masks near within far: one tally
counts the pair from the masks' bit counts, selfcheck tests the held
cells against both masks once, and the listing takes one colony at a
time.  Foot last-2, the deepest foot the walk places, steps through the
ground and its free cells in one inner loop, each a step, so only a
deeper backtrack pays for the general back-up and descent.  Reading only
occupied cells, never the excess or S(k), the walk stays independent of
the recurrence.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import accumulate, repeat

from .algebra import StringType, _Value
from .errors import TooLarge, _count_text
from .stirling import _dobinski_peak, bell_number, settlement_product

DEFAULT_ENUM_CAP = 10_000_000

# a foot sits either on the ground (None) or in cell c of an earlier bug i,
# both indices 1-based
CellRef = tuple[int, int]
Placement = CellRef | None


class Colony(_Value):
    """A placement of every bug's feet; placement[j-1][f] is the target of
    foot f of bug j.  Feet may only grab cells of strictly earlier bugs,
    one foot per cell; bug 1 therefore stands fully on the ground."""

    __slots__ = ("type", "placement")

    def __init__(self, type: StringType,
                 placement: Iterable[Iterable[Placement]]):
        placement = tuple(tuple(feet) for feet in placement)
        t = type
        if len(placement) != t.n:
            raise ValueError("one placement tuple per bug required")
        seen: set[CellRef] = set()
        for j, feet in enumerate(placement, start=1):
            if len(feet) != t.s[j - 1]:
                raise ValueError(f"bug {j} must place exactly {t.s[j - 1]} feet")
            for ref in feet:
                if ref is None:
                    continue
                i, c = ref
                if not 1 <= i < j:
                    raise ValueError(f"bug {j} may only use earlier bugs, got {ref}")
                if not 1 <= c <= t.r[i - 1]:
                    raise ValueError(f"bug {i} has no cell {c}")
                if ref in seen:
                    raise ValueError(f"cell {ref} occupied twice")
                seen.add(ref)
        self._store(t, placement)


# The colonies of a type number B, its Bell number.  Two bounds decide the
# cap for most types without computing B, and only the rest count it.
#
# Upper: B <= prod_j (1 + R_j)^(s_j), R_j = r_1 + ... + r_(j-1).  A colony
# is fixed by the target of each foot, and a foot of bug j stands on the
# ground or on one of the R_j cells of the bugs before it: at most 1 + R_j
# choices per foot.  A type whose product and sum(s) are both at most the
# cap is accepted; sum(s) too, because the walk holds one entry per foot.
#
# Lower: B > p(m) / (3 m!) for every m >= 0 with p(m) > 0.  By Dobinski at
# x = 1, B = e^-1 sum_(m>=0) p(m)/m!, where p(m) = sum_k S(k) (m)_k and
# S(k) >= 0 count colonies, so no term is negative and each bounds e B
# from below; e < 3.  So p(m) > 3 cap m! proves B > cap, and the refusal
# names L = p(m) // (3 m!) < B.  m is the largest term's, placed in floats
# (stirling._dobinski_peak); only this comparison decides, in integers.
def _under_upper_bound(t: StringType, cap: int) -> bool:
    # prod_j (1 + R_j)^(s_j) <= cap, exiting early.  A bug with no cells
    # before it gives a factor 1, and (1 + R)^s >= 2^(s (bits(1 + R) - 1)),
    # so a power that reaches cap's bit length is over it before it is
    # raised: no power is built past twice cap's bits
    bits, bound = cap.bit_length(), 1
    for below, s in zip(accumulate(t.r, initial=0), t.s):
        if below:
            base = below + 1
            if s * (base.bit_length() - 1) >= bits:
                return False
            bound *= base ** s
            if bound > cap:
                return False
    return True


def _require_under_cap(t: StringType, enum_cap: int,
                       what: str = "colonies") -> None:
    # the type's colonies against the cap: accepted under the upper bound,
    # refused over the lower one, and counted by the recurrence otherwise
    if t.total_s <= enum_cap and _under_upper_bound(t, enum_cap):
        return
    peak = _dobinski_peak(t)
    if peak and peak[1] > math.log(3 * enum_cap):
        m = peak[0]
        floor = 3 * math.factorial(m)
        if (p := settlement_product(t, m)) > enum_cap * floor:
            raise TooLarge(f"more than {_count_text(p // floor)} {what} "
                           f"exceed the cap of {enum_cap}")
    if (predicted := bell_number(t)) > enum_cap:
        raise TooLarge(f"{_count_text(predicted)} {what} exceed the cap of "
                       f"{enum_cap}")


def free_legs(colony: Colony) -> int:
    """Number of feet standing on the ground."""
    return sum(1 for feet in colony.placement for ref in feet if ref is None)


def _walk(t: StringType, held: list[int],
          changed: list[int]) -> Iterator[tuple[int, int, int]]:
    # Depth-first walk over the flattened feet, one level per foot, without
    # recursion.  Cells are numbered 0..total_r-1 in (bug, cell) order and
    # foot f may take ground or any free cell of an earlier bug, i.e. an id
    # below the cell count of the bugs before its own.  A cell is held as
    # its bit 1 << id (ground as 0), the occupied cells as one int mask.
    # One yield per placement of all feet but the last two: (ground, near,
    # far), the number of those feet on the ground and the masks of cells
    # feet last-1 and last may take; reach never shrinks, so near is within
    # far.  Foot last-1 on the ground, then on each bit of near, each time
    # with foot last on the ground, then on each bit of far left free, is
    # the lexicographic order of the flattened choices.  For f < last-1,
    # held[f] is foot f's choice and changed[0] the first foot that moved.
    # Foot last-2, the deepest the walk places, takes its options in one
    # inner loop: the ground, then each free cell, one yield each; only a
    # deeper backtrack runs the general back-up and descent
    reach = [(1 << below) - 1 for below, s in
             zip(accumulate(t.r, initial=0), t.s) for _ in range(s)]
    stop = len(held) - 2
    changed[0] = 0
    if stop < 0:
        # fewer than two feet: each missing one is a ground foot counted -1
        yield stop, 0, reach[-1] if reach else 0
        return
    near, far = reach[stop], reach[stop + 1]
    if not stop:
        yield 0, near, far
        return
    last = stop - 1
    options = reach[last]
    rest = [0] * last
    occupied = ground = level = 0
    while True:
        # descend on ground feet down to foot last-2
        while level < last:
            rest[level] = reach[level] & ~occupied
            held[level] = 0
            ground += 1
            level += 1
        held[last] = 0
        free_near, free_far = near & ~occupied, far & ~occupied
        yield ground + 1, free_near, free_far
        # reach never shrinks, so a free cell of foot last-2 is a bit of
        # both free masks: taking it clears that bit
        free = options & ~occupied
        changed[0] = last
        while free:
            bit = free & -free
            free ^= bit
            held[last] = bit
            yield ground, free_near ^ bit, free_far ^ bit
        # back up to the deepest level above with an option left, take it
        level = last - 1
        while level >= 0:
            bit = held[level]
            if bit:
                occupied ^= bit
            else:
                ground -= 1
            free = rest[level]
            if free:
                bit = free & -free
                rest[level] = free ^ bit
                held[level] = bit
                occupied |= bit
                changed[0] = level
                level += 1
                break
            level -= 1
        else:
            return


# the walk builds valid colonies only: _colony skips __init__'s checks and
# writes the slots through their own setters, the cheapest way per colony
_set_type = Colony.type.__set__
_set_placement = Colony.placement.__set__


def _colony(t: StringType,
            placement: tuple[tuple[Placement, ...], ...]) -> Colony:
    colony = object.__new__(Colony)
    _set_type(colony, t)
    _set_placement(colony, placement)
    return colony


def _colony_stream(t: StringType) -> Iterator[Colony]:
    # the target of a foot holding bit, read at ref[bit.bit_length()]: the
    # cell of id i sits at i + 1, the ground at 0.  No foot reaches the last
    # bug's cells, and the last bug's feet reach every earlier one, so the
    # enumeration cap bounds this list too
    ref: list[Placement] = [None]
    for i, r in enumerate(t.r[:-1], start=1):
        ref += [(i, c) for c in range(1, r + 1)]
    spans = []
    bug_of = []
    for j, s in enumerate(t.s):
        spans.append((len(bug_of), len(bug_of) + s))
        bug_of += [j] * s
    # a bug's feet tuple is rebuilt only when one of its feet moved, so
    # colonies share the tuples of the bugs they agree on.  Only s_1 may be
    # 0, so the last foot is the last bug's, and foot last-1 is that bug's
    # or the bug before's last: the head of its bug is built once a yield
    bugs: list[tuple[Placement, ...]] = [()] * t.n
    if len(bug_of) < 2:  # no feet, or the last bug's one foot on each target
        for feet in zip(ref) if bug_of else [()]:
            bugs[-1] = feet
            yield _colony(t, tuple(bugs))
        return
    held = [0] * t.total_s
    changed = [0]
    cell = ref.__getitem__
    stop = len(held) - 2
    pair_bug = bug_of[stop]
    first, split = spans[pair_bug][0], pair_bug < t.n - 1
    # the last two feet step through their masks shifted up one bit, bit 0
    # for the ground: the target of bit b is ref[b.bit_length() - 1]
    for _, near, far in _walk(t, held, changed):
        for j in range(bug_of[changed[0]], pair_bug):
            a, z = spans[j]
            bugs[j] = tuple(map(cell, map(int.bit_length, held[a:z])))
        head = tuple(map(cell, map(int.bit_length, held[first:stop])))
        xs = near << 1 | 1
        while xs:
            x = xs & -xs
            xs ^= x
            feet = head + (ref[x.bit_length() - 1],)
            if split:
                bugs[pair_bug] = feet
                feet = ()
            ys = (far & ~(x >> 1)) << 1 | 1
            while ys:
                y = ys & -ys
                ys ^= y
                bugs[-1] = feet + (ref[y.bit_length() - 1],)
                yield _colony(t, tuple(bugs))


def enumerate_colonies(t: StringType,
                       enum_cap: int = DEFAULT_ENUM_CAP) -> Iterator[Colony]:
    """Every colony of the type, exactly once, in canonical order."""
    _require_under_cap(t, enum_cap)
    return _colony_stream(t)


def _tally(t: StringType, walk: Iterable) -> dict[int, int]:
    # the free-leg histogram from the yields of a walk over t's colonies;
    # one spare entry: a feetless type adds 0 at ground -2
    counts = [0] * (t.total_s + 2)
    for ground, near, far in walk:
        counts[ground + 2] += 1
        counts[ground + 1] += (a := near.bit_count()) + (b := far.bit_count())
        counts[ground] += a * (b - 1)
    return {k: v for k, v in enumerate(counts) if v}


def _settlement_sum(hist: dict[int, int], m: int) -> int:
    # sum_k h_k (m)_k, the m-settlements of the colonies h counts
    return sum(v * math.perm(m, k) for k, v in hist.items())


def count_colonies_by_free_legs(t: StringType,
                                enum_cap: int = DEFAULT_ENUM_CAP) -> dict[int, int]:
    """Histogram of colonies by free-leg count: per placement of all feet
    but the last two, the pair counted from its cell masks near within far."""
    _require_under_cap(t, enum_cap)
    return _tally(t, _walk(t, [0] * t.total_s, [0]))


def enumerate_settlements(t: StringType, m: int,
                          enum_cap: int = DEFAULT_ENUM_CAP) -> int:
    """Count m-settlements by walking colonies: a colony with k free legs
    has (m)_k injective ground maps.  The walk covers every colony whatever
    m is, so only the colony count is held to the cap."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _settlement_sum(count_colonies_by_free_legs(t, enum_cap), m)


class IncreasingForest(_Value):
    """Forest of planar trees: vertex j carries arities[j-1] ordered child
    slots; parent[j-1] is (i, slot) with i < j, or None for a root.  The
    label-increase rule is exactly the earlier-bug rule for colonies."""

    __slots__ = ("arities", "parent")

    def __init__(self, arities: Iterable[int],
                 parent: Iterable[tuple[int, int] | None]):
        arities = tuple(arities)
        parent = tuple(parent)
        if len(arities) != len(parent):
            raise ValueError("one parent entry per vertex required")
        if any(a < 1 for a in arities):
            raise ValueError("arities must be positive")
        seen: set[tuple[int, int]] = set()
        for j, ref in enumerate(parent, start=1):
            if ref is None:
                continue
            i, slot = ref
            if not 1 <= i < j:
                raise ValueError(f"vertex {j} must attach to an earlier vertex")
            if not 1 <= slot <= arities[i - 1]:
                raise ValueError(f"vertex {i} has no slot {slot}")
            if ref in seen:
                raise ValueError(f"slot {ref} used twice")
            seen.add(ref)
        self._store(arities, parent)

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(j for j, ref in enumerate(self.parent, start=1)
                     if ref is None)


def colony_to_forest(colony: Colony) -> IncreasingForest:
    """Read a single-leg colony as an increasing planar forest: bugs become
    internal vertices, cells become child slots, ground feet become roots."""
    t = colony.type
    if any(s != 1 for s in t.s):
        raise ValueError(f"every bug needs exactly one leg, got s={t.s}")
    return IncreasingForest(t.r, tuple(feet[0] for feet in colony.placement))


def forest_to_colony(forest: IncreasingForest) -> Colony:
    """Inverse of colony_to_forest."""
    t = StringType(forest.arities, (1,) * len(forest.arities))
    return Colony(t, tuple((ref,) for ref in forest.parent))


def count_increasing_forests(r: int, n: int,
                             enum_cap: int = DEFAULT_ENUM_CAP) -> int:
    """Count increasing r-ary planar forests with n internal vertices by
    direct DFS over vertex attachments (independent of the colony code)."""
    if r < 1:
        raise ValueError("arity must be positive")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        return 1
    # after the first vertex each one is a root or takes one of at least one
    # open slot, so at least 2^(n-1) forests: refused before the type is built
    if n - 1 >= enum_cap.bit_length():
        raise TooLarge(f"at least 2^{n - 1} forests exceed the cap of "
                       f"{enum_cap}")
    _require_under_cap(StringType.uniform(r, 1, n), enum_cap, "forests")
    # a partial forest is (next vertex, number of open slots): which slots
    # are open never changes how many forests extend it
    total = 0
    stack = [(1, 0)]
    while stack:
        j, free = stack.pop()
        if j == n:
            # the last vertex is a root or takes one open slot
            total += free + 1
            continue
        stack.append((j + 1, free + r))
        stack += repeat((j + 1, free + r - 1), free)
    return total


def colony_to_text(colony: Colony) -> str:
    """One line per foot: 'foot <label> -> ground' or
    'foot <label> -> bug <i> cell <c>', feet in label order."""
    lines = []
    label = 1
    for feet in colony.placement:
        for ref in feet:
            if ref is None:
                lines.append(f"foot {label} -> ground")
            else:
                lines.append(f"foot {label} -> bug {ref[0]} cell {ref[1]}")
            label += 1
    return "\n".join(lines)


def colony_to_dot(colony: Colony) -> str:
    """DOT digraph of the foot -> cell graph, ground as a shared sink."""
    lines = ["digraph colony {"]
    label = 1
    for feet in colony.placement:
        for ref in feet:
            if ref is None:
                lines.append(f'  "foot {label}" -> "ground";')
            else:
                lines.append(f'  "foot {label}" -> "bug {ref[0]} cell {ref[1]}";')
            label += 1
    lines.append("}")
    return "\n".join(lines)
