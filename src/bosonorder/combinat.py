"""Brute-force combinatorics: bugs, colonies, settlements, increasing forests.

Everything here enumerates structures directly from their definitions and is
deliberately independent of the algebraic formulas it is used to verify.
Counts are exact; enumeration order is canonical and deterministic so golden
outputs stay byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Optional

from .algebra import StringType
from .errors import NotUnary, TooLarge
from .stirling import bell_number, settlement_product, stirling_recurrence

DEFAULT_ENUM_CAP = 10_000_000

# a foot sits either on the ground (None) or in cell c of an earlier bug i,
# both indices 1-based
CellRef = tuple[int, int]
Placement = Optional[CellRef]


@dataclass(frozen=True)
class Colony:
    """A placement of every bug's feet; placement[j-1][f] is the target of
    foot f of bug j.  Feet may only grab cells of strictly earlier bugs,
    one foot per cell; bug 1 therefore stands fully on the ground."""

    type: StringType
    placement: tuple[tuple[Placement, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "placement",
                           tuple(tuple(feet) for feet in self.placement))
        t = self.type
        if len(self.placement) != t.n:
            raise ValueError("one placement tuple per bug required")
        seen: set[CellRef] = set()
        for j, feet in enumerate(self.placement, start=1):
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


def _ground_feet(placement: tuple[tuple[Placement, ...], ...]) -> int:
    return sum(1 for feet in placement for ref in feet if ref is None)


def _require_under_cap(predicted: int, enum_cap: int, what: str) -> None:
    if predicted > enum_cap:
        raise TooLarge(f"{predicted} {what} exceed the cap of {enum_cap}")


def free_legs(colony: Colony) -> int:
    """Number of feet standing on the ground."""
    return _ground_feet(colony.placement)


def empty_cells(colony: Colony) -> int:
    """Number of unoccupied body cells, counted directly (not via the
    excess-plus-free-legs identity, which tests check against this)."""
    occupied = {ref for feet in colony.placement for ref in feet if ref is not None}
    return colony.type.total_r - len(occupied)


def _placement_stream(t: StringType) -> Iterator[tuple[tuple[Placement, ...], ...]]:
    # DFS in canonical order: bugs by index, feet by label, options ground
    # first then cells sorted by (bug, cell)
    n = t.n

    def place_bug(j: int, acc: list, occupied: set) -> Iterator:
        if j > n:
            yield tuple(acc)
            return
        cells = [(i, c) for i in range(1, j) for c in range(1, t.r[i - 1] + 1)
                 if (i, c) not in occupied]
        s_j = t.s[j - 1]

        def place_feet(f: int, chosen: list, used: set) -> Iterator:
            if f == s_j:
                yield tuple(chosen)
                return
            chosen.append(None)
            yield from place_feet(f + 1, chosen, used)
            chosen.pop()
            for ref in cells:
                if ref in used:
                    continue
                chosen.append(ref)
                used.add(ref)
                yield from place_feet(f + 1, chosen, used)
                used.remove(ref)
                chosen.pop()

        for combo in place_feet(0, [], set()):
            acc.append(combo)
            taken = {ref for ref in combo if ref is not None}
            yield from place_bug(j + 1, acc, occupied | taken)
            acc.pop()

    yield from place_bug(1, [], set())


def enumerate_colonies(t: StringType,
                       enum_cap: int = DEFAULT_ENUM_CAP) -> Iterator[Colony]:
    """Every colony of the type, exactly once, in canonical order."""
    _require_under_cap(bell_number(t), enum_cap, "colonies")
    return (Colony(t, placement) for placement in _placement_stream(t))


def _free_leg_histogram(t: StringType) -> dict[int, int]:
    counts: dict[int, int] = {}
    for placement in _placement_stream(t):
        k = _ground_feet(placement)
        counts[k] = counts.get(k, 0) + 1
    return dict(sorted(counts.items()))


def count_colonies_by_free_legs(t: StringType,
                                enum_cap: int = DEFAULT_ENUM_CAP) -> dict[int, int]:
    """Histogram of colonies by free-leg count, walking every placement."""
    _require_under_cap(bell_number(t), enum_cap, "colonies")
    return _free_leg_histogram(t)


@dataclass(frozen=True)
class Settlement:
    """A colony whose free feet are placed injectively into ground cells
    1..ground_cells; assignment lists the cell of each free foot in foot
    label order.  Surjective means every ground cell is taken."""

    colony: Colony
    ground_cells: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if self.ground_cells < 0:
            raise ValueError("ground_cells must be nonnegative")
        if len(self.assignment) != free_legs(self.colony):
            raise ValueError("one ground cell per free foot required")
        if len(set(self.assignment)) != len(self.assignment):
            raise ValueError("ground cells hold at most one foot")
        for g in self.assignment:
            if not 1 <= g <= self.ground_cells:
                raise ValueError(f"no ground cell {g}")

    @property
    def surjective(self) -> bool:
        return len(self.assignment) == self.ground_cells


def iter_settlements(t: StringType, m: int,
                     enum_cap: int = DEFAULT_ENUM_CAP) -> Iterator[Settlement]:
    """Every m-settlement as a structure; guarded by the predicted count."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    _require_under_cap(settlement_product(t, m), enum_cap, "settlements")
    colonies = enumerate_colonies(t, enum_cap)
    return (Settlement(colony, m, assignment)
            for colony in colonies
            for assignment in permutations(range(1, m + 1), free_legs(colony)))


def enumerate_settlements(t: StringType, m: int,
                          enum_cap: int = DEFAULT_ENUM_CAP) -> int:
    """Count m-settlements by walking colonies: a colony with k free legs
    has (m)_k injective ground maps."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    _require_under_cap(bell_number(t), enum_cap, "colonies")
    _require_under_cap(settlement_product(t, m), enum_cap, "settlements")
    return sum(v * math.perm(m, k) for k, v in _free_leg_histogram(t).items())


def count_surjective_settlements(t: StringType, m: int,
                                 enum_cap: int = DEFAULT_ENUM_CAP) -> int:
    """Count settlements covering all m ground cells: enumerated colonies
    with exactly m free legs, times the m! bijections."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    table = stirling_recurrence(t)
    _require_under_cap(table.bell(), enum_cap, "colonies")
    _require_under_cap(table.values.get(m, 0) * math.factorial(m), enum_cap,
                       "settlements")
    return _free_leg_histogram(t).get(m, 0) * math.factorial(m)


@dataclass(frozen=True)
class IncreasingForest:
    """Forest of planar trees: vertex j carries arities[j-1] ordered child
    slots; parent[j-1] is (i, slot) with i < j, or None for a root.  The
    label-increase rule is exactly the earlier-bug rule for colonies."""

    arities: tuple[int, ...]
    parent: tuple[Optional[tuple[int, int]], ...]

    def __post_init__(self):
        object.__setattr__(self, "arities", tuple(self.arities))
        object.__setattr__(self, "parent", tuple(self.parent))
        if len(self.arities) != len(self.parent):
            raise ValueError("one parent entry per vertex required")
        if any(a < 1 for a in self.arities):
            raise ValueError("arities must be positive")
        seen: set[tuple[int, int]] = set()
        for j, ref in enumerate(self.parent, start=1):
            if ref is None:
                continue
            i, slot = ref
            if not 1 <= i < j:
                raise ValueError(f"vertex {j} must attach to an earlier vertex")
            if not 1 <= slot <= self.arities[i - 1]:
                raise ValueError(f"vertex {i} has no slot {slot}")
            if ref in seen:
                raise ValueError(f"slot {ref} used twice")
            seen.add(ref)

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(j for j, ref in enumerate(self.parent, start=1)
                     if ref is None)


def colony_to_forest(colony: Colony) -> IncreasingForest:
    """Read a single-leg colony as an increasing planar forest: bugs become
    internal vertices, cells become child slots, ground feet become roots."""
    t = colony.type
    if any(s != 1 for s in t.s):
        raise NotUnary(f"every bug needs exactly one leg, got s={t.s}")
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
    _require_under_cap(bell_number(StringType.uniform(r, 1, n)), enum_cap,
                       "forests")
    total = 0
    stack: list[tuple[int, tuple[tuple[int, int], ...]]] = [(1, ())]
    while stack:
        j, open_slots = stack.pop()
        if j > n:
            total += 1
            continue
        own = tuple((j, c) for c in range(1, r + 1))
        stack.append((j + 1, open_slots + own))
        for idx in range(len(open_slots)):
            stack.append((j + 1, open_slots[:idx] + open_slots[idx + 1:] + own))
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


def settlement_to_text(settlement: Settlement) -> str:
    """Colony lines with ground feet resolved to their ground cells."""
    lines = []
    label = 1
    free = iter(settlement.assignment)
    for feet in settlement.colony.placement:
        for ref in feet:
            if ref is None:
                lines.append(f"foot {label} -> ground cell {next(free)}")
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
