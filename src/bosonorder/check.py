"""Cross-checks: every route to a type's coefficient table, and a selfcheck
whose legs, one table run by one loop, check the routes and the colony
counts against each other: a leg that raises fails, the rest still run.

The routes are independent on purpose: rewriting, the recurrence, the
closed form and colony enumeration each reach the same table another way.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import combinat, stirling
from .algebra import (StringType, _Value, extract_stirling, normal_order,
                      word_from_type)
from .combinat import DEFAULT_ENUM_CAP, count_colonies_by_free_legs
from .errors import BosonOrderError, NegativeExcess
from .stirling import (DEFAULT_MAX_TERMS, closed_form_table, dobinski_eval,
                       stirling_recurrence)

# every route to the coefficient table of a type, in --method order: each
# takes (type, enumeration cap) and returns {k: S(k)}, keyed by surviving
# annihilators; rewriting refuses a negative excess (NegativeExcess).  The
# recurrence is looked up when called, so a test can replace it
TABLE_ROUTES = {
    "rewrite": lambda t, cap:
        extract_stirling(normal_order(word_from_type(t)))[1],
    "recurrence": lambda t, cap: dict(stirling_recurrence(t).values),
    "closed-form": lambda t, cap: closed_form_table(t),
    "enumerate": lambda t, cap: count_colonies_by_free_legs(t, enum_cap=cap),
}


class CheckResult(_Value):
    """One selfcheck line: what was checked, "pass" or "fail", and how."""

    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str = ""):
        self._store(name, status, detail)


def _walk_colonies(t: StringType, bad: list) -> Iterator[tuple[int, int, int]]:
    # One walk over every colony: each yield of the walk is passed on, for
    # the enumeration route's tally, then its colonies are checked from the
    # walk's own state.  A colony's empty cells, counted from the cells its
    # feet hold, must equal excess plus free legs.  Feet 0..last-2 hold
    # cells, c of them, and total_r - excess = sum(s) = stop + 2, so every
    # colony of a yield passes if and only if c = stop - ground and neither
    # mask meets cells.  The first failing colony goes into bad[0] as
    # (empty cells, free legs): if c is off, the one with the last two feet
    # on the ground, else the first with one on a held cell.  union[f] is the
    # union of the cells held by feet 0..f-1, rebuilt from the first foot
    # that moved
    stop = t.total_s - 2
    held = [0] * t.total_s
    changed = [0]
    union = [0] * (t.total_s + 1)
    for ground, near, far in combinat._walk(t, held, changed):
        yield ground, near, far
        f = changed[0]
        cells = union[f]
        while f < stop:
            cells |= held[f]
            f += 1
            union[f] = cells
        off = (c := cells.bit_count()) != stop - ground
        if not bad[0] and (off or (near | far) & cells):
            bad[0] = (t.total_r - c, ground + 1 + off)


def run_selfcheck(t: StringType,
                  enum_cap: int = DEFAULT_ENUM_CAP) -> list[CheckResult]:
    """Cross-verify every computation path on one type, that of any word.

    Legs, in order: every route of TABLE_ROUTES gives the recurrence's table
    (rewriting sits out a negative excess, which it refuses); every colony's
    empty cells equal excess plus free legs, proved once per yield of the
    walk: its colonies all pass if and only if feet 0..last-2 hold
    sum(s) - 2 - ground cells and neither mask meets them; their free-leg
    histogram h gives sum_k h_k (m)_k settlements, the product formula's
    count; the Dobinski series at x = 1 gives the table's Bell number to a
    relative error below 1e-25.  Both sides of prod_j (X+d_{j-1})_(s_j) =
    sum_k S(k) (X)_k have degree at most sum(s), so the closed form, which
    interpolates it on x = 0..sum(s), proves it in the table leg, and the
    settlement leg, on m = 0..sum(s), proves it for the colonies walked;
    both read the one window p(0..sum(s)), built once.  One walk serves
    legs 1-3: the enumeration route's own tally turns its yields into h, and
    enumerate_settlements' own sum turns h into settlement counts.  A leg
    that raises fails, the exception its detail, and the rest still run.
    Refusals (BosonOrderError) propagate: TooLarge comes before any route
    runs if the type exceeds the cap or the closed form's budget.
    """
    combinat._require_under_cap(t, enum_cap)
    stirling._require_closed_form_budget(t)
    bad = [None]
    tables = {}

    def table_of(name):
        # a route's table, None if it refuses a negative excess, built on
        # first read (again if it raised); the walk is the enumeration route's
        if name not in tables:
            try:
                tables[name] = (
                    TABLE_ROUTES[name](t, enum_cap) if name != "enumerate"
                    else combinat._tally(t, _walk_colonies(t, bad)))
            except NegativeExcess:
                tables[name] = None
        return tables[name]

    def agree():
        found = {name: vals for name in TABLE_ROUTES
                 if (vals := table_of(name)) is not None}
        table = found["recurrence"]
        others = {name: vals for name, vals in found.items() if vals != table}
        return (others and f"recurrence gives {table}, others {others}",
                f"{len(found)} methods on table {table}")

    def empty_cells():
        table_of("enumerate")
        return bad[0] and f"{bad[0][0]} cells vs {t.excess} + {bad[0][1]}", ""

    def settlements():
        # the product's counts p(0..sum(s)), from the closed form's cache
        bad_counts = [(m, enumerated, product) for m, product
                      in enumerate(stirling._closed_form_row(t)[1])
                      if (enumerated := combinat._settlement_sum(
                          table_of("enumerate"), m)) != product]
        return (bad_counts and f"(m, enumerated, product) = {bad_counts}",
                f"m = 0..{t.total_s}")

    def dobinski():
        # the stop rule cannot fire before m = sum(s) + 1: count terms from
        # there.  |v - bell| 10^25 >= bell, in integers for v = n / d, d > 0
        bell = sum(table_of("recurrence").values())
        approx = dobinski_eval(t, 1, 30, t.total_s + DEFAULT_MAX_TERMS)
        n, d = approx.value.as_integer_ratio()
        return (abs(n - bell * d) * 10 ** 25 >= bell * d
                and f"{approx.value} vs {bell}",
                f"bell {bell} to 1e-25 in {approx.terms_used} terms")

    results = []
    for name, leg in (("stirling tables agree", agree),
                      ("empty cells equal excess plus free legs", empty_cells),
                      ("settlement counts agree", settlements),
                      ("dobinski series gives the bell number", dobinski)):
        try:
            failure, passed = leg()
        except BosonOrderError:
            raise
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, "fail" if failure else "pass",
                                   failure or passed))
    return results
