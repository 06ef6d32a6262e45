"""Command-line front end.

Subcommands cover every computation path (ordering, coefficient tables,
numeric series, enumeration) plus a selfcheck that cross-verifies them on
one input type.  Exit codes: 0 success, 1 computational error or failed
selfcheck, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

from .algebra import (ANNIHILATION, CREATION, BosonWord, NormalForm,
                      StringType, extract_stirling, normal_order,
                      type_from_word, word_from_type)
from .combinat import (DEFAULT_ENUM_CAP, colony_to_dot, colony_to_text,
                       count_colonies_by_free_legs, count_increasing_forests,
                       empty_cells, enumerate_colonies, enumerate_settlements,
                       free_legs)
from .errors import BosonOrderError, LengthMismatch, ParseError
from .series import (forest_egf, tree_series, tree_series_closed_form)
from .stirling import (DEFAULT_MAX_TERMS, check_polynomial_identity,
                       closed_form_table, dobinski_eval, falling_factorial,
                       settlement_product, stirling_recurrence)

_TOKEN = re.compile(r"(ad|a)(?:\^([0-9]+))?")

# --digits above this is refused as a usage error before a 10^(digits+2)
# tolerance or a Decimal context of that size is built
MAX_DIGITS = 100_000

# the exponents of one argument (a word, --r or --s) are read from at most
# this many digits each and must sum to less than 10^MAX_EXPONENT_DIGITS,
# so every exponent, excess and table key derived from them prints within
# the interpreter's int-to-str limit (4300 digits by default); a longer
# digit string is refused before int() spends quadratic time on it
MAX_EXPONENT_DIGITS = 4300
_EXPONENT_BOUND = 10 ** MAX_EXPONENT_DIGITS


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def _read_exponent(digits: str, total: int, offset: int) -> int:
    # the value of digits, refused when it would bring the running total of
    # its argument's exponents to 10^MAX_EXPONENT_DIGITS or more
    value = (int(digits) if len(digits) <= MAX_EXPONENT_DIGITS
             else _EXPONENT_BOUND)
    if total + value >= _EXPONENT_BOUND:
        raise ParseError(
            f"exponents must sum to less than 10^{MAX_EXPONENT_DIGITS}",
            offset)
    return value


def _number_text(v) -> str:
    # str(v) for an int or Fraction of any size: str() refuses ints longer
    # than the interpreter's int-to-str limit, the decimal module does not
    if isinstance(v, Fraction):
        text = _number_text(v.numerator)
        if v.denominator == 1:
            return text
        return f"{text}/{_number_text(v.denominator)}"
    return str(Decimal(v))


def parse_word(text: str) -> BosonWord:
    """Whitespace-separated tokens, each 'ad' or 'a' with an optional
    '^<positive integer>' suffix, read left to right as the algebraic word."""
    runs = []
    total = 0
    for match in re.finditer(r"\S+", text):
        token = match.group(0)
        offset = _byte_offset(text, match.start())
        m = _TOKEN.fullmatch(token)
        if m is None:
            raise ParseError(
                f"unrecognized token {token!r}: expected 'ad' or 'a', "
                "optionally with ^<positive integer>", offset)
        count = _read_exponent(m.group(2) or "1", total, offset)
        if count < 1:
            raise ParseError(f"exponent must be positive in {token!r}",
                             offset)
        total += count
        letter = CREATION if m.group(1) == "ad" else ANNIHILATION
        runs.append((letter, count))
    return BosonWord.from_runs(runs)


def word_to_text(word: BosonWord) -> str:
    """Run-length pretty-printer; parse_word inverts it exactly."""
    parts = []
    for letter, count in word.runs:
        token = "ad" if letter is CREATION else "a"
        parts.append(token if count == 1 else f"{token}^{count}")
    return " ".join(parts)


def _parse_int_list(text: str) -> tuple[int, ...]:
    values = []
    offset = total = 0
    for part in text.split(","):
        if not re.fullmatch(r"[0-9]+", part) \
                or (value := _read_exponent(part, total, offset)) < 1:
            raise ParseError(f"expected a positive integer, got {part!r}", offset)
        values.append(value)
        total += value
        offset += len(part.encode("utf-8")) + 1
    return tuple(values)


def parse_type(r_text: str, s_text: str) -> StringType:
    """Comma-separated exponent vectors, factor 1 first."""
    r = _parse_int_list(r_text)
    s = _parse_int_list(s_text)
    if len(r) != len(s):
        raise LengthMismatch(f"r has {len(r)} entries but s has {len(s)}")
    return StringType(r, s)


class CheckResult:
    """One selfcheck line: what was checked, "pass" or "fail", and how."""

    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str = ""):
        self.name = name
        self.status = status
        self.detail = detail


def run_selfcheck(t: StringType, m_max: int = 4, x_samples: int = 8,
                  enum_cap: int = DEFAULT_ENUM_CAP) -> list[CheckResult]:
    """Cross-verify every computation path on one type, that of any word.

    Checks: all coefficient-table methods agree; every colony's empty cells
    equal excess plus free legs; settlement counts from enumeration, the
    product formula, and the table all coincide; the falling-factorial
    identity holds on sample points.  Every check runs on every type; only
    the legs of the table check depend on it: the closed form joins when
    the prefix excesses are nonnegative, rewriting when the excess is.
    TooLarge propagates if the type exceeds the cap.
    """
    results = []

    def check(name: str, failure, passed: str = "") -> None:
        # failure is the detail of a failed check, falsy when it passed
        results.append(CheckResult(name, "fail", failure) if failure
                       else CheckResult(name, "pass", passed))

    table = dict(stirling_recurrence(t).values)
    legs = {"recurrence": table,
            "enumeration": count_colonies_by_free_legs(t, enum_cap=enum_cap)}
    if t.excess >= 0:
        _, legs["rewriting"] = extract_stirling(normal_order(word_from_type(t)))
    if t.has_nonnegative_prefixes():
        legs["closed-form"] = closed_form_table(t)
    mismatched = {name: vals for name, vals in legs.items() if vals != table}
    check("stirling tables agree",
          mismatched and f"recurrence gives {table}, others {mismatched}",
          f"{len(legs)} methods on table {table}")

    bad = next((c for c in enumerate_colonies(t, enum_cap)
                if empty_cells(c) != t.excess + free_legs(c)), None)
    check("empty cells equal excess plus free legs",
          bad is not None
          and f"{empty_cells(bad)} cells vs {t.excess} + {free_legs(bad)}")

    bad_counts = []
    for m in range(m_max + 1):
        enumerated = enumerate_settlements(t, m, enum_cap)
        by_table = sum(v * falling_factorial(m, k) for k, v in table.items())
        product = settlement_product(t, m)
        if not enumerated == by_table == product:
            bad_counts.append((m, enumerated, by_table, product))
    check("settlement counts agree",
          bad_counts and f"(m, enumerated, from table, product) = {bad_counts}",
          f"m = 0..{m_max}")

    bad_x = [x for x in range(x_samples)
             if not check_polynomial_identity(t, x)]
    check("falling-factorial identity", bad_x and f"fails at x = {bad_x}",
          f"x = 0..{x_samples - 1}")
    return results


def _default_enum_cap() -> int:
    raw = os.environ.get("BOSON_ORDER_ENUM_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ParseError(
            f"BOSON_ORDER_ENUM_CAP must be a positive integer, got {raw!r}", 0)
    return cap


def _count(lo: int, hi: int | None = None):
    """An argparse type: an integer in lo..hi (no upper limit when hi is
    None), refused as a usage error while the flags are read."""
    bound = {0: "nonnegative", 1: "positive"}.get(lo, f"at least {lo}")

    def count(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be {bound}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}")
        return value

    count.__name__ = "int"  # argparse names it in "invalid int value"
    return count


def _make_common(allow_csv: bool) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    formats = ("plain", "json", "csv") if allow_csv else ("plain", "json")
    common.add_argument("--format", choices=formats, default="plain",
                        help="output format")
    common.add_argument("--out", metavar="PATH",
                        help="write output to a file instead of stdout")
    common.add_argument("--digits", type=_count(1, MAX_DIGITS), default=50,
                        help="significant digits for numeric results "
                             f"(at most {MAX_DIGITS})")
    common.add_argument("--max-terms", type=_count(1), default=DEFAULT_MAX_TERMS,
                        dest="max_terms",
                        help="series term cap before giving up")
    common.add_argument("--enum-cap", type=_count(1), dest="enum_cap",
                        help="enumeration size cap")
    return common


def _make_word_input() -> argparse.ArgumentParser:
    inp = argparse.ArgumentParser(add_help=False)
    inp.add_argument("--word", help="operator word, e.g. 'ad^2 a^2'")
    inp.add_argument("--r", help="comma-separated creation exponents, factor 1 first")
    inp.add_argument("--s", help="comma-separated annihilation exponents")
    return inp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonorder",
        description="Exact normal ordering and the combinatorics it counts.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = _make_common(allow_csv=False)
    common_csv = _make_common(allow_csv=True)
    word_input = _make_word_input()
    methods = ("auto", "rewrite", "recurrence", "closed-form", "enumerate")

    sub.add_parser("order", parents=[common, word_input],
                   help="normal order a word")
    p = sub.add_parser("stirling", parents=[common_csv, word_input],
                       help="coefficient table of a word or type")
    p.add_argument("--method", default="auto", choices=methods)
    p = sub.add_parser("bell", parents=[common, word_input],
                       help="sum of the coefficient table")
    p.add_argument("--method", default="auto", choices=methods)
    p = sub.add_parser("dobinski", parents=[common, word_input],
                       help="numeric series value of the Bell polynomial")
    p.add_argument("--x", default="1", help="nonnegative rational argument")
    p = sub.add_parser("colonies", parents=[common, word_input],
                       help="enumerate colonies of a type")
    p.add_argument("--dot", action="store_true",
                   help="emit DOT graphs instead of text placements")
    p = sub.add_parser("settlements", parents=[common, word_input],
                       help="count settlements of a type")
    p.add_argument("--m", type=_count(0), required=True,
                   help="number of distinguishable ground cells")
    p.add_argument("--method", default="enumerate",
                   choices=("enumerate", "product"))
    p = sub.add_parser("forests", parents=[common],
                       help="count increasing planar forests")
    p.add_argument("--arity", type=_count(1), required=True)
    p.add_argument("--n", type=_count(0), required=True,
                   help="number of internal vertices")
    p = sub.add_parser("series", parents=[common],
                       help="tree/forest generating function coefficients")
    p.add_argument("--kind", default="tree",
                   choices=("tree", "tree-closed", "forest"))
    p.add_argument("--arity", type=_count(2), required=True,
                   help="at least 2 (arity 1 is the Bell case: see forests)")
    p.add_argument("--order", type=_count(0), default=10)
    p = sub.add_parser("selfcheck", parents=[common, word_input],
                       help="cross-verify all computation paths on one type")
    p.add_argument("--m-max", type=_count(0), default=4, dest="m_max")
    p.add_argument("--x-samples", type=_count(1), default=8, dest="x_samples")
    return parser


def _resolve_input(args, parser) -> StringType:
    # a word and its type are one-to-one, so every handler takes the type
    has_word = args.word is not None
    has_type = args.r is not None or args.s is not None
    if has_word == has_type:
        parser.error("provide exactly one input: --word or --r together with --s")
    if has_word:
        return type_from_word(parse_word(args.word))
    if args.r is None or args.s is None:
        parser.error("--r and --s must be given together")
    return parse_type(args.r, args.s)


def _type_payload(t: StringType):
    return {"r": list(t.r), "s": list(t.s)}


def _format_normal_form(form: NormalForm) -> str:
    parts = []
    for i, j, c in form.monomials():
        factors = []
        if i:
            factors.append("ad" if i == 1 else f"ad^{i}")
        if j:
            factors.append("a" if j == 1 else f"a^{j}")
        if factors:
            term = " ".join(factors)
            parts.append(term if c == 1 else f"{_number_text(c)} {term}")
        else:
            parts.append(_number_text(c))
    return " + ".join(parts) if parts else "0"


def _cmd_order(args, t):
    word = word_from_type(t)
    form = normal_order(word)
    if args.format == "json":
        return {
            "word": word_to_text(word),
            "excess": form.excess,
            "terms": {str(k): _number_text(v)
                      for k, v in form.coeffs.items()},
        }, 0
    return _format_normal_form(form), 0


def _stirling_values(args, t) -> tuple[int, dict[int, int], str]:
    method = "recurrence" if args.method == "auto" else args.method
    if method == "rewrite":
        d, values = extract_stirling(normal_order(word_from_type(t)))
    elif method == "recurrence":
        d, values = t.excess, dict(stirling_recurrence(t).values)
    elif method == "closed-form":
        d, values = t.excess, closed_form_table(t)
    else:
        d = t.excess
        values = count_colonies_by_free_legs(t, enum_cap=args.enum_cap)
    return d, values, method


def _cmd_stirling(args, t):
    d, values, method = _stirling_values(args, t)
    bell = sum(values.values())
    if args.format == "json":
        return {
            "type": _type_payload(t),
            "d": d,
            "stirling": {str(k): _number_text(v)
                         for k, v in sorted(values.items())},
            "bell": _number_text(bell),
            "method": method,
        }, 0
    if args.format == "csv":
        lines = ["k,S_k"] + [f"{k},{_number_text(v)}"
                             for k, v in sorted(values.items())]
        return "\n".join(lines), 0
    lines = [f"d = {d}"]
    lines += [f"S({k}) = {_number_text(v)}" for k, v in sorted(values.items())]
    lines.append(f"bell = {_number_text(bell)}")
    return "\n".join(lines), 0


def _cmd_bell(args, t):
    d, values, method = _stirling_values(args, t)
    bell = sum(values.values())
    if args.format == "json":
        return {
            "type": _type_payload(t),
            "d": d,
            "bell": _number_text(bell),
            "method": method,
        }, 0
    return _number_text(bell), 0


def _cmd_dobinski(args, t):
    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot read {args.x!r} as a rational number", 0)
    if x < 0:
        raise ParseError("x must be nonnegative", 0)
    approx = dobinski_eval(t, x, args.digits, args.max_terms)
    if args.format == "json":
        return {
            "type": _type_payload(t),
            "x": str(x),
            "value": str(approx.value),
            "precision_digits": approx.precision_digits,
            "terms_used": approx.terms_used,
        }, 0
    return str(approx.value), 0


def _cmd_colonies(args, t):
    colonies = list(enumerate_colonies(t, args.enum_cap))
    if args.dot:
        return "\n\n".join(colony_to_dot(c) for c in colonies), 0
    if args.format == "json":
        counts: dict[int, int] = {}
        for c in colonies:
            k = free_legs(c)
            counts[k] = counts.get(k, 0) + 1
        return {
            "type": _type_payload(t),
            "count": len(colonies),
            "by_free_legs": {str(k): str(v) for k, v in sorted(counts.items())},
            "colonies": [colony_to_text(c).split("\n") if t.total_s else []
                         for c in colonies],
        }, 0
    blocks = [f"colony {i} (free legs {free_legs(c)})\n{colony_to_text(c)}"
              .rstrip() for i, c in enumerate(colonies, start=1)]
    blocks.append(f"total {len(colonies)}")
    return "\n\n".join(blocks), 0


def _cmd_settlements(args, t):
    if args.method == "product":
        count = settlement_product(t, args.m)
    else:
        count = enumerate_settlements(t, args.m, args.enum_cap)
    if args.format == "json":
        return {
            "type": _type_payload(t),
            "m": args.m,
            "count": _number_text(count),
            "method": args.method,
        }, 0
    return _number_text(count), 0


def _cmd_forests(args, t):
    count = count_increasing_forests(args.arity, args.n, args.enum_cap)
    if args.format == "json":
        return {"arity": args.arity, "n": args.n, "count": str(count)}, 0
    return str(count), 0


def _cmd_series(args, t):
    builder = {"tree": tree_series, "tree-closed": tree_series_closed_form,
               "forest": forest_egf}[args.kind]
    series = builder(args.arity, args.order)
    counts = series.counts
    if args.format == "json":
        return {
            "kind": args.kind,
            "arity": args.arity,
            "order": series.order,
            "convention": series.convention,
            "coefficients": list(map(_number_text, series.coeffs)),
            "counts": list(map(_number_text, counts)),
        }, 0
    lines = [f"a_{n} = {_number_text(c)} (count {_number_text(counts[n])})"
             for n, c in enumerate(series.coeffs)]
    return "\n".join(lines), 0


def _cmd_selfcheck(args, t):
    results = run_selfcheck(t, args.m_max, args.x_samples, args.enum_cap)
    code = 1 if any(r.status == "fail" for r in results) else 0
    if args.format == "json":
        return {
            "type": _type_payload(t),
            "checks": [{"name": r.name, "status": r.status, "detail": r.detail}
                       for r in results],
        }, code
    return "\n".join(
        f"{r.status.upper()} {r.name}" + (f": {r.detail}" if r.detail else "")
        for r in results), code


# each handler takes the parsed flags and the input type (None for forests
# and series) and returns (result, exit code): the result is a JSON payload
# as a dict, or plain, CSV or DOT text as a str, and main prints it
_HANDLERS = {
    "order": _cmd_order,
    "stirling": _cmd_stirling,
    "bell": _cmd_bell,
    "dobinski": _cmd_dobinski,
    "colonies": _cmd_colonies,
    "settlements": _cmd_settlements,
    "forests": _cmd_forests,
    "series": _cmd_series,
    "selfcheck": _cmd_selfcheck,
}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.enum_cap is None:
            args.enum_cap = _default_enum_cap()
        t = _resolve_input(args, parser) if "word" in args else None
        result, code = _HANDLERS[args.subcommand](args, t)
    except (ParseError, LengthMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BosonOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(result if isinstance(result, str)
          else json.dumps(result, indent=2), args.out)
    return code


def console_main() -> None:
    sys.exit(main())
