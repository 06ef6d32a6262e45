"""Command-line front end.

Subcommands cover every computation path (ordering, coefficient tables,
numeric series, enumeration) plus a selfcheck that cross-verifies them on
one input type.  Exit codes: 0 success, 1 computational error, failed
selfcheck or stdout closed by its reader, 2 usage or parse error or an
unwritable --out.  Colony listings stream, so their memory stays flat.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from decimal import (MAX_EMAX, MAX_PREC, Decimal, Inexact,
                     localcontext)
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii

from .algebra import (ANNIHILATION, CREATION, BosonWord, NormalForm,
                      StringType, extract_stirling, normal_order,
                      type_from_word, word_from_type)
from .combinat import (DEFAULT_ENUM_CAP, colony_to_dot, colony_to_text,
                       count_colonies_by_free_legs, count_increasing_forests,
                       empty_cells, enumerate_colonies, enumerate_settlements,
                       free_legs)
from .errors import (BosonOrderError, LengthMismatch, NegativeExcess,
                     ParseError)
from .series import (forest_egf, tree_series, tree_series_closed_form)
from .stirling import (DEFAULT_MAX_TERMS, closed_form_table, dobinski_eval,
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

# Decimal(n) is quadratic in the digits of n; above this many bits
# _number_text converts by halves instead, in subquadratic time
SPLIT_BITS = 1 << 14


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
    if v.bit_length() <= SPLIT_BITS:
        return str(Decimal(v))
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        return str(_split_decimal(v, v.bit_length(), {}))


def _split_decimal(n: int, bits: int, powers: dict[int, Decimal]) -> Decimal:
    # n as an exact Decimal: split n at 2^w, convert both halves and
    # recombine with one multiply-add, which libmpdec does by number-
    # theoretic transform at MAX_PREC; powers caches 2^w for each width w
    if bits <= SPLIT_BITS:
        return Decimal(n)
    w = bits >> 1
    high = n >> w
    if w not in powers:
        powers[w] = Decimal(2) ** w
    return (_split_decimal(n - (high << w), w, powers)
            + _split_decimal(high, bits - w, powers) * powers[w])


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


class CheckResult:
    """One selfcheck line: what was checked, "pass" or "fail", and how."""

    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str = ""):
        self.name = name
        self.status = status
        self.detail = detail


def run_selfcheck(t: StringType,
                  enum_cap: int = DEFAULT_ENUM_CAP) -> list[CheckResult]:
    """Cross-verify every computation path on one type, that of any word.

    Checks: every route of TABLE_ROUTES gives the recurrence's table (one
    sits out only when it raises NegativeExcess, rewriting's refusal of a
    negative excess); every colony's empty cells equal excess plus free
    legs; their free-leg histogram h gives sum_k h_k (m)_k settlements,
    the product formula's count; the Dobinski series at x = 1 gives the
    table's Bell number to a relative error below 1e-25.  Both sides of
    prod_j (X+d_{j-1})_(s_j) = sum_k S(k) (X)_k have degree at most sum(s),
    so the closed form, which interpolates it on x = 0..sum(s), proves it
    in the table check, and the settlement check, on m = 0..sum(s), proves
    it for the colonies walked.
    TooLarge propagates if the type exceeds the cap.
    """
    results = []

    def check(name: str, failure, passed: str = "") -> None:
        # failure is the detail of a failed check, falsy when it passed
        results.append(CheckResult(name, "fail", failure) if failure
                       else CheckResult(name, "pass", passed))

    tables = {}
    for name, route in TABLE_ROUTES.items():
        try:
            tables[name] = route(t, enum_cap)
        except NegativeExcess:
            pass
    table = tables["recurrence"]
    mismatched = {name: vals for name, vals in tables.items() if vals != table}
    check("stirling tables agree",
          mismatched and f"recurrence gives {table}, others {mismatched}",
          f"{len(tables)} methods on table {table}")

    hist = [0] * (t.total_s + 1)
    bad = None
    for c in enumerate_colonies(t, enum_cap):
        k = free_legs(c)
        hist[k] += 1
        if bad is None and empty_cells(c) != t.excess + k:
            bad = c
    check("empty cells equal excess plus free legs",
          bad is not None
          and f"{empty_cells(bad)} cells vs {t.excess} + {free_legs(bad)}")

    bad_counts = [(m, enumerated, product) for m in range(t.total_s + 1)
                  if (enumerated := sum(v * math.perm(m, k)
                                        for k, v in enumerate(hist) if v))
                  != (product := settlement_product(t, m))]
    check("settlement counts agree",
          bad_counts and f"(m, enumerated, product) = {bad_counts}",
          f"m = 0..{t.total_s}")

    # the stop rule cannot fire before m = sum(s) + 1: count terms from there
    bell = sum(table.values())
    approx = dobinski_eval(t, 1, 30, t.total_s + DEFAULT_MAX_TERMS)
    check("dobinski series gives the bell number",
          abs(Fraction(approx.value) - bell) * 10 ** 25 >= bell
          and f"{approx.value} vs {bell}",
          f"bell {bell} to 1e-25 in {approx.terms_used} terms")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonorder",
        description="Exact normal ordering and the combinatorics it counts.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, summary: str, word: bool = True,
            enum_cap: bool = False, formats: tuple[str, ...] = ("plain", "json")):
        # a subcommand with the flags every one takes, and with the input
        # and enumeration-cap flags where its handler reads them
        p = sub.add_parser(name, help=summary)
        p.set_defaults(parser=p)
        p.add_argument("--format", choices=formats, default="plain",
                       help="output format")
        p.add_argument("--out", metavar="PATH",
                       help="write output to a file instead of stdout")
        if word:
            p.add_argument("--word", help="operator word, e.g. 'ad^2 a^2'")
            p.add_argument("--r", help="comma-separated creation exponents, "
                                       "factor 1 first")
            p.add_argument("--s", help="comma-separated annihilation exponents")
        if enum_cap:
            p.add_argument("--enum-cap", type=_count(1), dest="enum_cap",
                           help="enumeration size cap")
        return p

    add("order", "normal order a word")
    p = add("stirling", "coefficient table of a word or type", enum_cap=True,
            formats=("plain", "json", "csv"))
    p.add_argument("--method", default="auto", choices=("auto", *TABLE_ROUTES))
    p = add("bell", "sum of the coefficient table", enum_cap=True)
    p.add_argument("--method", default="auto", choices=("auto", *TABLE_ROUTES))
    p = add("dobinski", "numeric series value of the Bell polynomial")
    p.add_argument("--x", default="1", help="nonnegative rational argument")
    p.add_argument("--digits", type=_count(1, MAX_DIGITS), default=50,
                   help="significant digits for numeric results "
                        f"(at most {MAX_DIGITS})")
    p.add_argument("--max-terms", type=_count(1), default=DEFAULT_MAX_TERMS,
                   dest="max_terms", help="series term cap before giving up")
    p = add("colonies", "enumerate colonies of a type", enum_cap=True)
    p.add_argument("--dot", action="store_true",
                   help="emit DOT graphs instead of text placements")
    p = add("settlements", "count settlements of a type", enum_cap=True)
    p.add_argument("--m", type=_count(0), required=True,
                   help="number of distinguishable ground cells")
    p.add_argument("--method", default="enumerate",
                   choices=("enumerate", "product"))
    p = add("forests", "count increasing planar forests", word=False,
            enum_cap=True)
    p.add_argument("--arity", type=_count(1), required=True)
    p.add_argument("--n", type=_count(0), required=True,
                   help="number of internal vertices")
    p = add("series", "tree/forest generating function coefficients",
            word=False)
    p.add_argument("--kind", default="tree",
                   choices=("tree", "tree-closed", "forest"))
    p.add_argument("--arity", type=_count(2), required=True,
                   help="at least 2 (arity 1 is the Bell case: see forests)")
    p.add_argument("--order", type=_count(0), default=10)
    add("selfcheck", "cross-verify all computation paths on one type",
        enum_cap=True)
    return parser


def _resolve_input(args) -> StringType:
    # a word and its type are one-to-one, so every handler takes the type;
    # errors show the usage line of the subcommand given
    has_word = args.word is not None
    has_type = args.r is not None or args.s is not None
    if has_word == has_type:
        args.parser.error("provide exactly one input: --word or --r together with --s")
    if has_word:
        return type_from_word(parse_word(args.word))
    if args.r is None or args.s is None:
        args.parser.error("--r and --s must be given together")
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


def _stirling_values(args, t) -> tuple[dict[int, int], str]:
    method = "recurrence" if args.method == "auto" else args.method
    return TABLE_ROUTES[method](t, args.enum_cap), method


def _cmd_stirling(args, t):
    values, method = _stirling_values(args, t)
    bell = sum(values.values())
    if args.format == "json":
        return {
            "type": _type_payload(t),
            "d": t.excess,
            "stirling": {str(k): _number_text(v)
                         for k, v in sorted(values.items())},
            "bell": _number_text(bell),
            "method": method,
        }, 0
    if args.format == "csv":
        lines = ["k,S_k"] + [f"{k},{_number_text(v)}"
                             for k, v in sorted(values.items())]
        return "\n".join(lines), 0
    lines = [f"d = {t.excess}"]
    lines += [f"S({k}) = {_number_text(v)}" for k, v in sorted(values.items())]
    lines.append(f"bell = {_number_text(bell)}")
    return "\n".join(lines), 0


def _cmd_bell(args, t):
    values, method = _stirling_values(args, t)
    bell = sum(values.values())
    if args.format == "json":
        return {
            "type": _type_payload(t),
            "d": t.excess,
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
    # the cap guards run here, before the first chunk is printed
    colonies = enumerate_colonies(t, args.enum_cap)
    if args.dot:
        return _joined("", map(colony_to_dot, colonies), "\n\n", ""), 0
    if args.format == "json":
        counts = count_colonies_by_free_legs(t, args.enum_cap)
        # json.dumps' own layout around the listing, whose one null marks
        # where the colonies go: every other value is a number or digits
        head, tail = json.dumps({
            "type": _type_payload(t),
            "count": sum(counts.values()),
            "by_free_legs": {str(k): str(v) for k, v in sorted(counts.items())},
            "colonies": [None],
        }, indent=2).split("null")
        return _joined(head, map(_colony_json, colonies), ",\n    ", tail), 0
    return _colony_blocks(colonies), 0


def _joined(head: str, items, sep: str, tail: str):
    # head + sep.join(items) + tail, as a stream of chunks
    yield head
    for i, item in enumerate(items):
        yield sep + item if i else item
    yield tail


def _colony_json(colony) -> str:
    # a colony's foot lines as json.dumps(indent=2) lays out a nested list
    text = colony_to_text(colony)
    if not text:
        return "[]"
    lines = ",\n      ".join(map(encode_basestring_ascii, text.split("\n")))
    return f"[\n      {lines}\n    ]"


def _colony_blocks(colonies):
    n = 0
    for n, c in enumerate(colonies, start=1):
        yield (f"colony {n} (free legs {free_legs(c)})\n{colony_to_text(c)}"
               .rstrip() + "\n\n")
    yield f"total {n}"


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
    results = run_selfcheck(t, args.enum_cap)
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
# as a dict, plain, CSV or DOT text as a str, or an iterator of text chunks,
# and main writes it
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the usage line of the subcommand that was given the flag
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if "enum_cap" in args and args.enum_cap is None:
            args.enum_cap = _default_enum_cap()
        t = _resolve_input(args) if "word" in args else None
        result, code = _HANDLERS[args.subcommand](args, t)
    except (ParseError, LengthMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BosonOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, dict):
        result = json.dumps(result, indent=2)
    chunks = (result,) if isinstance(result, str) else result
    if not args.out:
        try:
            _write(sys.stdout, chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left: send the rest to devnull, so the flush at exit
            # cannot fail again, and exit 1 as Python does on SIGPIPE
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write(fh, chunks)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}",
              file=sys.stderr)
        return 2
    return code


def _write(fh, chunks) -> None:
    # a thousand chunks per write: one write per colony made a ten-bug
    # listing on a piped stdout 20-90% slower, and a bigger batch holds
    # more of a listing in memory at once
    chunks = iter(chunks)
    while batch := list(islice(chunks, 1024)):
        fh.write("".join(batch))
    fh.write("\n")


def console_main() -> None:
    sys.exit(main())
