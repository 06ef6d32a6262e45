"""Command-line front end.

Subcommands cover every computation path (ordering, coefficient tables,
numeric series, enumeration) plus a selfcheck that cross-verifies them on
one input type.  Exit codes: 0 success, 1 computational error, failed
selfcheck or stdout closed by its reader, 2 usage or parse error or an
unwritable --out or stdout.  Colony listings stream, so memory stays flat.

A one-shot loads only what its subcommand runs: the top level imports the
parser's needs and the algebra, and each handler imports the library
module it calls, json where it writes a payload.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import nullcontext
from itertools import islice

from .algebra import (ANNIHILATION, CREATION, BosonWord, Letter,
                      NormalForm, StringType, normal_order, type_from_word,
                      word_from_type)
from .errors import BosonOrderError, LengthMismatch, ParseError

# the keys of check.TABLE_ROUTES, in its order, for --method: the parser is
# built before any route's module loads, and a test pins the two equal
TABLE_METHODS = ("rewrite", "recurrence", "closed-form", "enumerate")

_TOKEN = re.compile(r"(ad|a)(?:\^([0-9]+))?")

# --digits above this is refused as a usage error before a 10^(digits+2)
# tolerance or a Decimal context of that size is built
MAX_DIGITS = 100_000

# series --arity above this is refused before tree_series allocates its rows
MAX_ARITY = 100_000

# the exponents of one argument (a word, --r or --s) are read from at most
# this many digits each and must sum to less than 10^MAX_EXPONENT_DIGITS,
# so every exponent, excess and table key derived from them prints within
# the interpreter's int-to-str limit (4300 digits by default); a longer
# digit string is refused before int() spends quadratic time on it
MAX_EXPONENT_DIGITS = 4300
_EXPONENT_BOUND = 10 ** MAX_EXPONENT_DIGITS

# an int of at most this many bits has at most 603 digits, under the
# 640-digit floor of any int-to-str limit, so str() prints it
STR_BITS = 2000


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def _read_exponent(digits: str, total: int, text: str, index: int) -> int:
    # the value of digits, refused when it would bring the running total of
    # its argument's exponents to 10^MAX_EXPONENT_DIGITS or more, with the
    # byte offset of text[index]
    value = (int(digits) if len(digits) <= MAX_EXPONENT_DIGITS
             else _EXPONENT_BOUND)
    if total + value >= _EXPONENT_BOUND:
        raise ParseError(
            f"exponents must sum to less than 10^{MAX_EXPONENT_DIGITS}",
            _byte_offset(text, index))
    return value


def _number_text(v) -> str:
    # str(v) for an int or Fraction of any size: str() refuses ints longer
    # than the interpreter's int-to-str limit, the decimal module does not
    if not isinstance(v, int):
        text = _number_text(v.numerator)
        if v.denominator == 1:
            return text
        return f"{text}/{_number_text(v.denominator)}"
    if v.bit_length() <= STR_BITS:
        return str(v)
    from .stirling import _exact_decimal
    return str(_exact_decimal(v))


def parse_word(text: str) -> BosonWord:
    """Whitespace-separated tokens, each 'ad' or 'a' with an optional
    '^<positive integer>' suffix, read left to right as the algebraic word."""
    runs = []
    total = 0
    for match in re.finditer(r"\S+", text):
        token, start = match.group(0), match.start()
        m = _TOKEN.fullmatch(token)
        if m is None:
            raise ParseError(
                f"unrecognized token {token!r}: expected 'ad' or 'a', "
                "optionally with ^<positive integer>",
                _byte_offset(text, start))
        count = _read_exponent(m.group(2) or "1", total, text, start)
        if count < 1:
            raise ParseError(f"exponent must be positive in {token!r}",
                             _byte_offset(text, start))
        total += count
        runs.append((Letter(m.group(1)), count))
    return BosonWord.from_runs(runs)


def word_to_text(word: BosonWord) -> str:
    """Run-length pretty-printer; parse_word inverts it exactly."""
    parts = []
    for letter, count in word.runs:
        token = letter.value
        parts.append(token if count == 1 else f"{token}^{count}")
    return " ".join(parts)


def _parse_int_list(text: str) -> tuple[int, ...]:
    values = []
    index = total = 0
    for part in text.split(","):
        if not re.fullmatch(r"[0-9]+", part) \
                or (value := _read_exponent(part, total, text, index)) < 1:
            raise ParseError(f"expected a positive integer, got {part!r}",
                             _byte_offset(text, index))
        values.append(value)
        total += value
        index += len(part) + 1
    return tuple(values)


def parse_type(r_text: str, s_text: str) -> StringType:
    """Comma-separated exponent vectors, factor 1 first."""
    r = _parse_int_list(r_text)
    s = _parse_int_list(s_text)
    if len(r) != len(s):
        raise LengthMismatch(f"r has {len(r)} entries but s has {len(s)}")
    return StringType(r, s)


def _default_enum_cap() -> int:
    raw = os.environ.get("BOSON_ORDER_ENUM_CAP")
    if raw is None:
        from .combinat import DEFAULT_ENUM_CAP
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

    def add(name: str, summary: str, handler, word: bool = True,
            enum_cap: bool = False, formats: tuple[str, ...] = ("plain", "json")):
        # a subcommand with the flags every one takes, and with the input
        # and enumeration-cap flags where its handler reads them.  The
        # handler takes the parsed flags and the input type (None without
        # --word) and returns (result, exit code): the result is a JSON
        # payload as a dict, plain, CSV or DOT text as a str, or an
        # iterator of text chunks, and main writes it
        p = sub.add_parser(name, help=summary)
        p.set_defaults(parser=p, handler=handler)
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

    add("order", "normal order a word", _cmd_order)
    p = add("stirling", "coefficient table of a word or type", _cmd_stirling,
            enum_cap=True, formats=("plain", "json", "csv"))
    p.add_argument("--method", default="auto",
                   choices=("auto", *TABLE_METHODS))
    p = add("bell", "sum of the coefficient table", _cmd_bell, enum_cap=True)
    p.add_argument("--method", default="auto",
                   choices=("auto", *TABLE_METHODS))
    p = add("dobinski", "numeric series value of the Bell polynomial",
            _cmd_dobinski)
    p.add_argument("--x", default="1", help="nonnegative rational argument")
    p.add_argument("--digits", type=_count(1, MAX_DIGITS), default=50,
                   help="significant digits for numeric results "
                        f"(at most {MAX_DIGITS})")
    p.add_argument("--max-terms", type=_count(1), dest="max_terms",
                   help="series term cap before giving up")
    p = add("colonies", "enumerate colonies of a type", _cmd_colonies,
            enum_cap=True)
    p.add_argument("--dot", action="store_true",
                   help="emit DOT graphs instead of text placements")
    p = add("settlements", "count settlements of a type", _cmd_settlements,
            enum_cap=True)
    p.add_argument("--m", type=_count(0), required=True,
                   help="number of distinguishable ground cells")
    p.add_argument("--method", default="enumerate",
                   choices=("enumerate", "product"))
    p = add("forests", "count increasing planar forests", _cmd_forests,
            word=False, enum_cap=True)
    p.add_argument("--arity", type=_count(1), required=True)
    p.add_argument("--n", type=_count(0), required=True,
                   help="number of internal vertices")
    p = add("series", "tree/forest generating function coefficients",
            _cmd_series, word=False)
    p.add_argument("--kind", default="tree",
                   choices=("tree", "tree-closed", "forest"))
    p.add_argument("--arity", type=_count(2, MAX_ARITY), required=True,
                   help=f"2 to {MAX_ARITY}; 1 is the Bell case: see forests")
    p.add_argument("--order", type=_count(0), default=10)
    add("selfcheck", "cross-verify all computation paths on one type",
        _cmd_selfcheck, enum_cap=True)
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
        term = word_to_text(BosonWord.from_runs(
            run for run in ((CREATION, i), (ANNIHILATION, j)) if run[1]))
        parts.append(term if c == 1 and term
                     else f"{_number_text(c)} {term}".rstrip())
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
    from .check import TABLE_ROUTES
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
    # the digits of --x plus the size of its decimal exponent bound the
    # digits of x's numerator and denominator: past MAX_DIGITS it is
    # refused before Fraction() spends seconds building 10^exponent
    head, _, exponent = args.x.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    size = sum(map(str.isdecimal, head))
    if exponent.isdecimal():
        size += int(exponent) if len(exponent) < 8 else MAX_DIGITS + 1
    if size > MAX_DIGITS:
        raise ParseError(f"x may have at most {MAX_DIGITS} digits, counting "
                         "its decimal exponent", 0)
    from fractions import Fraction
    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError):
        # a long --x is quoted by its head and length, not echoed back
        quoted = (repr(args.x) if len(args.x) <= 40 else
                  f"{args.x[:20] + '...'!r} ({len(args.x)} characters)")
        raise ParseError(f"cannot read {quoted} as a rational number", 0)
    if x < 0:
        raise ParseError("x must be nonnegative", 0)
    from .stirling import DEFAULT_MAX_TERMS, dobinski_eval
    approx = dobinski_eval(t, x, args.digits, DEFAULT_MAX_TERMS
                           if args.max_terms is None else args.max_terms)
    if args.format == "json":
        return {
            "type": _type_payload(t),
            "x": _number_text(x),
            "value": str(approx.value),
            "precision_digits": approx.precision_digits,
            "terms_used": approx.terms_used,
        }, 0
    return str(approx.value), 0


def _cmd_colonies(args, t):
    from .combinat import (colony_to_dot, count_colonies_by_free_legs,
                           enumerate_colonies)
    # the cap guards run here, before the first chunk is printed
    colonies = enumerate_colonies(t, args.enum_cap)
    if args.dot:
        return _joined("", map(colony_to_dot, colonies), "\n\n", ""), 0
    if args.format == "json":
        import json
        counts = count_colonies_by_free_legs(t, args.enum_cap)
        # json.dumps' own layout around the listing, whose one null marks
        # where the colonies go: every other value is a number or digits
        head, tail = json.dumps({
            "type": _type_payload(t),
            "count": sum(counts.values()),
            "by_free_legs": {str(k): str(v) for k, v in sorted(counts.items())},
            "colonies": [None],
        }, indent=2).split("null")
        return _joined(head, _colonies_json(colonies), ",\n    ", tail), 0
    return _colony_blocks(colonies), 0


def _joined(head: str, items, sep: str, tail: str):
    # head + sep.join(items) + tail, as a stream of chunks
    yield head
    for i, item in enumerate(items):
        yield sep + item if i else item
    yield tail


def _colonies_json(colonies):
    # each colony's foot lines as json.dumps(indent=2) lays out a nested list
    from json.encoder import encode_basestring_ascii
    from .combinat import colony_to_text
    for colony in colonies:
        text = colony_to_text(colony)
        lines = ",\n      ".join(map(encode_basestring_ascii,
                                       text.split("\n")))
        yield f"[\n      {lines}\n    ]" if text else "[]"


def _colony_blocks(colonies):
    from .combinat import colony_to_text, free_legs
    n = 0
    for n, c in enumerate(colonies, start=1):
        yield (f"colony {n} (free legs {free_legs(c)})\n{colony_to_text(c)}"
               .rstrip() + "\n\n")
    yield f"total {n}"


def _cmd_settlements(args, t):
    from .combinat import enumerate_settlements
    from .stirling import settlement_product
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
    from .combinat import count_increasing_forests
    count = count_increasing_forests(args.arity, args.n, args.enum_cap)
    if args.format == "json":
        return {"arity": args.arity, "n": args.n, "count": str(count)}, 0
    return str(count), 0


def _cmd_series(args, t):
    from .series import forest_egf, tree_series, tree_series_closed_form
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
    from .check import run_selfcheck
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
        result, code = args.handler(args, t)
    except BosonOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, LengthMismatch)) else 1
    if isinstance(result, dict):
        import json
        result = json.dumps(result, indent=2)
    chunks = (result,) if isinstance(result, str) else result
    # an empty --out is a path that cannot be opened, not stdout
    to_stdout = args.out is None
    try:
        with (nullcontext(sys.stdout) if to_stdout
              else open(args.out, "w", encoding="utf-8")) as fh:
            _write(fh, chunks)
            fh.flush()
    except OSError as exc:
        if to_stdout:
            # send the rest to devnull, so the flush at exit cannot fail
            # again; exit 1 if the reader left, as Python does on SIGPIPE
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                return 1
        where = "stdout" if to_stdout else args.out or '""'
        print(f"error: cannot write {where}: {exc.strerror}", file=sys.stderr)
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


def __getattr__(name: str):
    # perfbench/inproc.py reads run_selfcheck from this module: check loads
    # on that first read, and the name is bound here
    if name != "run_selfcheck":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .check import run_selfcheck
    globals()[name] = run_selfcheck
    return run_selfcheck
