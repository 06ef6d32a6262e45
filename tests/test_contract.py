"""The command line's contract as two tables of one row type, held by one
checker.  A ``CONTRACT`` row runs a child ``python -m bosonorder``: the
entry point itself is under test, and the row may set a wall-time limit,
an address-space limit or a file for stdout.  The child imports the
``bosonorder`` its environment finds: ``src/`` under ``PYTHONPATH=src``,
or the installed package.  An ``IN_PROCESS`` row, like each README
transcript that ``tests/test_cli.py`` makes a row of, needs none of that
and calls ``cli.main`` in this process instead.

On every row stderr holds no traceback, is empty on exit 0 and otherwise
ends with an ``error:`` line: ours, then all of stderr, or argparse's,
after the usage line of the parser that the error line names.
"""

import hashlib
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from typing import NamedTuple

import pytest

from bosonorder.cli import (MAX_ARITY, MAX_DIGITS, MAX_EXPONENT_DIGITS,
                            main)


def last_line(text: str) -> str:
    return text.rstrip("\n").rpartition("\n")[2]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def passes(text: str) -> int:
    return sum(line.startswith("PASS ") for line in text.splitlines())


def usage(text: str) -> str:
    # the usage line up to its first option, before any wrap
    return text.partition(" [")[0]


class Row(NamedTuple):
    argv: str                   # split as a POSIX shell splits it
    code: int = 0
    out: object = ""            # all of stdout, or (view, view(stdout))
    err: str = ""               # text the last line of stderr holds; all
                                # of it when err is an error line
    cap: str | None = None      # BOSON_ORDER_ENUM_CAP; unset when None
    seconds: float = 60
    kb: int | None = None       # address-space limit, as `ulimit -v` takes
    stdout: str | None = None   # a file stdout goes to; then out is unread


ONES = ",".join("1" * 12)
EIGHT_BUGS = "--r 1,1,1,1,1,1,1,1 --s 1,1,1,1,1,1,1,1"
NINE_BUGS = "--r 1,1,1,1,1,1,1,1,1 --s 1,1,1,1,1,1,1,1,1"
CAP = "exceed the cap of 10000000"
BUDGET = "differences exceed the closed-form budget of 10000000"
STEPS = "steps to count the colonies exceed the budget of 10000000"
FULL = "error: cannot write stdout: No space left on device"

# (r, s) repeated n times, and the stdout the closed form, rewriting and the
# recurrence each print: the settlement products of the first two are long
# merged runs, those of the third are not
LONG = {("2", "1", 300):
        "5b12adc351e10806103fec3d0826b96efcd80fb622163bf2e947d79879c7e45b",
        ("2", "2", 150):
        "e123b05388adf4cf8fe1838c42d3bce36d4a60071644c5f3661e8738711bf8ca",
        ("2,3", "2,2", 50):
        "67155bcd617e23b455e6a7cbb52d67df1ab6017e19fcbacf080c0397139affcf"}
# types the walk lists, with the stdout enumeration and the recurrence each
# print, which ends in the Bell number, and the walk's total: the last bug
# of the first has three feet, that of the second one, so the walk's last
# two feet sit in different bugs
WALKED = {
    ("2,2,2,2,2", "1,1,2,2,3"): (
        "4331152bfef710cd1f0a9ac86cbddf57d18170314235a06412919e394a0e5bfb",
        127343),
    ("2,2,2,2,2,2", "1,2,2,1,2,1"): (
        "38f49877ce7f2e395d90bbeede480a5b57369e5b5bfd644b728b7375fdbdf016",
        88453)}

CONTRACT = {
    "selfcheck-non-block-word": Row("selfcheck --word 'a^2 ad'",
                                    out=(passes, 4)),
    "selfcheck-three-bugs": Row("selfcheck --r 1,1,1 --s 1,1,1",
                                out=(passes, 4)),
    # 4 213 597 and 27 644 437 colonies
    "selfcheck-twelve-bugs": Row(f"selfcheck --r {ONES} --s {ONES}",
                                 out=(passes, 4), seconds=8),
    "selfcheck-thirteen-bugs": Row(
        f"selfcheck --r {ONES},1 --s {ONES},1 --enum-cap 30000000",
        out=(passes, 4), seconds=5),
    # refused by the largest Dobinski term without the exact count, which is
    # 6.01664e+5772, 3.64436e+9176 and 9.99999e+4799 colonies: no row waits
    # on the recurrence
    "selfcheck-over-the-cap": Row(
        "selfcheck --r 2000,2000 --s 2000,2000", 1,
        err=f"error: more than 4.54273e+5771 colonies {CAP}", seconds=2),
    "selfcheck-far-over-the-cap": Row(
        "selfcheck --r 3000,3000 --s 3000,3000", 1,
        err=f"error: more than 2.49311e+9175 colonies {CAP}", seconds=2),
    "colonies-over-the-cap": Row(
        "colonies --r 2000,1 --s 1,2000", 1,
        err=f"error: more than 4.54273e+5771 colonies {CAP}", seconds=2),
    **{f"int-to-str-{argv.split()[0]}": Row(
        f"{argv} --r {10**120},1 --s 1,40", 1,
        err=f"error: more than 3.33333e+4799 colonies {CAP}")
       for argv in ("colonies", "settlements --m 3", "bell --method enumerate",
                    "stirling --method enumerate", "selfcheck")},
    # the peak past 2^14, confirmed in integers, and a p(m) past PEAK_BITS,
    # refused by the float bound: both ran unbounded before
    "colonies-peak-past-two-to-the-fourteen": Row(
        "colonies --r 10000,10000 --s 10000,20000", 1,
        err=f"error: more than 4.26083e+41677 colonies {CAP}", seconds=2,
        kb=400_000),
    "colonies-peak-past-the-bit-limit": Row(
        "colonies --r 1000000,1 --s 1,100000", 1,
        err=f"error: more than 10^597751 colonies {CAP}", seconds=2,
        kb=400_000),
    # one colony, with more feet than the cap: no bound decides it, and its
    # count is refused by the recurrence's budget before its first step
    **{f"{argv.split()[0]}-one-colony-past-the-budget": Row(
        argv, 1, err=f"error: cap undecided: {steps} {STEPS}", seconds=2,
        kb=400_000)
       for argv, steps in [
           (f"colonies --r 1 --s {10**8}", 10**8),
           (f"settlements --r 1 --s {10**12} --m 2", 10**12),
           (f"stirling --method enumerate --r 1 --s {10**12}", 10**12),
           (f"selfcheck --r 1 --s {10**12}", 10**12)]},
    "colonies-million-cell-bug": Row(
        "colonies --r 1,1000000 --s 1,1", out=(last_line, "total 2"),
        seconds=30, kb=400_000),
    "colonies-one-bug-with-many-feet": Row("colonies --r 1 --s 5000",
                                           out=(last_line, "total 1")),
    "forests-wide": Row("forests --arity 100000 --n 2", out="100001\n",
                        seconds=30, kb=400_000),
    "forests-past-the-doubling-bound": Row(
        "forests --arity 2 --n 1000000000000", 1,
        err=f"error: at least 2^999999999999 forests {CAP}",
        seconds=5, kb=400_000),
    "forests-past-the-int-to-str-limit": Row(
        f"forests --arity {10**120} --n 40", 1,
        err=f"error: at least 2^39 forests {CAP}"),
    # (sum(s) + 1)^2 differences, refused before p(0..sum(s)) is built: an
    # OverflowError and a MemoryError traceback without the budget
    "closed-form-past-an-index-size": Row(
        f"stirling --method closed-form --r 1 --s {10**30}", 1,
        err=f"error: {(10**30 + 1)**2} {BUDGET}", seconds=2, kb=400_000),
    "closed-form-past-memory": Row(
        f"stirling --method closed-form --r 1 --s {10**11}", 1,
        err=f"error: {(10**11 + 1)**2} {BUDGET}", seconds=2, kb=400_000),
    "series-arity-past-its-bound": Row(
        "series --arity 100000000 --order 1", 2,
        err="argument --arity: must be at most 100000", seconds=30,
        kb=400_000),
    "dobinski-tiny-x-json": Row(
        "dobinski --r 1 --s 1 --x 1e-5000 --format json", out=(sha256,
        "554f75178900cebe9153c682440d49f936ddbdee067777c3a4bce15618b32512")),
    "dobinski-overlong-x": Row(
        "dobinski --r 1 --s 1 --x 1e10000000", 2,
        err=f"error: x may have at most {MAX_DIGITS} digits, counting its "
            "decimal exponent (byte 0)", seconds=5),
    "digits-above-limit": Row(
        f"dobinski --r 1 --s 1 --digits {MAX_DIGITS + 1}", 2,
        err=f"at most {MAX_DIGITS}"),
    # no feet, so B(x) = 1 exactly and no series is summed
    "digits-at-limit": Row(f"dobinski --word ad^3 --digits {MAX_DIGITS}",
                           out="1." + "0" * (MAX_DIGITS - 1) + "\n"),
    "stirling-json-byte-stable": Row(
        "stirling --r 3,2,1,3 --s 2,2,2,3 --format json", out=(sha256,
        "41da7046d8af39ef7dfe5604079edfba51c2a4132c76de9abbdcd09cc52e61d1")),
    # one run of 3 000 creators over a one-term row: a child took 0.65 s
    # by the crossing formula and about 6 s crossing one creator per pass
    # (Python 3.11 on a 2-CPU VM)
    "rewrite-long-creator-run": Row(
        "bell --method rewrite --word 'a^3000 ad^3000'", out=(sha256,
        "91f9bf15323bb2056e09c6477bdf8fb250224e32798990c1a424d7a0ca3fb5d2"),
        seconds=3),
    "stirling-csv": Row("stirling --r 2,2 --s 1,1 --format csv",
                        out="k,S_k\n1,2\n2,1\n"),
    **{f"{method}-r{r}-s{s}-x{n}": Row(
        f"stirling --method {method} --r {','.join([r] * n)} "
        f"--s {','.join([s] * n)}", out=(sha256, digest), seconds=20)
       for (r, s, n), digest in LONG.items()
       for method in ("closed-form", "rewrite", "recurrence")},
    **{f"{method}-r{r}-s{s}": Row(
        f"stirling --method {method} --r {r} --s {s}", out=(sha256, digest),
        seconds=20)
       for (r, s), (digest, _) in WALKED.items()
       for method in ("enumerate", "recurrence")},
    **{f"colonies-r{r}-s{s}": Row(
        f"colonies --r {r} --s {s}", out=(last_line, f"total {total}"),
        seconds=30)
       for (r, s), (_, total) in WALKED.items()},
    **{f"{sub}-help": Row(f"{sub} --help",
                          out=(usage, f"usage: bosonorder {sub}"))
       for sub in ("order", "stirling", "bell", "dobinski", "colonies",
                   "settlements", "forests", "series", "selfcheck")},
    "order-digits": Row(
        "order --word 'ad a' --digits 5", 2,
        err="bosonorder order: error: unrecognized arguments: --digits 5"),
    "selfcheck-m-max": Row("selfcheck --r 1,1 --s 1,1 --m-max 4", 2,
                           err="unrecognized arguments: --m-max 4"),
    "order-rejects-csv": Row("order --word 'ad a' --format csv", 2,
                             err="invalid choice"),
    "parse-error": Row("stirling --word 'ad qq'", 2, err="(byte 3)"),
    "out-directory": Row("order --word ad --out /", 2,
                         err="error: cannot write /: Is a directory"),
    "out-empty": Row("order --word ad --out ''", 2,
                     err='error: cannot write "": No such file or directory'),
    "full-stdout-bell": Row("bell --r 1,1 --s 1,1", 2, err=FULL,
                            stdout="/dev/full"),
    "full-stdout-colonies": Row(f"colonies {EIGHT_BUGS}", 2, err=FULL,
                                stdout="/dev/full"),
    "env-cap-honored": Row(
        "colonies --r 3,2,1,3 --s 2,2,2,3", 1, cap="1000",
        err="error: more than 3000 colonies exceed the cap of 1000"),
    "flag-overrides-env": Row(
        "bell --r 2,2 --s 1,1 --method enumerate --enum-cap 100", out="3\n",
        cap="1"),
    "env-cap-ignored-without-enum-cap-flag": Row(
        "order --word 'a ad'", out="1 + ad a\n", cap="lots"),
    "bad-env-cap": Row("colonies --r 1 --s 1", 2, cap="lots",
                       err="BOSON_ORDER_ENUM_CAP must be a positive integer"),
    # limits below 1; the env cap is refused on every subcommand that takes
    # --enum-cap, bell too, where the request would not enumerate
    **{name: Row(argv, 2, err="positive", cap=cap) for name, argv, cap in [
        ("enum-cap-negative", "colonies --r 1,1 --s 1,1 --enum-cap -5", None),
        ("enum-cap-zero", "colonies --r 1,1 --s 1,1 --enum-cap 0", None),
        ("max-terms-zero", "dobinski --r 1 --s 1 --max-terms 0", None),
        ("digits-zero", "dobinski --r 1 --s 1 --digits 0", None),
        ("env-cap-zero", "colonies --r 1,1 --s 1,1", "0"),
        ("env-cap-negative", "colonies --r 1,1 --s 1,1", "-3"),
        ("env-cap-not-a-number-on-bell", "bell --r 1,1 --s 1,1", "lots"),
    ]},
}

# a 30-factor type with nonnegative prefix excesses, so every table method
# accepts it
THIRTY_R = "3,2,3,1,3,3,1,2,1,2,2,3,1,1,2,1,3,1,1,1,1,3,3,2,3,2,3,1,2,1"
THIRTY_S = "1,2,2,1,2,1,2,2,1,2,2,2,1,1,1,2,1,1,2,2,1,1,2,2,2,2,2,1,1,1"

SELFCHECK_111_JSON = """\
{
  "type": {
    "r": [
      1,
      1,
      1
    ],
    "s": [
      1,
      1,
      1
    ]
  },
  "checks": [
    {
      "name": "stirling tables agree",
      "status": "pass",
      "detail": "4 methods on table {1: 1, 2: 3, 3: 1}"
    },
    {
      "name": "empty cells equal excess plus free legs",
      "status": "pass",
      "detail": ""
    },
    {
      "name": "settlement counts agree",
      "status": "pass",
      "detail": "m = 0..3"
    },
    {
      "name": "dobinski series gives the bell number",
      "status": "pass",
      "detail": "bell 5 to 1e-25 in 32 terms"
    }
  ]
}
"""

SERIES_TREE_3_6 = """\
{
  "kind": "tree",
  "arity": 3,
  "order": 6,
  "convention": "egf",
  "coefficients": [
    "1",
    "1",
    "3/2",
    "5/2",
    "35/8",
    "63/8",
    "231/16"
  ],
  "counts": [
    "1",
    "1",
    "3",
    "15",
    "105",
    "945",
    "10395"
  ]
}
"""

SERIES_FOREST_3_6 = """\
{
  "kind": "forest",
  "arity": 3,
  "order": 6,
  "convention": "egf",
  "coefficients": [
    "1",
    "1",
    "2",
    "25/6",
    "211/24",
    "559/30",
    "28471/720"
  ],
  "counts": [
    "1",
    "1",
    "4",
    "25",
    "211",
    "2236",
    "28471"
  ]
}
"""

IN_PROCESS = {
    "stirling-json-shape": Row(
        "stirling --r 1,1 --s 1,1 --format json", out=(json.loads, {
            "type": {"r": [1, 1], "s": [1, 1]}, "d": 0,
            "stirling": {"1": "1", "2": "1"}, "bell": "2",
            "method": "recurrence"})),
    # auto takes the recurrence, keyed by surviving annihilators
    "rewrite-refuses-negative-excess": Row(
        "stirling --word 'a^2 ad' --method rewrite", 1,
        err="error: excess -1 < 0: no creation prefix to factor out"),
    "auto-answers-negative-excess": Row(
        "stirling --word 'a^2 ad'",
        out="d = -1\nS(1) = 2\nS(2) = 1\nbell = 3\n"),
    # prefix excesses (0, -1, 1): the full closed-form table takes them
    **{f"{method}-negative-prefix": Row(
        f"stirling --r 1,3 --s 2,1 --method {method}",
        out="d = 1\nS(2) = 1\nS(3) = 1\nbell = 2\n")
       for method in ("closed-form", "recurrence")},
    "order-ungrouped-word": Row("order --word 'a ad a ad'",
                                out="1 + 3 ad a + ad^2 a^2\n"),
    "stirling-ungrouped-word": Row(
        "stirling --word 'a ad a ad'",
        out="d = 0\nS(0) = 1\nS(1) = 3\nS(2) = 1\nbell = 5\n"),
    "ungrouped-word-json-type-is-padded": Row(
        "stirling --word 'a ad' --format json", out=(json.loads, {
            "type": {"r": [1, 0], "s": [0, 1]}, "d": 0,
            "stirling": {"0": "1", "1": "1"}, "bell": "2",
            "method": "recurrence"})),
    "bell-of-huge-exponent": Row("bell --r 3000000 --s 1", out="1\n"),
    "dobinski-plain": Row("dobinski --r 1,1 --s 1,1 --x 1 --digits 10",
                          out="2.000000000\n"),
    "dobinski-unreadable-x": Row(
        "dobinski --r 1 --s 1 --x nope", 2,
        err="error: cannot read 'nope' as a rational number (byte 0)"),
    "dobinski-negative-x": Row("dobinski --r 1 --s 1 --x -1", 2,
                               err="error: x must be nonnegative (byte 0)"),
    # a digit run past the int-to-str limit is unreadable: the error quotes
    # the head of --x and its length, not the whole input
    **{f"dobinski-long-unreadable-x-{name}": Row(
        f"dobinski --r 1 --s 1 --x {x}", 2,
        err=f"error: cannot read {x[:20] + '...'!r} ({len(x)} characters) "
            "as a rational number (byte 0)")
       for name, x in [("5000-ones", "1" * 5000),
                       ("max-digits-ones", "1" * MAX_DIGITS),
                       ("long-decimal", "0." + "0" * 4400 + "1"),
                       ("max-digits-letters", "x" * MAX_DIGITS)]},
    # refused before Fraction() builds 10^exponent or sums the series
    **{f"dobinski-x-past-max-digits-{name}": Row(
        f"dobinski --r 1 --s 1 --x {x}", 2,
        err=f"error: x may have at most {MAX_DIGITS} digits, counting its "
            "decimal exponent (byte 0)")
       for name, x in [*((x, x) for x in ("1e100000", "1e-100000",
                                          "1e-1000000", "1.5e+00_99999")),
                       ("long-integer", "1" * (MAX_DIGITS + 1)),
                       ("long-exponent", "1e" + "9" * 5000)]},
    # 2 * 10^99999 terms are needed before the tail bound can hold: a
    # refusal that prints the count in scientific notation
    "dobinski-x-at-max-digits": Row(
        "dobinski --r 1 --s 1 --x 1e99999", 1,
        err="error: the tail bound needs at least 2.00000e+99999 terms, "
            "over the cap of 10000"),
    "dobinski-tiny-x-digits-json": Row(
        "dobinski --r 1 --s 1 --x 1e-5000 --digits 5 --format json",
        out=(json.loads, {"type": {"r": [1], "s": [1]},
                          "x": "1/1" + "0" * 5000, "value": "1.0000E-5000",
                          "precision_digits": 5, "terms_used": 1})),
    "length-mismatch": Row("stirling --r 1,2 --s 1", 2,
                           err="error: r has 2 entries but s has 1"),
    "enum-cap-flag-refuses": Row(
        "colonies --r 3,2,1,3 --s 2,2,2,3 --enum-cap 1000", 1,
        err="error: more than 3000 colonies exceed the cap of 1000"),
    "settlements-product": Row(
        "settlements --r 1,1 --s 1,1 --m 2 --method product", out="4\n"),
    # two colonies walked, 16 000 000 settlements counted
    "settlements-wherever-the-colonies-fit": Row(
        "settlements --r 1,1 --s 1,1 --m 4000", out="16000000\n"),
    "forests-json": Row(
        "forests --arity 3 --n 4 --format json",
        out='{\n  "arity": 3,\n  "n": 4,\n  "count": "211"\n}\n'),
    "selfcheck-json": Row("selfcheck --r 1,1,1 --s 1,1,1 --format json",
                          out=SELFCHECK_111_JSON),
    **{f"{name}-out-of-range": Row(argv, 2, err=f"argument {flag}: must be")
       for name, argv, flag in [
           ("settlements-m", "settlements --r 1 --s 1 --m -1", "--m"),
           ("forests-arity", "forests --arity 0 --n 2", "--arity"),
           ("forests-n", "forests --arity 2 --n -1", "--n"),
           ("series-arity", "series --arity 1", "--arity"),
           ("series-arity-max", f"series --arity {MAX_ARITY + 1} --order 1",
            "--arity"),
           ("series-order", "series --arity 2 --order -1", "--order")]},
    "settlements-m-0": Row("settlements --r 1 --s 1 --m 0", out="0\n"),
    "forests-arity-1-n-0": Row("forests --arity 1 --n 0", out="1\n"),
    "series-arity-2-order-0": Row("series --arity 2 --order 0",
                                  out="a_0 = 1 (count 1)\n"),
    **{f"{argv.split()[0]}-takes-no-{flag[2:]}": Row(
        f"{argv} {flag} {value}", 2,
        err=f"bosonorder {argv.split()[0]}: error: unrecognized arguments: "
            f"{flag} {value}")
       for argv, flag, value in [
           ("bell --r 1 --s 1", "--max-terms", 3),
           ("series --arity 2", "--enum-cap", 3),
           ("dobinski --r 1 --s 1", "--enum-cap", 3),
           ("selfcheck --r 1 --s 1", "--x-samples", 8),
           ("bell --r 1 --s 1", "--digits", MAX_DIGITS + 1),
           ("series --arity 2", "--digits", MAX_DIGITS + 1)]},
    # the usage line is the subcommand's, not the top-level one
    **{f"{argv.split()[0]}-{name}": Row(
        argv, 2, err=f"bosonorder {argv.split()[0]}: error: provide exactly "
                     "one input: --word or --r together with --s")
       for name, argv in [("word-and-type", "order --word ad --r 1"),
                          ("word-and-type",
                           "stirling --word 'ad a' --r 1 --s 1"),
                          ("no-input", "selfcheck")]},
    "r-without-s": Row(
        "stirling --r 1,1", 2,
        err="bosonorder stirling: error: --r and --s must be given together"),
    "series-forest-counts": Row(
        "series --kind forest --arity 2 --order 5 --format json",
        out=(json.loads, {
            "kind": "forest", "arity": 2, "order": 5, "convention": "egf",
            "coefficients": ["1", "1", "3/2", "13/6", "73/24", "167/40"],
            "counts": ["1", "1", "3", "13", "73", "501"]})),
    **{f"series-{kind}-json": Row(
        f"series --kind {kind} --arity 3 --order 6 --format json",
        out=SERIES_FOREST_3_6 if kind == "forest"
        else SERIES_TREE_3_6.replace('"tree"', f'"{kind}"'))
       for kind in ("tree", "tree-closed", "forest")},
    # SHA-256 of the stdout of `colonies` listings as first released: the
    # canonical order and every serializer must stay byte-identical
    **{f"colonies-golden-{name}": Row(f"colonies {argv}",
                                      out=(sha256, digest))
       for name, argv, digest in [
           ("212-plain", "--r 2,1,2 --s 1,2,1",
            "69bf591036cb8aa635ddcc7eb524ea39448e058132ef84752e162772e3430b22"),
           ("212-json", "--r 2,1,2 --s 1,2,1 --format json",
            "ac696e4118778e04ad29948c475f404122d843b1be6a5dd68fa5700616e3fd44"),
           ("212-dot", "--r 2,1,2 --s 1,2,1 --dot",
            "79a83259b6ec846f068cad29bd511aef23b1e86977fded0087c0f78cac8267f9"),
           ("six-plain", "--r 1,1,1,1,1,1 --s 1,1,1,1,1,1",
            "9d70636eb0f6319d9521ac0a549bf33932f66b929021a7ce0205426122d25d74"),
           ("six-json", "--r 1,1,1,1,1,1 --s 1,1,1,1,1,1 --format json",
            "33ee17501dd7bd7289df4496d8fa382f53893c73cdb15f693f1aad879288e387"),
           ("six-dot", "--r 1,1,1,1,1,1 --s 1,1,1,1,1,1 --dot",
            "6eeca738f8f57ac37283521ef2d8a52ca1ad1fbd55abf7272e81d8568283db01"),
       ]},
    # SHA-256 of the stdout of the table subcommands on one 30-factor type
    # as recorded before the leg-by-leg and column-sliced kernels: the
    # tables and their serializers must stay byte-identical
    **{f"thirty-factor-golden-{name}": Row(
        f"{argv} --r {THIRTY_R} --s {THIRTY_S}", out=(sha256, digest))
       for name, argv, digest in [
           ("recurrence-plain", "stirling --method recurrence",
            "4607b6fc4fb33e4637b9b6c98eb146524bd59a6ffd766db0a7783c1873c297d1"),
           ("recurrence-json", "stirling --method recurrence --format json",
            "b9bf92c3d2a0abc8a58ed45a88814ed56e435e71a85ac010836b0893c8ca5a25"),
           ("closed-form-plain", "stirling --method closed-form",
            "4607b6fc4fb33e4637b9b6c98eb146524bd59a6ffd766db0a7783c1873c297d1"),
           ("closed-form-json", "stirling --method closed-form --format json",
            "d5b22d2b73202cae7bd3b99b7303b7646892f6a63a1c85161eed945230ded337"),
           ("bell-plain", "bell",
            "336cdee75194c8367e2d7c3ae68a1b63e14eb4df7cc482cea8e787698b22f6d0"),
           ("bell-json", "bell --format json",
            "7efd50dc83a3f29738f0d8066bad44fa977370124c0b6d9e743985cb313b10d2"),
       ]},
    # SHA-256 of the stdout of `order` as recorded while words were stored
    # one letter at a time: merging repeated tokens on construction must
    # print the same word and the same normal form
    **{f"order-golden-{name}": Row(f"order {argv}", out=(sha256, digest))
       for name, argv, digest in [
           ("word-plain", "--word 'ad ad^2 a a^3 ad a^2 ad^4'",
            "8b6ddb07b318c5569e86f7d0caab0f760527e1eadfcd016a94d3d6524ef2d89c"),
           ("word-json", "--word 'ad ad^2 a a^3 ad a^2 ad^4' --format json",
            "ff5948435b345b56877eca0656d0940b6d4a615db4ae18239cc6eeb3b53bd318"),
           ("type-plain", "--r 3,1,2 --s 1,2,2",
            "37d47a14123552511c0908c42fbdbcd7f82e64329ada63282a51ffcfbfec5ef7"),
           ("type-json", "--r 3,1,2 --s 1,2,2 --format json",
            "62652f12ef911d9cf72643ed21ff55840db5c7e2ee4dc09a8d203876c4a8e422"),
       ]},
    # exponents up to the int-to-str limit are read; longer ones are
    # refused as parse errors with a byte offset
    "longest-exponent": Row(f"order --word ad^{'9' * MAX_EXPONENT_DIGITS}",
                            out=f"ad^{'9' * MAX_EXPONENT_DIGITS}\n"),
    **{f"overlong-exponent-{name}": Row(
        argv, 2, err=f"less than 10^{MAX_EXPONENT_DIGITS} (byte {offset})")
       for name, argv, offset in [
           ("long-token", f"order --word 'ad a^{'9' * 4301}'", 3),
           ("word-sum", f"order --word 'ad^{'9' * 4300} ad'", 4304),
           ("long-entry", f"bell --r 1,{'9' * 4301} --s 1,1", 2),
           ("list-sum", f"bell --r 2,2 --s {'9' * 4300},1", 4301)]},
}

# ours, or argparse's, which names the program and subcommand
ERROR_LINE = re.compile(r"(bosonorder( \w+)?: )?error: ")


def _command(argv: str) -> list[str]:
    return [sys.executable, "-m", "bosonorder", *shlex.split(argv)]


def _env(cap: str | None = None) -> dict:
    env = dict(os.environ)
    env.pop("BOSON_ORDER_ENUM_CAP", None)
    return env if cap is None else dict(env, BOSON_ORDER_ENUM_CAP=cap)


def run(row: Row, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run row's argv in a child, under its limits."""
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (row.kb * 1024,) * 2)

    return subprocess.run(
        _command(row.argv), stdout=stdout, stderr=subprocess.PIPE, text=True,
        env=_env(row.cap), timeout=row.seconds,
        preexec_fn=limit_address_space if row.kb else None)


def check(row: Row, code: int, out: str | None, err: str) -> None:
    """Hold one run to its row and to the rules every row keeps."""
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert code == row.code, err
    last = last_line(err)
    assert ERROR_LINE.match(last) if row.code else err == "", err
    if last.startswith("error: "):
        assert err == last + "\n"
    elif last:
        assert err.startswith(f"usage: {last.partition(':')[0]} "), err
    assert last == row.err if ERROR_LINE.match(row.err) else row.err in last
    if out is not None:
        view, want = row.out if isinstance(row.out, tuple) else (str, row.out)
        assert view(out) == want


@pytest.mark.parametrize("name", CONTRACT)
def test_row(name):
    row = CONTRACT[name]
    if row.stdout is None:
        proc = run(row)
    elif os.path.exists(row.stdout):
        with open(row.stdout, "wb") as sink:
            proc = run(row, sink)
    else:
        pytest.skip(f"no {row.stdout}")
    check(row, proc.returncode, proc.stdout, proc.stderr)


def run_in_process(row: Row, monkeypatch, capsys) -> None:
    """Run row's argv through cli.main in this process and check it."""
    assert (row.seconds, row.kb, row.stdout) == Row("")[5:], "needs a child"
    monkeypatch.delenv("BOSON_ORDER_ENUM_CAP", raising=False)
    if row.cap is not None:
        monkeypatch.setenv("BOSON_ORDER_ENUM_CAP", row.cap)
    try:
        code = main(shlex.split(row.argv))
    except SystemExit as exc:       # argparse's usage errors and --help
        code = exc.code
    check(row, code, *capsys.readouterr())


@pytest.mark.parametrize("name", IN_PROCESS)
def test_in_process(name, monkeypatch, capsys):
    run_in_process(IN_PROCESS[name], monkeypatch, capsys)


def test_out_writes_file(tmp_path):
    target = shlex.quote(str(tmp_path / "table.csv"))
    proc = run(Row(f"stirling --r 2,2 --s 1,1 --format csv --out {target}"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert (tmp_path / "table.csv").read_text() == "k,S_k\n1,2\n2,1\n"


@pytest.mark.parametrize("argv, first", [
    (f"colonies {EIGHT_BUGS}", b"colony 1 (free legs 8)\n"),
    (f"colonies {NINE_BUGS} --format json", b"{\n"),
], ids=["plain", "json"])
def test_closed_pipe_exits_1_without_a_traceback(argv, first):
    # the reader leaves after one line, as `head -n 1` does
    proc = subprocess.Popen(_command(argv), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env())
    assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1]
    assert (proc.returncode, err) == (1, b"")
