"""The ``cli-oneshot`` workload: one ``python -m bosonorder`` child per
request, as in the README examples.

The mix covers all nine subcommands and the plain/json/csv formats with
small inputs, a fixed share of ``--out`` requests, a fixed share of large
``colonies --format json`` listings and a fixed share of requests that the
CLI must refuse.  Each answer is parsed back and compared with a reference
computed in-process, during set-up, by another route.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Optional

import bosonorder as bo
import bosonorder.cli as bocli

from common import (Op, bell, decimal_ref, expect, general_word,
                    nonneg_type_exps, rand_type_exps, recurrence_table,
                    table_to_coeffs, within_ulp)

RATE = 10.0            # requests per second of --seconds
LISTING_SHARE = 0.015  # colonies --format json of 8-9 single-leg bugs
REFUSE_SHARE = 0.04
OUT_SHARE = 0.15
SUBCOMMANDS = ("order", "stirling", "bell", "dobinski", "colonies",
               "settlements", "forests", "series", "selfcheck")
ENUM_BELL_MAX = 2000   # keeps enumeration-backed requests small


@dataclass
class Request(Op):
    argv: list = field(default_factory=list)
    out: Optional[str] = None


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("BOSON_ORDER_ENUM_CAP", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def run_child(req: Request, root: Path, env: dict):
    """Run one request as a child process.

    Returns (exit code, output text, child peak RSS in KiB)."""
    proc = subprocess.Popen([sys.executable, "-m", "bosonorder", *req.argv],
                            cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    with proc.stdout:
        data = proc.stdout.read()
    # wait4 gives this child's own rusage; Popen.wait would drop it
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, _collect(req, root, data.decode("utf-8")), \
        usage.ru_maxrss


def run_inprocess(req: Request, root: Path):
    """Replay one request through bosonorder.cli.main, stdout captured."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        try:
            code = bocli.main(list(req.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, _collect(req, root, buf.getvalue())


def _collect(req: Request, root: Path, stdout_text: str) -> str:
    if not req.out:
        return stdout_text
    path = root / req.out
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return stdout_text
    finally:
        path.unlink(missing_ok=True)


# ---------------------------------------------------------------- text forms


def type_args(t) -> list[str]:
    return ["--r", ",".join(map(str, t.r)), "--s", ",".join(map(str, t.s))]


def _monomials(coeffs: dict[int, int], excess: int) -> dict:
    up, down = max(excess, 0), max(-excess, 0)
    return {(k + up, k + down): c for k, c in coeffs.items()}


def _parse_plain_form(text: str) -> dict:
    terms = {}
    for part in text.strip().split(" + "):
        toks = part.split()
        coeff = 1
        if toks[0].isdigit():
            coeff = int(toks[0])
            toks = toks[1:]
        i = j = 0
        for tok in toks:
            base, _, power = tok.partition("^")
            value = int(power) if power else 1
            if base == "ad":
                i = value
            else:
                j = value
        terms[(i, j)] = coeff
    return terms


def _lines(text: str) -> list[str]:
    return text.strip().split("\n")


# ---------------------------------------------------------------- checks


def _check_form(ref_coeffs, excess, fmt):
    def check(text):
        if fmt == "json":
            got = json.loads(text)
            expect(got["excess"] == excess, "order: excess")
            expect(got["terms"] == {str(k): str(v)
                                    for k, v in ref_coeffs.items()},
                   "order: terms")
        else:
            expect(_parse_plain_form(text) == _monomials(ref_coeffs, excess),
                   "order: normal form")
    return check


def _check_table(table, d, fmt, bell_only):
    bell = sum(table.values())

    def check(text):
        if fmt == "json":
            got = json.loads(text)
            expect(got["d"] == d and got["bell"] == str(bell), "table: bell")
            if not bell_only:
                expect(got["stirling"] == {str(k): str(v) for k, v
                                           in sorted(table.items())},
                       "table: values")
        elif bell_only:
            expect(text.strip() == str(bell), "bell")
        elif fmt == "csv":
            rows = _lines(text)
            expect(rows[0] == "k,S_k", "csv header")
            expect({int(k): int(v) for k, v in
                    (row.split(",") for row in rows[1:])} == table,
                   "csv table")
        else:
            rows = _lines(text)
            expect(rows[0] == f"d = {d}" and rows[-1] == f"bell = {bell}",
                   "plain table: d and bell")
            got = {}
            for row in rows[1:-1]:
                lhs, rhs = row.split(" = ")
                got[int(lhs[2:-1])] = int(rhs)
            expect(got == table, "plain table values")
    return check


def _check_decimal(ref, digits, fmt):
    def check(text):
        raw = json.loads(text)["value"] if fmt == "json" else text.strip()
        expect(within_ulp(Decimal(raw), ref, digits),
               f"dobinski: {raw} vs {ref}")
    return check


def _check_colonies(table, fmt, dot):
    bell = sum(table.values())

    def check(text):
        if dot:
            expect(text.count("digraph colony {") == bell, "dot: colonies")
        elif fmt == "json":
            got = json.loads(text)
            expect(got["count"] == bell and len(got["colonies"]) == bell,
                   "colonies: count")
            expect(got["by_free_legs"] == {str(k): str(v) for k, v
                                           in sorted(table.items())},
                   "colonies: by free legs")
        else:
            heads = [ln for ln in _lines(text) if ln.startswith("colony ")]
            hist: dict[int, int] = {}
            for ln in heads:
                k = int(ln.rsplit(" ", 1)[1].rstrip(")"))
                hist[k] = hist.get(k, 0) + 1
            expect(hist == table and _lines(text)[-1] == f"total {bell}",
                   "colonies: listing")
    return check


def _check_count(ref, fmt):
    def check(text):
        got = json.loads(text)["count"] if fmt == "json" else text.strip()
        expect(got == str(ref), f"count {got} != {ref}")
    return check


def _check_counts(ref_counts, fmt):
    def check(text):
        if fmt == "json":
            got = json.loads(text)["counts"]
        else:
            got = [ln.rsplit("(count ", 1)[1].rstrip(")")
                   for ln in _lines(text)]
        expect(got == [str(c) for c in ref_counts], "series counts")
    return check


def _check_selfcheck(fmt):
    def check(text):
        if fmt == "json":
            statuses = [c["status"] for c in json.loads(text)["checks"]]
        else:
            statuses = [ln.split(" ", 1)[0].lower() for ln in _lines(text)]
        expect(len(statuses) == 4 and "fail" not in statuses,
               f"selfcheck statuses {statuses}")
    return check


# ---------------------------------------------------------------- requests


def _small_type(rng, n_max, exps, bell_max, nonneg=False, bell_min=1):
    make = nonneg_type_exps if nonneg else rand_type_exps
    while True:
        t = bo.StringType(*make(rng, rng.randint(1, n_max), exps))
        if bell_min <= bell(t) <= bell_max:
            return t


def _forest_count(r, n):
    return bell(bo.StringType.uniform(r, 1, n)) if n else 1


def _request(rng, sub: str) -> Request:
    fmt = rng.choice(("plain", "json"))
    if sub == "order":
        if rng.random() < 0.5:
            w = general_word(rng, rng.randint(2, 12))
            ref = bo.normal_order(w, method="letterwise")
            coeffs, excess = dict(ref.coeffs), ref.excess
            args = ["--word", bocli.word_to_text(w)]
        else:
            t = _small_type(rng, 4, (1, 2, 3), 10 ** 6)
            coeffs = table_to_coeffs(recurrence_table(t), t.excess)
            excess = t.excess
            args = type_args(t)
        return Request(sub, None, _check_form(coeffs, excess, fmt),
                       argv=[sub, *args, "--format", fmt])
    if sub in ("stirling", "bell"):
        if sub == "stirling":
            fmt = rng.choice(("plain", "json", "csv"))
        t = _small_type(rng, 4, (1, 2, 3), ENUM_BELL_MAX)
        methods = ["auto", "recurrence", "enumerate"]
        if t.excess >= 0:
            methods.append("rewrite")
        if t.has_nonnegative_prefixes():
            methods.append("closed-form")
        method = rng.choice(methods)
        # the reference must come from another route than the request's
        if method in ("auto", "recurrence"):
            table = bo.count_colonies_by_free_legs(t)
        else:
            table = recurrence_table(t)
        args = type_args(t)
        if rng.random() < 0.3:
            args = ["--word", bocli.word_to_text(bo.word_from_type(t))]
        return Request(sub, None,
                       _check_table(table, t.excess, fmt, sub == "bell"),
                       argv=[sub, *args, "--method", method, "--format", fmt])
    if sub == "dobinski":
        t = _small_type(rng, 3, (1, 2, 3), 10 ** 6, nonneg=True)
        x = Fraction(rng.randint(1, 40), rng.choice((1, 2, 3, 4)))
        digits = rng.randint(20, 60)
        ref = decimal_ref(bo.bell_polynomial(t).evaluate(x), digits)
        return Request(sub, None, _check_decimal(ref, digits, fmt),
                       argv=[sub, *type_args(t), "--x", str(x),
                             "--digits", str(digits), "--format", fmt])
    if sub == "colonies":
        t = _small_type(rng, 4, (1, 2), 150)
        dot = rng.random() < 0.3
        argv = [sub, *type_args(t), "--format", fmt] + (["--dot"] if dot
                                                        else [])
        return Request(sub, None,
                       _check_colonies(recurrence_table(t), fmt, dot),
                       argv=argv)
    if sub == "settlements":
        t = _small_type(rng, 4, (1, 2), 1500, nonneg=True)
        m = rng.randint(0, 5)
        ref = sum(v * math.perm(m, k)
                  for k, v in recurrence_table(t).items())
        return Request(sub, None, _check_count(ref, fmt),
                       argv=[sub, *type_args(t), "--m", str(m), "--method",
                             rng.choice(("enumerate", "product")),
                             "--format", fmt])
    if sub == "forests":
        while True:
            r, n = rng.randint(1, 3), rng.randint(0, 7)
            if _forest_count(r, n) <= 5000:
                break
        return Request(sub, None, _check_count(_forest_count(r, n), fmt),
                       argv=[sub, "--arity", str(r), "--n", str(n),
                             "--format", fmt])
    if sub == "series":
        kind = rng.choice(("tree", "tree-closed", "forest"))
        r, order = rng.randint(2, 4), rng.randint(0, 8)
        if kind == "forest":
            ref = [_forest_count(r, n) for n in range(order + 1)]
        else:
            other = (bo.tree_series_closed_form if kind == "tree"
                     else bo.tree_series)(r, order)
            ref = [math.factorial(n) * c for n, c in enumerate(other.coeffs)]
        return Request(sub, None, _check_counts(ref, fmt),
                       argv=[sub, "--kind", kind, "--arity", str(r),
                             "--order", str(order), "--format", fmt])
    assert sub == "selfcheck"
    t = _small_type(rng, 3, (1, 2), 200)
    return Request(sub, None, _check_selfcheck(fmt),
                   argv=[sub, *type_args(t), "--format", fmt])


def _listing(rng, bugs: int) -> Request:
    # r of the last bug never changes the colonies, so the 9-bug listing
    # has the same size in every run while its input still varies
    r = [1] * bugs
    if bugs == 8 and rng.random() < 0.5:
        r[rng.randrange(1, 7)] = 2
    r[-1] = rng.randint(1, 3)
    t = bo.StringType(tuple(r), (1,) * bugs)
    return Request("listing", None,
                   _check_colonies(recurrence_table(t), "json", False),
                   argv=["colonies", *type_args(t), "--format", "json"])


def _refusal(rng, cls: int) -> Request:
    """Refusal classes of the README: parse errors, over-cap enumeration,
    non-positive caps and term limits, negative excess, unreachable
    precision.  The expected code is the documented one even where the
    CLI is known to return another (non-positive caps and term limits)."""
    t = _small_type(rng, 3, (1, 2), 400, nonneg=True, bell_min=5)
    bad_cap = str(-rng.randint(0, 9))
    cases = [
        (2, ["order", "--word", f"ad^{rng.randint(1, 5)} b a"]),
        (2, ["bell", "--r", f"{rng.randint(1, 3)},0", "--s", "1,1"]),
        (2, ["stirling", "--r", ",".join(["1"] * rng.randint(2, 4)),
             "--s", "1"]),
        (1, ["colonies", *type_args(t), "--enum-cap",
             str(max(1, bell(t) - rng.randint(1, 3)))]),
        (1, ["stirling", "--word",
             bocli.word_to_text(bo.BosonWord(
                 (bo.ANNIHILATION,) * rng.randint(2, 4) + (bo.CREATION,))),
             "--method", "rewrite"]),
        (1, ["dobinski", *type_args(t), "--x", str(rng.randint(30, 60)),
             "--max-terms", str(rng.randint(2, 6))]),
        (2, ["colonies", *type_args(t), "--enum-cap", bad_cap]),
        (2, ["dobinski", *type_args(t), "--max-terms", bad_cap]),
        (2, ["dobinski", *type_args(t), "--digits", bad_cap]),
    ]
    code, argv = cases[cls % len(cases)]
    return Request(f"refuse{cls % len(cases)}", None, refuse=code, argv=argv)


REFUSAL_CLASSES = 9


def requests(rng: random.Random, seconds: float, tag: str,
             warmup: bool = False) -> list[Request]:
    """The seeded request list of a run; a warm-up list holds one regular
    request per subcommand and nothing large."""
    if warmup:
        total = regular = len(SUBCOMMANDS)
        listings = refusals = 0
    else:
        total = max(40, round(RATE * seconds))
        listings = max(2, round(LISTING_SHARE * total))
        refusals = max(REFUSAL_CLASSES, round(REFUSE_SHARE * total))
        regular = total - listings - refusals
    subs = [SUBCOMMANDS[i % len(SUBCOMMANDS)] for i in range(regular)]
    reqs = [_request(rng, sub) for sub in subs]
    for i, req in enumerate(rng.sample(reqs, round(OUT_SHARE * regular))):
        req.out = f"perfbench/out/{tag}-{i}.txt"
        req.argv += ["--out", req.out]
    reqs += [_listing(rng, 9 if i == 0 else 8) for i in range(listings)]
    reqs += [_refusal(rng, i) for i in range(refusals)]
    return reqs
