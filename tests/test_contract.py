"""The command line's contract as one table.  Each row runs a child
``python -m bosonorder`` under a wall-time limit and, where it sets one, an
address-space limit, and states its exit code, stdout and stderr.  The child
imports the ``bosonorder`` its environment finds: ``src/`` under
``PYTHONPATH=src``, or the installed package.

On every row stderr holds no traceback, is empty on exit 0 and otherwise
ends with an ``error:`` line: ours, then all of stderr, or argparse's.
"""

import hashlib
import os
import re
import resource
import shlex
import subprocess
import sys
from typing import NamedTuple

import pytest

from bosonorder.cli import MAX_DIGITS


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
    err: str = ""               # text the last line of stderr holds
    cap: str | None = None      # BOSON_ORDER_ENUM_CAP; unset when None
    seconds: float = 60
    kb: int | None = None       # address-space limit, as `ulimit -v` takes
    stdout: str | None = None   # a file stdout goes to; then out is unread


ONES = ",".join("1" * 12)
EIGHT_BUGS = "--r 1,1,1,1,1,1,1,1 --s 1,1,1,1,1,1,1,1"
NINE_BUGS = "--r 1,1,1,1,1,1,1,1,1 --s 1,1,1,1,1,1,1,1,1"
CAP = "exceed the cap of 10000000"
BUDGET = "differences exceed the closed-form budget of 10000000"
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
    "dobinski-overlong-x": Row("dobinski --r 1 --s 1 --x 1e10000000", 2,
                               err="x may have at most 100000 digits",
                               seconds=5),
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
    "order-digits": Row("order --word 'ad a' --digits 5", 2,
                        err="unrecognized arguments: --digits 5"),
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
    err = proc.stderr
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert proc.returncode == row.code, err
    last = last_line(err)
    if row.code:
        assert ERROR_LINE.match(last), err
    else:
        assert err == ""
    if last.startswith("error: "):
        assert err == last + "\n"
    assert row.err in last
    if row.stdout is None:
        view, want = row.out if isinstance(row.out, tuple) else (str, row.out)
        assert view(proc.stdout) == want


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
