import argparse
import hashlib
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonorder import (ANNIHILATION, CREATION, ApproxValue, BosonWord,
                        LengthMismatch, NormalForm, ParseError, StirlingTable,
                        StringType, apply_crossing, normal_order,
                        stirling_recurrence, type_from_word)
from bosonorder import cli, combinat
from bosonorder.cli import (MAX_DIGITS, MAX_EXPONENT_DIGITS, build_parser,
                            main, parse_type, parse_word, run_selfcheck,
                            word_to_text)

SHOWCASE = StringType((3, 2, 1, 3), (2, 2, 2, 3))

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


def run_cli(*argv, env_overrides=None):
    env = dict(os.environ)
    env.pop("BOSON_ORDER_ENUM_CAP", None)
    if env_overrides:
        env.update(env_overrides)
    return subprocess.run([sys.executable, "-m", "bosonorder", *argv],
                          capture_output=True, text=True, env=env)


class TestParseWord:
    def test_plain_tokens(self):
        assert parse_word("ad a").letters == (CREATION, ANNIHILATION)

    def test_exponents(self):
        word = parse_word("ad^3 a^2 ad^2 a^2")
        assert word.letters == (CREATION,) * 3 + (ANNIHILATION,) * 2 \
            + (CREATION,) * 2 + (ANNIHILATION,) * 2

    def test_huge_exponents_stay_runs(self):
        word = parse_word("ad^1000000 a^1000000")
        assert word.runs == ((CREATION, 10 ** 6), (ANNIHILATION, 10 ** 6))
        assert normal_order(word) == NormalForm(0, {10 ** 6: 1})

    def test_huge_crossing(self):
        # a^2 (a+)^L: three terms, each keyed by its surviving annihilators
        form = normal_order(parse_word("a^2 ad^1000000"))
        assert form == NormalForm(10 ** 6 - 2, {
            2 - p: c for p, c in apply_crossing(2, 10 ** 6)})

    def test_empty_text_is_empty_word(self):
        assert parse_word("").letters == ()

    def test_unknown_token_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_word("bogus")
        assert exc.value.offset == 0

    def test_offset_points_at_bad_token(self):
        with pytest.raises(ParseError) as exc:
            parse_word("ad xx")
        assert exc.value.offset == 3
        assert "(byte 3)" in str(exc.value)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_word("ad^0")

    def test_glued_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_word("ada")


class TestWordText:
    def test_round_trip_example(self):
        text = "ad^3 a^2 ad^2 a^2"
        assert word_to_text(parse_word(text)) == text

    def test_single_letters_unexponented(self):
        assert word_to_text(BosonWord((CREATION, ANNIHILATION))) == "ad a"

    @given(st.lists(st.sampled_from([CREATION, ANNIHILATION]), max_size=12))
    @settings(deadline=None)
    def test_round_trip(self, letters):
        word = BosonWord(tuple(letters))
        assert parse_word(word_to_text(word)) == word


class TestParseType:
    def test_example(self):
        assert parse_type("3,2,1,3", "2,2,2,3") == SHOWCASE

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            parse_type("1,2", "1")

    def test_bad_entry_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_type("1,x,2", "1,1,1")
        assert exc.value.offset == 2

    def test_zero_entry_rejected(self):
        with pytest.raises(ParseError):
            parse_type("0,1", "1,1")


class TestSelfcheck:
    def test_all_pass(self):
        results = run_selfcheck(StringType.uniform(1, 1, 3))
        assert [r.status for r in results] == ["pass"] * 4

    def test_two_bug_type(self):
        results = run_selfcheck(StringType.uniform(2, 1, 2))
        assert all(r.status == "pass" for r in results)

    def test_negative_prefix_runs_identity(self):
        # prefix excesses (0, 0, -2, 0): the closed form joins the table
        # check, whose agreement proves the falling-factorial identity
        t = StringType((1, 1, 3), (1, 3, 1))
        results = run_selfcheck(t)
        assert [(r.name, r.status) for r in results] == [
            ("stirling tables agree", "pass"),
            ("empty cells equal excess plus free legs", "pass"),
            ("settlement counts agree", "pass"),
            ("dobinski series gives the bell number", "pass")]
        assert results[0].detail == \
            f"4 methods on table {dict(stirling_recurrence(t).values)}"
        assert run_selfcheck(StringType((1, 3), (2, 1)))[0].detail \
            == "4 methods on table {2: 1, 3: 1}"

    def test_identity_reaches_the_top_entry(self, monkeypatch):
        # (x)_k = 0 for x < k, so an error in S(sum(s)) shows only at
        # x = sum(s), here 8, the last point the closed form reads
        t = StringType.uniform(1, 1, 8)
        right = stirling_recurrence(t).values
        top = max(right)
        wrong = {**right, top: right[top] + 1}
        monkeypatch.setattr(cli, "stirling_recurrence",
                            lambda u: StirlingTable(u, wrong))
        tables = run_selfcheck(t)[0]
        assert tables.status == "fail"
        assert tables.detail == (
            f"recurrence gives {wrong}, others {{'rewrite': {right}, "
            f"'closed-form': {right}, 'enumerate': {right}}}")

    def test_identity_covers_every_degree(self, monkeypatch):
        # sum(s) = 13 and excess -11: the closed form reads p(0..13), and
        # the series cannot stop before m = 14, so its term cap counts
        # from there: 41 terms fit a cap of 13 + 30, not one of 30
        monkeypatch.setattr(cli, "DEFAULT_MAX_TERMS", 30)
        results = run_selfcheck(StringType((1, 1), (1, 12)))
        assert results[0].detail == "3 methods on table {12: 12, 13: 1}"
        assert results[2].detail == "m = 0..13"
        assert results[-1].detail == "bell 13 to 1e-25 in 41 terms"
        assert all(r.status == "pass" for r in results)

    def test_walks_the_colonies_twice(self, monkeypatch):
        # check 1's enumeration route, then one stream for checks 2 and 3
        walks = []
        walk = combinat._walk

        def counted(*args):
            walks.append(args[0])
            return walk(*args)

        monkeypatch.setattr(combinat, "_walk", counted)
        t = StringType.uniform(1, 1, 3)
        assert [r.status for r in run_selfcheck(t)] == ["pass"] * 4
        assert walks == [t, t]

    def test_settlement_check_reads_the_walked_colonies(self, monkeypatch):
        # the first colony, all three feet on the ground, goes missing:
        # only (m)_3 at m = 3 sees it, 27 settlements counted as 21
        every = cli.enumerate_colonies
        monkeypatch.setattr(cli, "enumerate_colonies",
                            lambda t, cap: islice(every(t, cap), 1, None))
        results = run_selfcheck(StringType.uniform(1, 1, 3))
        assert [r.status for r in results] == ["pass", "pass", "fail", "pass"]
        assert results[2].detail == "(m, enumerated, product) = [(3, 21, 27)]"

    def test_numeric_check_fails_one_unit_off(self, monkeypatch):
        t = StringType.uniform(1, 1, 3)
        right = cli.dobinski_eval(t, 1, 30)
        assert right.value == 5
        wrong = right.value + 1
        monkeypatch.setattr(cli, "dobinski_eval", lambda *args: ApproxValue(
            wrong, right.precision_digits, right.terms_used))
        results = run_selfcheck(t)
        assert [r.status for r in results] == ["pass"] * 3 + ["fail"]
        assert results[-1].detail == f"{wrong} vs 5"


def _readme_examples():
    # (argv, stdout) for every "$ bosonorder ..." line of README.md whose
    # output follows in full (up to a blank line or the next "$"), and for
    # the JSON block printed verbatim; an example with no output, or whose
    # output elides lines with "...", is not a full transcript
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", text, re.S | re.M):
        for command, output in re.findall(
                r"^\$ bosonorder (.*)\n((?:(?!\$ )[^\n]+\n)*)", block, re.M):
            if output and "..." not in output:
                examples.append((shlex.split(command, comments=True), output))
    for command, output in re.findall(
            r"`bosonorder ([^`]*)`,?\s+verbatim:\s+```json\n(.*?)^```",
            text, re.S | re.M):
        examples.append((shlex.split(command), output))
    return examples


README_EXAMPLES = _readme_examples()


class TestReadme:
    def test_examples_found(self):
        assert README_EXAMPLES

    @pytest.mark.parametrize("argv, expected", README_EXAMPLES,
                             ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
    def test_example_output(self, argv, expected, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestMainInProcess:
    def test_order_expression(self, capsys):
        assert main(["order", "--word", "a^2 ad^2"]) == 0
        assert capsys.readouterr().out == "2 + 4 ad a + ad^2 a^2\n"

    def test_stirling_json_shape(self, capsys):
        assert main(["stirling", "--r", "1,1", "--s", "1,1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "type": {"r": [1, 1], "s": [1, 1]},
            "d": 0,
            "stirling": {"1": "1", "2": "1"},
            "bell": "2",
            "method": "recurrence",
        }

    def test_methods_agree(self, capsys):
        tables = {}
        for method in cli.TABLE_ROUTES:
            assert main(["stirling", "--r", "2,2,2", "--s", "1,1,1",
                         "--method", method, "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            tables[method] = payload["stirling"]
            assert payload["method"] == method
        assert len(set(map(str, tables.values()))) == 1

    def test_negative_excess_word_is_computational_error(self, capsys):
        assert main(["stirling", "--word", "a^2 ad", "--method",
                     "rewrite"]) == 1
        assert "error" in capsys.readouterr().err
        # auto takes the recurrence, keyed by surviving annihilators
        assert main(["stirling", "--word", "a^2 ad"]) == 0
        assert capsys.readouterr().out \
            == "d = -1\nS(1) = 2\nS(2) = 1\nbell = 3\n"

    @pytest.mark.parametrize("method", ["closed-form", "recurrence"])
    def test_closed_form_answers_negative_prefix(self, method, capsys):
        # prefix excesses (0, -1, 1): the full closed-form table takes them
        assert main(["stirling", "--r", "1,3", "--s", "2,1", "--method",
                     method]) == 0
        assert capsys.readouterr().out == "d = 1\nS(2) = 1\nS(3) = 1\nbell = 2\n"

    def test_ungrouped_word_gets_its_table(self, capsys):
        assert main(["order", "--word", "a ad a ad"]) == 0
        capsys.readouterr()
        assert main(["stirling", "--word", "a ad a ad"]) == 0
        assert "d = 0" in capsys.readouterr().out

    def test_ungrouped_word_json_type_is_padded(self, capsys):
        assert main(["stirling", "--word", "a ad", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == {"r": [1, 0], "s": [0, 1]}
        assert payload["method"] == "recurrence"

    def test_bell_of_huge_exponent(self, capsys):
        assert main(["bell", "--r", "3000000", "--s", "1"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_bell(self, capsys):
        assert main(["bell", "--r", "2,2,2", "--s", "1,1,1"]) == 0
        assert capsys.readouterr().out == "13\n"

    def test_dobinski_plain(self, capsys):
        assert main(["dobinski", "--r", "1,1", "--s", "1,1",
                     "--x", "1", "--digits", "10"]) == 0
        assert capsys.readouterr().out.startswith("2.0000")

    def test_dobinski_bad_x(self, capsys):
        assert main(["dobinski", "--r", "1", "--s", "1", "--x", "nope"]) == 2
        assert main(["dobinski", "--r", "1", "--s", "1", "--x", "-1"]) == 2

    def test_parse_error_exit_code(self, capsys):
        assert main(["stirling", "--word", "ad qq"]) == 2
        assert "(byte 3)" in capsys.readouterr().err

    def test_length_mismatch_exit_code(self, capsys):
        assert main(["stirling", "--r", "1,2", "--s", "1"]) == 2

    def test_too_large_exit_code(self, capsys):
        assert main(["colonies", "--r", "3,2,1,3", "--s", "2,2,2,3",
                     "--enum-cap", "1000"]) == 1

    def test_settlements(self, capsys):
        assert main(["settlements", "--r", "1,1", "--s", "1,1",
                     "--m", "2"]) == 0
        assert capsys.readouterr().out == "4\n"
        assert main(["settlements", "--r", "1,1", "--s", "1,1",
                     "--m", "2", "--method", "product"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_settlements_answer_wherever_the_colonies_fit(self, capsys):
        # two colonies walked, 16 000 000 settlements counted
        assert main(["settlements", "--r", "1,1", "--s", "1,1",
                     "--m", "4000"]) == 0
        assert capsys.readouterr().out == "16000000\n"

    def test_forests(self, capsys):
        assert main(["forests", "--arity", "3", "--n", "4"]) == 0
        assert capsys.readouterr().out == "211\n"

    def test_forests_json_golden(self, capsys):
        assert main(["forests", "--arity", "3", "--n", "4",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out \
            == '{\n  "arity": 3,\n  "n": 4,\n  "count": "211"\n}\n'

    def test_selfcheck_json_golden(self, capsys):
        assert main(["selfcheck", "--r", "1,1,1", "--s", "1,1,1",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == SELFCHECK_111_JSON

    @pytest.mark.parametrize("name, reason", [
        ("", "Is a directory"),
        ("missing/out.txt", "No such file or directory"),
    ], ids=["directory", "missing-parent"])
    def test_unwritable_out_is_a_usage_error(self, name, reason, tmp_path,
                                             capsys):
        path = tmp_path / name
        assert main(["order", "--word", "ad", "--out", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot write {path}: {reason}\n"

    @pytest.mark.parametrize("argv, flag", [
        (["settlements", "--r", "1", "--s", "1", "--m", "-1"], "--m"),
        (["forests", "--arity", "0", "--n", "2"], "--arity"),
        (["forests", "--arity", "2", "--n", "-1"], "--n"),
        (["series", "--arity", "1"], "--arity"),
        (["series", "--arity", "2", "--order", "-1"], "--order"),
    ], ids=["m", "forests-arity", "n", "series-arity", "order"])
    def test_out_of_range_flags_are_usage_errors(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}: must be" in err

    @pytest.mark.parametrize("argv, expected", [
        (["settlements", "--r", "1", "--s", "1", "--m", "0"], "0\n"),
        (["forests", "--arity", "1", "--n", "0"], "1\n"),
        (["series", "--arity", "2", "--order", "0"], "a_0 = 1 (count 1)\n"),
    ], ids=["m-0", "forests-arity-1-n-0", "series-arity-2-order-0"])
    def test_boundary_flag_values_are_accepted(self, argv, expected, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv, flag", [
        (["order", "--word", "ad a", "--digits", "5"], "--digits"),
        (["bell", "--r", "1", "--s", "1", "--max-terms", "3"], "--max-terms"),
        (["series", "--arity", "2", "--enum-cap", "3"], "--enum-cap"),
        (["dobinski", "--r", "1", "--s", "1", "--enum-cap", "3"],
         "--enum-cap"),
        (["selfcheck", "--r", "1", "--s", "1", "--x-samples", "8"],
         "--x-samples"),
        (["selfcheck", "--r", "1,1", "--s", "1,1", "--m-max", "4"],
         "--m-max"),
        (["bell", "--r", "1", "--s", "1", "--digits", str(MAX_DIGITS + 1)],
         "--digits"),
        (["series", "--arity", "2", "--digits", str(MAX_DIGITS + 1)],
         "--digits"),
    ], ids=["order-digits", "bell-max-terms", "series-enum-cap",
            "dobinski-enum-cap", "selfcheck-x-samples", "selfcheck-m-max",
            "bell-digits", "series-digits"])
    def test_flags_a_subcommand_does_not_take_are_usage_errors(
            self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments" in err and flag in err

    def test_unrecognized_flag_names_the_subcommand_in_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["order", "--word", "ad a", "--digits", "5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: bosonorder order ")
        assert err.endswith(
            "bosonorder order: error: unrecognized arguments: --digits 5\n")

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        output = {"--format", "--out"}
        word = output | {"--word", "--r", "--s"}
        table = word | {"--method", "--enum-cap"}
        expected = {
            "order": word,
            "stirling": table,
            "bell": table,
            "dobinski": word | {"--x", "--digits", "--max-terms"},
            "colonies": word | {"--dot", "--enum-cap"},
            "settlements": word | {"--m", "--method", "--enum-cap"},
            "forests": output | {"--arity", "--n", "--enum-cap"},
            "series": output | {"--kind", "--arity", "--order"},
            "selfcheck": word | {"--enum-cap"},
        }
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        got = {name: {flag for action in sub._actions
                      for flag in action.option_strings} - {"-h", "--help"}
               for name, sub in subparsers.choices.items()}
        assert got == expected
        assert sum(map(len, got.values())) == 58

    @pytest.mark.parametrize("sub", ["order", "stirling", "bell", "dobinski",
                                     "colonies", "settlements", "forests",
                                     "series", "selfcheck"])
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: bosonorder {sub}")

    def test_series_counts(self, capsys):
        assert main(["series", "--kind", "forest", "--arity", "2",
                     "--order", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == ["1", "1", "3", "13", "73", "501"]
        assert payload["convention"] == "egf"

    @pytest.mark.parametrize("kind", ["tree", "tree-closed", "forest"])
    def test_series_json_golden(self, kind, capsys):
        assert main(["series", "--kind", kind, "--arity", "3",
                     "--order", "6", "--format", "json"]) == 0
        expected = SERIES_FOREST_3_6 if kind == "forest" \
            else SERIES_TREE_3_6.replace('"tree"', f'"{kind}"')
        assert capsys.readouterr().out == expected

    def test_colonies_listing(self, capsys):
        assert main(["colonies", "--r", "1,1", "--s", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "colony 1 (free legs 2)" in out
        assert "total 2" in out

    def test_colonies_dot(self, capsys):
        assert main(["colonies", "--r", "1", "--s", "1", "--dot"]) == 0
        assert "digraph colony" in capsys.readouterr().out

    # SHA-256 of the stdout of `colonies` listings as first released: the
    # canonical order and every serializer must stay byte-identical
    @pytest.mark.parametrize("argv, digest", [
        (["--r", "2,1,2", "--s", "1,2,1"],
         "69bf591036cb8aa635ddcc7eb524ea39448e058132ef84752e162772e3430b22"),
        (["--r", "2,1,2", "--s", "1,2,1", "--format", "json"],
         "ac696e4118778e04ad29948c475f404122d843b1be6a5dd68fa5700616e3fd44"),
        (["--r", "2,1,2", "--s", "1,2,1", "--dot"],
         "79a83259b6ec846f068cad29bd511aef23b1e86977fded0087c0f78cac8267f9"),
        (["--r", "1,1,1,1,1,1", "--s", "1,1,1,1,1,1"],
         "9d70636eb0f6319d9521ac0a549bf33932f66b929021a7ce0205426122d25d74"),
        (["--r", "1,1,1,1,1,1", "--s", "1,1,1,1,1,1", "--format", "json"],
         "33ee17501dd7bd7289df4496d8fa382f53893c73cdb15f693f1aad879288e387"),
        (["--r", "1,1,1,1,1,1", "--s", "1,1,1,1,1,1", "--dot"],
         "6eeca738f8f57ac37283521ef2d8a52ca1ad1fbd55abf7272e81d8568283db01"),
    ], ids=["212-plain", "212-json", "212-dot", "six-plain", "six-json",
            "six-dot"])
    def test_colonies_golden_bytes(self, capsys, argv, digest):
        assert main(["colonies", *argv]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    # SHA-256 of the stdout of the table subcommands on one 30-factor type
    # as recorded before the leg-by-leg and column-sliced kernels: the
    # tables and their serializers must stay byte-identical
    @pytest.mark.parametrize("argv, digest", [
        (["stirling", "--method", "recurrence"],
         "4607b6fc4fb33e4637b9b6c98eb146524bd59a6ffd766db0a7783c1873c297d1"),
        (["stirling", "--method", "recurrence", "--format", "json"],
         "b9bf92c3d2a0abc8a58ed45a88814ed56e435e71a85ac010836b0893c8ca5a25"),
        (["stirling", "--method", "closed-form"],
         "4607b6fc4fb33e4637b9b6c98eb146524bd59a6ffd766db0a7783c1873c297d1"),
        (["stirling", "--method", "closed-form", "--format", "json"],
         "d5b22d2b73202cae7bd3b99b7303b7646892f6a63a1c85161eed945230ded337"),
        (["bell"],
         "336cdee75194c8367e2d7c3ae68a1b63e14eb4df7cc482cea8e787698b22f6d0"),
        (["bell", "--format", "json"],
         "7efd50dc83a3f29738f0d8066bad44fa977370124c0b6d9e743985cb313b10d2"),
    ], ids=["recurrence-plain", "recurrence-json", "closed-form-plain",
            "closed-form-json", "bell-plain", "bell-json"])
    def test_table_golden_bytes(self, capsys, argv, digest):
        assert main([*argv, "--r", THIRTY_R, "--s", THIRTY_S]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    # SHA-256 of the stdout of `order` as recorded while words were stored
    # one letter at a time: merging repeated tokens on construction must
    # print the same word and the same normal form
    @pytest.mark.parametrize("argv, digest", [
        (["--word", "ad ad^2 a a^3 ad a^2 ad^4"],
         "8b6ddb07b318c5569e86f7d0caab0f760527e1eadfcd016a94d3d6524ef2d89c"),
        (["--word", "ad ad^2 a a^3 ad a^2 ad^4", "--format", "json"],
         "ff5948435b345b56877eca0656d0940b6d4a615db4ae18239cc6eeb3b53bd318"),
        (["--r", "3,1,2", "--s", "1,2,2"],
         "37d47a14123552511c0908c42fbdbcd7f82e64329ada63282a51ffcfbfec5ef7"),
        (["--r", "3,1,2", "--s", "1,2,2", "--format", "json"],
         "62652f12ef911d9cf72643ed21ff55840db5c7e2ee4dc09a8d203876c4a8e422"),
    ], ids=["word-plain", "word-json", "type-plain", "type-json"])
    def test_order_golden_bytes(self, capsys, argv, digest):
        assert main(["order", *argv]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    def test_word_and_type_inputs_exclusive(self, capsys):
        # the usage line is the subcommand's, not the top-level one
        for argv in (["order", "--word", "ad", "--r", "1"],
                     ["stirling", "--word", "ad a", "--r", "1", "--s", "1"],
                     ["selfcheck"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"usage: bosonorder {argv[0]} ")
            assert err.endswith(
                f"bosonorder {argv[0]}: error: provide exactly one input: "
                "--word or --r together with --s\n")

    def test_r_without_s(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stirling", "--r", "1,1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bosonorder stirling ")
        assert err.endswith("bosonorder stirling: error: --r and --s must "
                            "be given together\n")


def _digits(n):
    # decimal digits of n, converted 1000 at a time below the interpreter's
    # int-to-str limit: an oracle that shares nothing with the CLI's printing
    chunk = 10 ** 1000
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(f"{low:01000d}")
    return str(n) + "".join(reversed(parts))


class TestBigNumbers:
    """Answers longer than the 4300-digit int-to-str limit print in full;
    exponents past it are refused as parse errors with a byte offset."""

    def test_plain_and_json(self, capsys):
        expected = _digits(math.factorial(2000))
        assert len(expected) > 4300
        argv = ["settlements", "--r", "1", "--s", "2000", "--m", "2000",
                "--method", "product"]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected + "\n"
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == expected

    def test_csv(self, capsys):
        # 40 legs landing on ~10^120 free creators each
        t = StringType((10 ** 120, 1), (1, 40))
        table = stirling_recurrence(t).values
        assert len(_digits(table[1])) > 4300
        assert main(["stirling", "--r", f"{10 ** 120},1", "--s", "1,40",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == "\n".join(
            ["k,S_k"] + [f"{k},{_digits(v)}" for k, v in sorted(table.items())]
        ) + "\n"

    def test_longest_exponent_is_read(self, capsys):
        digits = "9" * MAX_EXPONENT_DIGITS
        assert main(["order", "--word", f"ad^{digits}"]) == 0
        assert capsys.readouterr().out == f"ad^{digits}\n"

    def test_split_printing_matches_str(self):
        # sizes around every split of a conversion by halves: the threshold,
        # and the widths of the top few levels, a few bits either side
        rng = random.Random(16)
        widths = [(cli.SPLIT_BITS << level) + rng.randint(-3, 3) + skew
                  for level in range(4) for skew in (-1, 0, 1)]
        values = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in widths]
        values += [(1 << bits) - 1 for bits in widths]
        values += [1 << bits for bits in widths]
        values += [10 ** 20_000, 10 ** 20_000 - 1, 0, 1]
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for v in values:
                assert cli._number_text(v) == str(v)
                assert cli._number_text(-v) == str(-v)
            big = -rng.getrandbits(3 * cli.SPLIT_BITS)
            q = Fraction(big, 3 ** 20_000)
            assert cli._number_text(q) == str(q)
        finally:
            sys.set_int_max_str_digits(old_limit)

    @pytest.mark.parametrize("argv, offset", [
        (["order", "--word", "ad a^" + "9" * 4301], 3),
        (["order", "--word", "ad^" + "9" * 4300 + " ad"], 4304),
        (["bell", "--r", "1," + "9" * 4301, "--s", "1,1"], 2),
        (["bell", "--r", "2,2", "--s", "9" * 4300 + ",1"], 4301),
    ], ids=["long-token", "word-sum", "long-entry", "list-sum"])
    def test_overlong_exponents_are_parse_errors(self, capsys, argv, offset):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"less than 10^{MAX_EXPONENT_DIGITS} (byte {offset})" in err


class TestSubprocess:
    @pytest.mark.parametrize("argv", [
        ("-c", "import bosonorder.cli"),
        ("-m", "bosonorder", "bell", "--r", "1,1", "--s", "1,1"),
    ], ids=["import", "bell"])
    def test_startup_skips_slow_modules(self, argv):
        # -S keeps site from preloading typing; -X importtime writes one
        # stderr line per module imported, so no timing is compared
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", *argv],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "bosonorder.cli" in imported
        assert not imported & {"dataclasses", "inspect", "typing"}

    def test_selfcheck_passes(self):
        proc = run_cli("selfcheck", "--r", "1,1,1", "--s", "1,1,1")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)

    def test_colonies_of_one_bug_with_many_feet(self):
        proc = run_cli("colonies", "--r", "1", "--s", "5000")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("total 1\n")

    def test_json_byte_stable(self):
        args = ("stirling", "--r", "3,2,1,3", "--s", "2,2,2,3",
                "--format", "json")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_csv_golden(self):
        proc = run_cli("stirling", "--r", "2,2", "--s", "1,1",
                       "--format", "csv")
        assert proc.stdout == "k,S_k\n1,2\n2,1\n"

    def test_env_cap_honored(self):
        proc = run_cli("colonies", "--r", "3,2,1,3", "--s", "2,2,2,3",
                       env_overrides={"BOSON_ORDER_ENUM_CAP": "1000"})
        assert proc.returncode == 1
        assert "cap" in proc.stderr

    def test_flag_overrides_env(self):
        proc = run_cli("bell", "--r", "2,2", "--s", "1,1",
                       "--method", "enumerate", "--enum-cap", "100",
                       env_overrides={"BOSON_ORDER_ENUM_CAP": "1"})
        assert proc.returncode == 0
        assert proc.stdout == "3\n"

    def test_bad_env_cap(self):
        proc = run_cli("colonies", "--r", "1", "--s", "1",
                       env_overrides={"BOSON_ORDER_ENUM_CAP": "lots"})
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv, env", [
        (("colonies", "--r", "1,1", "--s", "1,1", "--enum-cap", "-5"), None),
        (("colonies", "--r", "1,1", "--s", "1,1", "--enum-cap", "0"), None),
        (("dobinski", "--r", "1", "--s", "1", "--max-terms", "0"), None),
        (("dobinski", "--r", "1", "--s", "1", "--digits", "0"), None),
        (("colonies", "--r", "1,1", "--s", "1,1"), {"BOSON_ORDER_ENUM_CAP": "0"}),
        (("colonies", "--r", "1,1", "--s", "1,1"), {"BOSON_ORDER_ENUM_CAP": "-3"}),
        # refused on every subcommand that takes --enum-cap, also where
        # this request would not enumerate
        (("bell", "--r", "1,1", "--s", "1,1"), {"BOSON_ORDER_ENUM_CAP": "lots"}),
    ], ids=["enum-cap-negative", "enum-cap-zero", "max-terms-zero",
            "digits-zero", "env-cap-zero", "env-cap-negative",
            "env-cap-not-a-number-on-bell"])
    def test_nonpositive_limits_are_usage_errors(self, argv, env):
        proc = run_cli(*argv, env_overrides=env)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "positive" in proc.stderr

    @pytest.mark.parametrize("sub", ["dobinski"])
    def test_digits_above_limit_is_usage_error(self, sub):
        proc = run_cli(sub, "--r", "1", "--s", "1",
                       "--digits", str(MAX_DIGITS + 1))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"at most {MAX_DIGITS}" in proc.stderr

    def test_digits_at_limit_is_accepted(self):
        # no feet, so B(x) = 1 exactly and no series is summed
        proc = run_cli("dobinski", "--word", "ad^3", "--digits",
                       str(MAX_DIGITS))
        assert proc.returncode == 0
        assert proc.stdout == "1." + "0" * (MAX_DIGITS - 1) + "\n"

    def test_env_cap_ignored_without_enum_cap_flag(self):
        proc = run_cli("order", "--word", "a ad",
                       env_overrides={"BOSON_ORDER_ENUM_CAP": "lots"})
        assert proc.returncode == 0 and proc.stdout == "1 + ad a\n"

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "table.csv"
        proc = run_cli("stirling", "--r", "2,2", "--s", "1,1",
                       "--format", "csv", "--out", str(target))
        assert proc.returncode == 0 and proc.stdout == ""
        assert target.read_text() == "k,S_k\n1,2\n2,1\n"

    def test_order_rejects_csv(self):
        proc = run_cli("order", "--word", "ad a", "--format", "csv")
        assert proc.returncode == 2

    def test_parse_error_reported_on_stderr(self):
        proc = run_cli("stirling", "--word", "ad qq")
        assert proc.returncode == 2
        assert "byte 3" in proc.stderr


def _listing_in_memory(t: StringType, form: str) -> str:
    """A colony listing built whole in memory, the way it was printed before
    listings streamed: the oracle for the streamed bytes."""
    colonies = list(combinat.enumerate_colonies(t))
    if form == "dot":
        text = "\n\n".join(map(combinat.colony_to_dot, colonies))
    elif form == "json":
        counts = {}
        for c in colonies:
            k = combinat.free_legs(c)
            counts[k] = counts.get(k, 0) + 1
        text = json.dumps({
            "type": {"r": list(t.r), "s": list(t.s)},
            "count": len(colonies),
            "by_free_legs": {str(k): str(v)
                             for k, v in sorted(counts.items())},
            "colonies": [combinat.colony_to_text(c).split("\n")
                         if t.total_s else [] for c in colonies],
        }, indent=2)
    else:
        blocks = [f"colony {i} (free legs {combinat.free_legs(c)})\n"
                  f"{combinat.colony_to_text(c)}".rstrip()
                  for i, c in enumerate(colonies, start=1)]
        blocks.append(f"total {len(colonies)}")
        text = "\n\n".join(blocks)
    return text + "\n"


FORM_FLAGS = {"plain": [], "json": ["--format", "json"], "dot": ["--dot"]}

EIGHT_BUGS = ["--r", "1,1,1,1,1,1,1,1", "--s", "1,1,1,1,1,1,1,1"]


class TestStreamedListings:
    @pytest.mark.parametrize("form", FORM_FLAGS)
    def test_same_bytes_as_the_in_memory_listing(self, form, capsys):
        # every type of at most 3 factors with exponents 1..2, then the
        # feetless word ad^2 and the zero-boundary words a ad and a a
        inputs = [(["--r", ",".join(map(str, r)), "--s", ",".join(map(str, s))],
                   StringType(r, s))
                  for n in (1, 2, 3)
                  for r in itertools.product((1, 2), repeat=n)
                  for s in itertools.product((1, 2), repeat=n)]
        inputs += [(["--word", w], type_from_word(parse_word(w)))
                   for w in ("ad^2", "a ad", "a a")]
        for argv, t in inputs:
            assert main(["colonies", *argv, *FORM_FLAGS[form]]) == 0
            assert capsys.readouterr().out == _listing_in_memory(t, form), argv

    @pytest.mark.parametrize("form", FORM_FLAGS)
    def test_out_gets_the_same_bytes(self, form, tmp_path, capsys):
        path = tmp_path / "listing.txt"
        assert main(["colonies", "--r", "2,1,2", "--s", "1,2,1",
                     *FORM_FLAGS[form], "--out", str(path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert path.read_text(encoding="utf-8") == _listing_in_memory(
            StringType((2, 1, 2), (1, 2, 1)), form)

    def test_dot_wins_over_json(self, capsys):
        assert main(["colonies", "--r", "1,1", "--s", "1,1", "--dot",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == _listing_in_memory(
            StringType((1, 1), (1, 1)), "dot")

    @pytest.mark.parametrize("form", FORM_FLAGS)
    def test_memory_stays_flat(self, form, tmp_path):
        # 4 140 colonies, 0.77-1.0 MB of text; built in memory, the listing
        # peaked at 2.75 (plain), 2.95 (dot) and 7.39 MB (json)
        path = tmp_path / "listing.txt"
        main(["colonies", "--r", "1", "--s", "1", "--out", str(path)])
        tracemalloc.start()
        try:
            assert main(["colonies", *EIGHT_BUGS, *FORM_FLAGS[form],
                         "--out", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 750_000
        assert peak < 1_500_000

    @pytest.mark.parametrize("name", ["listing.txt", "missing/listing.txt"],
                             ids=["writable", "missing-parent"])
    def test_refusal_comes_before_out_is_opened(self, name, tmp_path,
                                                capsys):
        path = tmp_path / name
        assert main(["colonies", "--r", "1,1", "--s", "1,1", "--enum-cap",
                     "1", "--out", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "exceed the cap of 1" in err
        assert not path.exists()

    def test_out_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(["colonies", "--r", "1,1", "--s", "1,1",
                     "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that refuses every write")
    def test_write_failing_midstream_is_a_usage_error(self, capsys):
        assert main(["colonies", *EIGHT_BUGS, "--out", "/dev/full"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: cannot write /dev/full: "
                       "No space left on device\n")

    def test_closed_pipe_exits_1_without_a_traceback(self):
        env = dict(os.environ)
        env.pop("BOSON_ORDER_ENUM_CAP", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "bosonorder", "colonies", *EIGHT_BUGS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"colony 1 (free legs 8)\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == ""
