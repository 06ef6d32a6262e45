"""Smoke run of the benchmark at its smallest size, so the harness cannot rot.

    python3 perfbench/test_smoke.py      # or: python3 -m pytest perfbench

Runs every workload of BENCHMARK.json with the smallest op lists, checks
that the answers were right and that every named metric comes out with its
unit, and that the benchmark refuses to run without the package source.
Timings are never asserted.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def _check_metrics(result, specs):
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_end_to_end_metrics_of_every_workload():
    for workload in SPEC["workloads"]:
        done = _run(workload["name"], 0)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        _check_metrics(result, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_per_layer_metrics():
    done = _run("deep-words", 1)
    assert done.returncode == 0, done.stderr
    _check_metrics(json.loads(done.stdout.strip().splitlines()[-1]),
                   SPEC["per_layer"])


def test_wrong_answer_is_fatal():
    sys.path.insert(0, str(HERE))
    try:
        import run
        from common import Op, WrongAnswer, expect
    finally:
        sys.path.remove(str(HERE))
    op = Op("probe", lambda: 3, lambda got: expect(got == 4, "probe"))
    try:
        run.judge(op, 0, 3, run.Tally())
    except WrongAnswer:
        return
    raise AssertionError("a wrong value was not caught")


def test_refuses_without_package_source():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = _run("deep-words", 0, cwd=tmp)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
