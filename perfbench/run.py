"""Benchmark of bosonorder: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload deep-words --seed 1 --seconds 25

Workloads (see perfbench/README.md for why each exists):
  cli-oneshot  one ``python -m bosonorder`` child per request
  deep-words   in-process: many factors, small exponents
  big-exact    in-process: few factors, big integers and fractions

Each run performs a fixed, seeded list of ops whose length is proportional
to --seconds, in ROUNDS passes of different orders, checks every answer
against an independent route computed during set-up, and prints as its
last stdout line one JSON object with the keys correct, attempted, failed
and metrics.  Timings take each op's least time over the passes, rescaled
to a reference host speed by a probe loop run between ops (hostspeed.py).
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced pass gives the per-layer ones.  A wrong answer ends the
run with exit code 1.
"""

import time

T0 = time.perf_counter()  # before bosonorder is imported: set-up starts here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

from hostspeed import PROBE_EVERY, SpeedLog, calib_ms  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cli-oneshot", "deep-words", "big-exact")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
}
PER_LAYER = {
    "startup.python_ms": "ms",
    "startup.import_ms": "ms",
    "share.startup": "frac",
    "cli.main.self_s": "s",
    "cli.parse.self_s": "s",
    "cli.out_bytes": "count",
    "algebra.normal_order.self_s": "s",
    "algebra.normal_order.calls": "count",
    "algebra.word_from_type.self_s": "s",
    "algebra.letters_in": "count",
    "algebra.terms_out": "count",
    "combinat.count_colonies_by_free_legs.self_s": "s",
    "combinat.enumerate_colonies.self_s": "s",
    "combinat.enumerate_settlements.self_s": "s",
    "combinat.count_increasing_forests.self_s": "s",
    "combinat.colonies_visited": "count",
    "combinat.colonies_per_s": "1/s",
    "stirling.stirling_recurrence.self_s": "s",
    "stirling.stirling_closed_form.self_s": "s",
    "stirling.dobinski_eval.self_s": "s",
    "stirling.coherent_expectation.self_s": "s",
    "stirling.bell_number.self_s": "s",
    "stirling.dobinski_terms": "count",
    "series.tree_series.self_s": "s",
    "series.forest_egf.self_s": "s",
    "series.bell_r1_numeric.self_s": "s",
    "series.bell_r1_terms": "count",
    "share.cli": "frac",
    "share.algebra": "frac",
    "share.combinat": "frac",
    "share.stirling": "frac",
    "share.series": "frac",
    "bench.check.self_s": "s",
    "trace.covered_frac": "frac",
    "trace.overhead_frac": "frac",
    "host.probe_ms": "ms",
    "wall.ops_per_s": "1/s",
}
SETUP_REPS = 3       # setup_s is the median of this many set-ups
END_PROBES = 5       # host-speed probes just before and after the timed phase
ROUNDS = 3           # timed passes over the op list, each in its own order
WARMUP_SECONDS = 0.3  # size of the disjoint warm-up stream
STARTUP_PROBES = 7


class Tally:
    """Outcomes of the passes over one op list."""

    def __init__(self):
        self.samples: list = []  # (kind, round, index, start, seconds, code)
        self.refused = 0
        self.failed = 0
        self.peak_child_kib = 0
        self.crash_reported = False


def judge(op, code, result, tally: Tally) -> None:
    """Score one outcome; a wrong answer raises WrongAnswer.

    A refusal counts into failed_frac whatever its code.  It is also a
    failure when its exit code is not the documented one or when the op
    should have been answered; an answer is a failure when the op should
    have been refused."""
    if code == 0:
        if op.refuse is not None:
            tally.failed += 1
        else:
            op.check(result)
        return
    tally.refused += 1
    if code != op.refuse:
        tally.failed += 1


def run_pass(ops, execute, tally: Tally, rec=None, order=None, rnd=0,
             speed: SpeedLog = None) -> float:
    """Run every op once, in ``order`` (indices into ``ops``) when given,
    probing the host speed into ``speed`` between ops when given; returns
    the wall time of the pass, probes left out."""
    perf = time.perf_counter
    start = last_probe = perf()
    probing = 0.0
    for i in range(len(ops)) if order is None else order:
        op = ops[i]
        a = perf()
        code, result = execute(op, tally)
        b = perf()
        tally.samples.append((op.kind, rnd, i, a, b - a, code))
        if speed is not None and b - last_probe > PROBE_EVERY:
            speed.probe()
            last_probe = perf()
            probing += last_probe - b
        if rec is None:
            judge(op, code, result, tally)
        else:
            rec.call("bench.check", judge, op, code, result, tally)
    return perf() - start - probing


def execute_library(op, tally):
    from bosonorder.errors import BosonOrderError
    from common import exit_code_for
    try:
        return 0, op.call()
    except BosonOrderError as exc:
        return exit_code_for(exc), exc
    except Exception as exc:  # a crash is scored as a failure, not fatal
        if not tally.crash_reported:
            traceback.print_exc(file=sys.stderr)
            tally.crash_reported = True
        return -1, exc


def timings(tally: Tally, speed: Optional[SpeedLog]) -> dict[str, float]:
    """Throughput and latency quantiles from each op's least time over the
    rounds, each time rescaled to the reference host speed (raw wall times
    when ``speed`` is None).  The least of the rounds drops a GC pause or a
    host hiccup; the rescaling drops the host's slow phases, which outlast
    a round."""
    best: dict[int, float] = {}
    answered = set()
    for _, _, i, start, seconds, code in tally.samples:
        if speed is not None:
            seconds *= speed.scale(start + seconds / 2)
        best[i] = min(seconds, best.get(i, seconds))
        if code == 0:
            answered.add(i)
    lat = sorted(best[i] for i in answered)
    return {
        "ops_per_s": len(best) / sum(best.values()),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": statistics.quantiles(lat, n=10,
                                          method="inclusive")[8] * 1000,
    }


def pin_to_one_cpu() -> None:
    """Keep this process, its probes and its children on one CPU, so the
    probes see the speed of the CPU that ran the ops."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def startup_probes(env) -> tuple[float, float]:
    """Medians of ``python -c pass`` and of the extra cost of
    ``python -c 'import bosonorder'``, in ms."""
    bare, imp = [], []
    for _ in range(STARTUP_PROBES):
        for code, dest in (("pass", bare), ("import bosonorder", imp)):
            a = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           check=True, stdin=subprocess.DEVNULL)
            dest.append(time.perf_counter() - a)
    py = statistics.median(bare) * 1000
    return py, statistics.median(imp) * 1000 - py


def layer_metrics(rec, own, wall, untraced_ops_per_s, traced_ops_per_s,
                  startup, startup_base_ms) -> dict[str, float]:

    def s(*names):
        return sum(own.get(n, 0.0) for n in names)

    def layer(prefix):
        return sum(v for n, v in own.items() if n.startswith(prefix + "."))

    counts, calls = rec.counts, rec.calls
    combinat_s = layer("combinat")
    m = {
        "startup.python_ms": startup[0],
        "startup.import_ms": startup[1],
        "share.startup": (startup[0] + startup[1]) / startup_base_ms,
        "cli.main.self_s": s("cli.main", "cli.build_parser"),
        "cli.parse.self_s": s("cli.parse_word", "cli.parse_type"),
        "cli.out_bytes": counts["cli.out_bytes"],
        "algebra.normal_order.calls": calls["algebra.normal_order"],
        "algebra.letters_in": counts["algebra.letters_in"],
        "algebra.terms_out": counts["algebra.terms_out"],
        "combinat.colonies_visited": counts["combinat.colonies_visited"],
        "combinat.colonies_per_s": (counts["combinat.colonies_visited"]
                                    / combinat_s if combinat_s else 0.0),
        "stirling.dobinski_terms": counts["stirling.dobinski_terms"],
        "series.bell_r1_terms": counts["series.bell_r1_terms"],
        "bench.check.self_s": s("bench.check"),
        "trace.covered_frac": sum(own.values()) / wall,
        "trace.overhead_frac": 1 - traced_ops_per_s / untraced_ops_per_s,
    }
    for name in PER_LAYER:
        if name.endswith(".self_s") and name not in m:
            m[name] = s(name[:-len(".self_s")])
        if name.startswith("share.") and name not in m:
            m[name] = layer(name[len("share."):]) / wall
    return m


def context(args, ops) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bosonorder").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "ops": len(ops), "ops_by_kind": dict(sorted(Counter(
            op.kind for op in ops).items())),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="nominal length of the timed phase; sets the op count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bosonorder" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'bosonorder'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("BOSON_ORDER_ENUM_CAP", None)
    import bosonorder
    if Path(bosonorder.__file__).resolve().parent != SRC / "bosonorder":
        print(f"error: imported {bosonorder.__file__}, not the checkout's "
              "package", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    os.chdir(ROOT)  # --out paths of the CLI requests are relative to it

    import common
    import oneshot
    from inproc import big_exact, deep_words
    from tracing import Recorder

    OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()
    env = oneshot.child_env(SRC)
    cli = args.workload == "cli-oneshot"
    seeded = lambda part: random.Random(f"{args.workload}:{args.seed}:{part}")

    if cli:
        def build(rng, seconds, tag):
            return oneshot.requests(rng, seconds, tag, tag == "warmup")

        def execute(req, tally):
            code, text, kib = oneshot.run_child(req, ROOT, env)
            tally.peak_child_kib = max(tally.peak_child_kib, kib)
            return code, text
    else:
        make_ops = deep_words if args.workload == "deep-words" else big_exact

        def build(rng, seconds, tag):
            return make_ops(rng, seconds)
        execute = execute_library

    ops = []
    try:
        setup_speed = SpeedLog()
        setup_speed.probe(3)
        reps = []
        for _ in range(SETUP_REPS):
            a = time.perf_counter()
            ops = build(seeded("timed"), args.seconds / ROUNDS, "timed")
            warm = build(seeded("warmup"), WARMUP_SECONDS, "warmup")
            run_pass(warm, execute, Tally())
            reps.append(time.perf_counter() - a)
            setup_speed.probe(3)
        setup_wall_s = import_s + statistics.median(reps)
        setup_s = setup_wall_s * setup_speed.overall()
        traced_ops = ops
        if args.trace and not cli:
            # half size: wrapping every call slows big-exact by ~1.6x
            traced_ops = build(seeded("traced"), args.seconds / 2, "traced")
            seeded("traced order").shuffle(traced_ops)
        gc.collect()
        gc.freeze()

        calib_before = calib_ms()
        tally = Tally()
        speed = SpeedLog()
        speed.probe(END_PROBES)
        walls = []
        for rnd in range(ROUNDS):
            order = list(range(len(ops)))
            seeded(f"round {rnd}").shuffle(order)
            walls.append(run_pass(ops, execute, tally, order=order, rnd=rnd,
                                  speed=speed))
        speed.probe(END_PROBES)
        calib_after = calib_ms()
        peak_kib = (tally.peak_child_kib if cli else
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        e2e = {"setup_s": setup_s, **timings(tally, speed),
               "peak_rss_mb": peak_kib / 1024,
               "failed_frac": tally.refused / (len(ops) * ROUNDS)}
        raw = {"setup_s": setup_wall_s, **timings(tally, None)}

        if args.trace:
            def replay(req, t):
                code, text = oneshot.run_inprocess(req, ROOT)
                if code == 0 and rec is not None:
                    rec.counts["cli.out_bytes"] += len(text.encode("utf-8"))
                return code, text
            traced_exec = replay if cli else execute_library
            rec = None
            base_wall = (run_pass(ops, replay, Tally()) if cli
                         else statistics.median(walls))
            rec = Recorder()
            rec.install()
            try:
                traced_wall = run_pass(traced_ops, traced_exec, Tally(), rec)
            finally:
                rec.uninstall()
            rec.write(OUT / f"spans-{args.workload}-seed{args.seed}")
            own = rec.self_times()
            spans = {name: {"self_s": own[name], "calls": rec.calls[name]}
                     for name in sorted(own)}
            startup = startup_probes(env)
            metrics = layer_metrics(
                rec, own, traced_wall, len(ops) / base_wall,
                len(traced_ops) / traced_wall, startup,
                raw["op_p50_ms"] if cli else setup_wall_s * 1000)
            metrics["host.probe_ms"] = statistics.median(speed.took) * 1000
            metrics["wall.ops_per_s"] = raw["ops_per_s"]
            units = PER_LAYER
        else:
            metrics, units, spans = e2e, END_TO_END, None
    except common.WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, len(ops)),
                          "failed": 0, "metrics": {}}))
        return 1

    seconds_by_kind: Counter = Counter()
    for kind, _, _, _, seconds, _ in tally.samples:
        seconds_by_kind[kind] += seconds
    record = {
        "context": context(args, ops),
        "host": {"calib_ms": {"before": calib_before, "after": calib_after},
                 "probe_ms": {
                     "setup": statistics.median(setup_speed.took) * 1000,
                     "timed": statistics.median(speed.took) * 1000}},
        "outcomes": {"attempted": len(ops) * ROUNDS,
                     "refused": tally.refused, "failed": tally.failed},
        "round_walls_s": walls,
        "seconds_by_kind": dict(sorted(seconds_by_kind.items())),
        "end_to_end": e2e,
        "wall": raw,
        "metrics": metrics,
        "spans": spans,
    }
    print(json.dumps(record))
    record["samples"] = tally.samples
    record["probes"] = list(zip(speed.at, speed.took))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record))
    print(json.dumps({
        "correct": True,
        "attempted": len(ops) * ROUNDS,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
