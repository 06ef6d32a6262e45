"""Spans around every call into the public functions of bosonorder.

``Recorder.install`` wraps each public function of ``cli``, ``algebra``,
``stirling``, ``combinat`` and ``series`` at every module attribute that
binds it, the package namespace and names imported into other modules
included.  Nested calls are therefore attributed to the module that
defines the function (combinat's ``bell_number`` guard counts as
``stirling``).  Generators are timed while they are consumed: each resume
is a span of the generator's name.

Spans stay in memory as (name, start, end, parent) and are written when
the run ends.  Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import types
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("cli", "algebra", "stirling", "combinat", "series")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # flat: name id, start ns, end ns, parent
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, idx: int) -> int:
        me = len(self.spans) // 4
        self.spans.extend((idx, 0, 0, self.stack[-1] if self.stack else -1))
        self.stack.append(me)
        self.spans[4 * me + 1] = perf_counter_ns()
        return me

    def _close(self, me: int) -> None:
        self.spans[4 * me + 2] = perf_counter_ns()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._id(name)
        self.calls[name] += 1
        me = self._open(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(me)

    def wrap(self, name: str, fn, hook=None, per_item=None):
        idx = self._id(name)
        spans, stack, calls, clock = (self.spans, self.stack, self.calls,
                                      perf_counter_ns)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            me = len(spans) >> 2
            spans.extend((idx, 0, 0, stack[-1] if stack else -1))
            stack.append(me)
            spans[4 * me + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * me + 2] = clock()
                stack.pop()
            if type(result) is types.GeneratorType:
                return self._consume(idx, result, per_item)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _consume(self, idx: int, gen, per_item):
        while True:
            me = self._open(idx)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(me)
            if per_item is not None:
                self.counts[per_item] += 1
            yield item

    def install(self) -> None:
        """Wrap every public function of the layers where it is bound."""
        pkg = importlib.import_module("bosonorder")
        mods = {name: importlib.import_module(f"bosonorder.{name}")
                for name in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[fn] = self.wrap(name, fn, HOOKS.get(name),
                                        PER_ITEM.get(name))
        for ns in (pkg, *mods.values()):
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapped[value])

    def uninstall(self) -> None:
        for ns, attr, value in self._restore:
            setattr(ns, attr, value)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time of child spans."""
        spans = self.spans
        n = len(spans) // 4
        dur = [spans[4 * i + 2] - spans[4 * i + 1] for i in range(n)]
        own = dur[:]
        for i in range(n):
            parent = spans[4 * i + 3]
            if parent >= 0:
                own[parent] -= dur[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[spans[4 * i]]
            out[name] = out.get(name, 0.0) + own[i] * 1e-9
        return out

    def write(self, stem: Path) -> None:
        """Spans as raw int64 quadruples plus a JSON header of names."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            self.spans.tofile(fh)
        stem.with_suffix(".names.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent"],
             "names": self.names}))


def _letters(counts, args, kwargs, form):
    counts["algebra.letters_in"] += len(args[0])
    counts["algebra.terms_out"] += len(form.coeffs)


def _histogram(counts, args, kwargs, hist):
    if kwargs.get("method", args[1] if len(args) > 1 else "enumerate") \
            == "enumerate":
        counts["combinat.colonies_visited"] += sum(hist.values())


def _settlements(counts, args, kwargs, total):
    # every colony of the type is walked once, whatever m is
    import bosonorder.stirling as st
    table = inspect.unwrap(st.stirling_recurrence)(args[0])
    counts["combinat.colonies_visited"] += table.bell()


def _forests(counts, args, kwargs, total):
    counts["combinat.colonies_visited"] += total


def _dobinski(counts, args, kwargs, approx):
    counts["stirling.dobinski_terms"] += approx.terms_used


def _bell_r1(counts, args, kwargs, approx):
    counts["series.bell_r1_terms"] += approx.terms_used


HOOKS = {
    "algebra.normal_order": _letters,
    "combinat.count_colonies_by_free_legs": _histogram,
    "combinat.enumerate_settlements": _settlements,
    "combinat.count_increasing_forests": _forests,
    "stirling.dobinski_eval": _dobinski,
    "series.bell_r1_numeric": _bell_r1,
}
PER_ITEM = {"combinat.enumerate_colonies": "combinat.colonies_visited"}
