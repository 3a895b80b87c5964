"""Outside-in tracing of the zonocube layers for the benchmark's traced run.

The program is not touched.  `Tracer.install` replaces every public
module-level function of the traced modules by a wrapper, under every name
a caller can look it up by: the defining module, each zonocube module that
imported it with `from ... import`, and the package namespace.  Hot
primitives of `colors` are counted only; every other wrapper records a span.

Spans are kept in memory and written once, by `write_spans`, when the run
ends.  Times are integer nanoseconds, so a span's self time (its duration
minus the durations of its direct child spans) is exact.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter
from math import comb

SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "self_ns")
LAYERS = ("colors", "cubillage", "order", "systems", "bruhat", "geom", "cli")

# colors functions that get a span; the rest of colors is count-only because
# it is called millions of times per pass
COLORS_SPANNED = frozenset({"is_r_separated", "is_weakly_k_separated"})


def _targets(zc):
    """(metric name, owning object, attribute, span?) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{zc.__name__}.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            spanned = layer != "colors" or name in COLORS_SPANNED
            out.append((f"{layer}.{name}", mod, name, spanned))
    # constructions are counted by wrapping __init__, so isinstance still works
    out.append(("cubillage.Cubillage", zc.cubillage.Cubillage, "__init__", False))
    return out


class Tracer:
    """Counts and spans for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.calls = Counter()
        self.spans = []      # tuples of SPAN_FIELDS
        self.extra = Counter()
        self.op = None       # label of the benchmark operation now running
        self._stack = []     # open frames: [id, name, child_ns]
        self._ids = itertools.count()
        self._patched = []   # (owner, attribute, original)
        self._names = []     # (traced name, has spans?)

    def install(self, zc):
        originals = {}
        for name, owner, attr, spanned in _targets(zc):
            self._names.append((name, spanned))
            original = getattr(owner, attr)
            wrapper = self._span(name, original) if spanned else self._count(name, original)
            originals[id(original)] = wrapper
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
        modules = [m for n, m in sys.modules.items()
                   if n == zc.__name__ or n.startswith(zc.__name__ + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patch(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span(self, name, fn):
        calls, spans, stack, extra, ids = (self.calls, self.spans, self._stack,
                                           self.extra, self._ids)
        clock = time.perf_counter_ns
        after = _AFTER.get(name)

        def spanned(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1] if stack else None
            frame = [next(ids), name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                spans.append((frame[0], parent[0] if parent else None, self.op, name,
                              start, end, duration - frame[2]))
            if after is not None:
                after(extra, args, result, parent[1] if parent else None)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def summary(self) -> dict:
        """calls and self seconds per traced name, plus the derived ratios."""
        self_ns = Counter()
        for *_, name, _start, _end, own in self.spans:
            self_ns[name] += own
        out = {}
        for name, spanned in self._names:
            out[f"{name}.calls"] = self.calls[name]
            if spanned:
                out[f"{name}.self_s"] = self_ns[name] / 1e9
        out.update(self.extra)
        out["order.flips_found_per_probe"] = _ratio(self.extra["order.flips_found"],
                                                    self.extra["order.parents_probed"])
        out["bruhat.new_states_per_apply"] = _ratio(self.extra["bruhat.states_discovered"],
                                                    self.extra["bruhat.bfs_applies"])
        return out

    def write_spans(self, path):
        """Gzipped JSON lines: a header naming the fields, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _after_find_flips(extra, args, result, parent):
    q = args[0]
    extra["order.parents_probed"] += comb(len(q.colors), q.d + 1)
    extra["order.flips_found"] += len(result)


def _after_apply_flip(extra, args, result, parent):
    if parent == "bruhat.enumerate_cubillages":
        extra["bruhat.bfs_applies"] += 1


def _after_enumerate(extra, args, result, parent):
    extra["bruhat.states_discovered"] += len(result) - 1


_AFTER = {
    "order.find_flips": _after_find_flips,
    "order.apply_flip": _after_apply_flip,
    "bruhat.enumerate_cubillages": _after_enumerate,
}
