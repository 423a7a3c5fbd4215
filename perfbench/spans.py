"""Outside-in tracing of towerdiff: spans around each module's public functions.

Every public module-level function of a traced module is wrapped, and every
towerdiff module attribute that is the original object is replaced, because
modules bind names with `from .poly import factorize`. Poly.__divmod__,
Place.finite and cli.main get spans too. ff gets none: its per-element calls
number in the millions, so its cost shows up in the self time of the spans
that call it.

Spans are kept in flat arrays (name, start, end, parent, item) and written
out at the end; a span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ["poly", "places", "algebra", "tower", "basis", "standard_form", "galois", "jsonio"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_item = -1
        self.keys: dict[str, set] = {}

    def wrap(self, name, fn, key=None):
        """fn with a span named name; key(args) marks inputs for a distinct count."""
        nid = len(self.names)
        self.names.append(name)
        kind, parent, item, start, end, stack = (
            self.kind, self.parent, self.item, self.start, self.end, self.stack)
        keys = self.keys.setdefault(name, set()) if key else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add((tracer.current_item, key(*args, **kwargs)))
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            item.append(tracer.current_item)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    # ---------------------------------------------------------- install
    def install(self):
        """Wraps towerdiff in place; the package must already be imported."""
        from towerdiff import cli, places, poly

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"towerdiff.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj, DISTINCT_KEYS.get(attr))
        for name, mod in list(sys.modules.items()):
            if name != "towerdiff" and not name.startswith("towerdiff."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
        poly.Poly.__divmod__ = self.wrap("poly.divmod", poly.Poly.__divmod__)
        finite = places.Place.__dict__["finite"].__func__
        places.Place.finite = staticmethod(self.wrap("places.Place.finite", finite))
        cli.main = self.wrap("cli", cli.main)

    # ---------------------------------------------------------- results
    def stats(self, items_below):
        """{span name: [calls, self seconds, inclusive seconds]} over items < items_below."""
        n = len(self.kind)
        child = [0.0] * n
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            if self.item[i] >= items_below:
                continue
            rec = out[self.names[kind[i]]]
            dur = end[i] - start[i]
            rec[0] += 1
            rec[1] += dur - child[i]
            rec[2] += dur
        return out

    def distinct(self, name, items_below):
        return sum(1 for item, _ in self.keys.get(name, ()) if item < items_below)

    def write(self, path):
        """Binary dump: a JSON header line, then the five span arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.kind),
                      "arrays": ["kind:i", "parent:i", "item:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.kind, self.parent, self.item, self.start, self.end):
                arr.tofile(fh)


def _tower_key(d, P):
    return (d.field, tuple((s.kind, s.n, s.c) for s in d.steps), P)


DISTINCT_KEYS = {
    "factorize": lambda f, seed=0: (f, seed),
    "tracked_place": _tower_key,
}
