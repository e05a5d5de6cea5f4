"""Spans around the public entry points of each sumdiv module.

The wrappers come from the benchmark, not from the program: each is set on
every module attribute that holds the function, because the modules import
names from one another with ``from .sets import ...``.  Functions that
recurse through their own module attribute (``fib_general`` and
``headstrong_by_parts``) are left alone, since a wrapper would add a frame
per level and move the depth at which they overflow.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "verify", "promotion", "sets", "multiset", "lunar", "compositions")
UNWRAPPED = {"fib_general", "headstrong_by_parts"}


class Tracer:
    """Keeps spans (name, parent, start, end) in memory for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, label_by_first_arg: bool = False):
        """fn with a span around each call; the span of a call that raises
        ends when the exception leaves fn."""
        fixed_id = self._name_id(name)
        name_a, parent_a, start_a, end_a = self.name, self.parent, self.start, self.end
        open_spans, clock = self._open, time.perf_counter

        def traced(*args, **kwargs):
            nid = self._name_id(f"{name}.{args[0]}") if label_by_first_arg else fixed_id
            i = len(start_a)
            name_a.append(nid)
            parent_a.append(open_spans[-1] if open_spans else -1)
            end_a.append(0.0)
            open_spans.append(i)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                open_spans.pop()

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer module, everywhere the
        package holds a reference to it."""
        package = importlib.import_module("sumdiv")
        modules = {layer: importlib.import_module(f"sumdiv.{layer}") for layer in LAYERS}
        holders = [package, *modules.values()]
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or attr in UNWRAPPED
                    or inspect.isclass(fn)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != module.__name__
                ):
                    continue
                if (layer, attr) == ("verify", "run_target"):
                    # One span name per target: verify.crlodd, verify.bases, ...
                    wrappers[id(fn)] = self.wrap(fn, "verify", label_by_first_arg=True)
                else:
                    wrappers[id(fn)] = self.wrap(fn, f"{layer}.{attr}")
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrappers:
                    setattr(holder, attr, wrappers[id(value)])

    def summary(self) -> dict[str, float]:
        """calls and busy seconds per span name, self seconds per layer.

        busy is the summed duration of a name's spans; no wrapped entry
        point calls itself, so no span nests inside one of its own name.
        Self time is a span's duration minus the durations of its children.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for i in range(n):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + duration
            layer = name.partition(".")[0]
            if layer in LAYERS:
                out[f"{layer}.self_s"] += duration - child[i]
        return out

    def save(self, path: Path) -> None:
        """Write the spans as tab-separated text: a first line with the JSON
        list of names, then one line per span with its parent (-1 for none),
        its name's index, and its start and end in ns from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.names) + "\n")
            fh.writelines(
                f"{p}\t{nid}\t{round((s - origin) * 1e9)}\t{round((e - origin) * 1e9)}\n"
                for p, nid, s, e in zip(self.parent, self.name, self.start, self.end)
            )
