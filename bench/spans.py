"""Span recording for the traced benchmark run.

A ``Tracer`` wraps the public functions of each momogp module (and the
public methods of ``GpLeaf``) at the module boundary: every namespace in
the package that holds a reference to one of those functions gets a
wrapper that records a span (name, start, end, parent) around the call.
Nothing under ``src/`` changes; ``uninstall`` restores the originals.

Spans are kept in memory and written out once, when the workload ends.
Per-layer metrics are derived from them by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "data_pipeline",
    "circuit",
    "gp_leaf",
    "training",
    "inference",
    "serialize",
    "images",
    "cli",
    "metrics",
)
LEAF_METHODS = ("fit", "mll_gradient", "posterior_batch", "posterior", "refit")


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    A span is the list [name, start, end, parent_index]; parent -1 marks
    a root. The benchmark is single-threaded (training runs with
    threads=1), so one parent stack is enough.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.jittered_fits = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1]])
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _count_jitter(self, args, result):
        if result.jitter > 0.0:
            self.jittered_fits += 1

    def install(self):
        """Wrap every public function of the listed layers wherever it is bound."""
        import momogp
        from momogp.gp_leaf import GpLeaf

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"momogp.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [momogp] + [
            mod
            for name, mod in sys.modules.items()
            if name.startswith("momogp.") and mod is not None
        ]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(namespace, attr, hit[1])
        for method in LEAF_METHODS:
            original = GpLeaf.__dict__[method]
            after = self._count_jitter if method == "fit" else None
            self._patch(GpLeaf, method, self._wrap(f"gp_leaf.{method}", original, after))

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, extra: dict):
        """Write the spans (times in seconds from the first span) and ``extra``."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - origin, 7), round(end - origin, 7), parent]
            for name, start, end, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": rows, **extra}, fh)


class SpanIndex:
    """Span queries: durations, counts and self times grouped by phase."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.duration = [s[2] - s[1] for s in spans]
        self.children_time = [0.0] * n
        self.phase = [""] * n
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                self.children_time[parent] += self.duration[i]
                self.phase[i] = self.phase[parent]
            elif name.startswith("phase."):
                self.phase[i] = name[len("phase."):]

    def _select(self, name: str, phase: str | None):
        return [
            i
            for i, s in enumerate(self.spans)
            if s[0] == name and (phase is None or self.phase[i] == phase)
        ]

    def total(self, name: str, phase: str | None = None) -> float:
        return float(sum(self.duration[i] for i in self._select(name, phase)))

    def count(self, name: str, phase: str | None = None) -> int:
        return len(self._select(name, phase))

    def self_time(self, name: str, phase: str | None = None) -> float:
        """Duration minus the time of direct child spans."""
        return float(
            sum(self.duration[i] - self.children_time[i] for i in self._select(name, phase))
        )

    def minus_children(self, name: str, phase: str, child_names: set[str]) -> float:
        """Duration of ``name`` spans minus their direct children named in ``child_names``."""
        picked = set(self._select(name, phase))
        total = sum(self.duration[i] for i in picked)
        for i, s in enumerate(self.spans):
            if s[3] in picked and s[0] in child_names:
                total -= self.duration[i]
        return float(total)

    def phase_seconds(self) -> dict[str, float]:
        return {
            self.phase[i]: self.duration[i]
            for i, s in enumerate(self.spans)
            if s[3] < 0 and s[0].startswith("phase.")
        }
