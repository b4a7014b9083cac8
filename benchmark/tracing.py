"""Per-layer spans and counts, recorded from outside the library.

Each traced function is wrapped in every markov_morse module namespace that
holds it, which is where its callers look it up: the library's modules bind
names at import time, so patching only the defining module would miss them.
Spans (name, start, end, parent) and the arguments and results needed for
counts are kept in memory while an item runs and folded into per-layer
totals after it, so the folding is never inside a timed span.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "markov_morse"

# (span name, defining module, function name)
TRACED = (
    ("markov.threshold_grid", "markov", "threshold_grid"),
    ("markov.perturb", "markov", "perturb"),
    ("cells.build_complex", "cells", "build_complex"),
    ("mvf.build_mvf", "mvf", "build_mvf"),
    ("dynamics.build_mgraph", "dynamics", "build_mgraph"),
    ("dynamics.morse_sets", "dynamics", "morse_sets"),
    ("homology.topological_index", "homology", "topological_index"),
    ("persistence.run_filtration", "persistence", "run_filtration"),
    ("persistence.build_diagram", "persistence", "build_diagram"),
    ("bottleneck.bottleneck_matching", "bottleneck", "bottleneck_matching"),
    ("harness.stability_trials", "harness", "stability_trials"),
)

# Reported per item: (metric, unit, source, key). Source "self" is the self
# time of span key, "calls" its call count, "count" the counter named key.
PER_LAYER = (
    ("mvf.build_mvf.s", "s", "self", "mvf.build_mvf"),
    ("mvf.build_mvf.calls", "count", "calls", "mvf.build_mvf"),
    ("mvf.multivectors", "count", "count", "mvf.multivectors"),
    ("dynamics.build_mgraph.s", "s", "self", "dynamics.build_mgraph"),
    ("dynamics.arcs", "count", "count", "dynamics.arcs"),
    ("dynamics.morse_sets.s", "s", "self", "dynamics.morse_sets"),
    ("dynamics.sets", "count", "count", "dynamics.sets"),
    ("homology.topological_index.s", "s", "self", "homology.topological_index"),
    ("homology.topological_index.calls", "count", "calls", "homology.topological_index"),
    ("homology.cells_indexed", "count", "count", "homology.cells_indexed"),
    ("persistence.run_filtration.self_s", "s", "self", "persistence.run_filtration"),
    ("persistence.stages", "count", "count", "persistence.stages"),
    ("persistence.build_diagram.s", "s", "self", "persistence.build_diagram"),
    ("persistence.points", "count", "count", "persistence.points"),
    ("markov.threshold_grid.s", "s", "self", "markov.threshold_grid"),
    ("markov.grid_values", "count", "count", "markov.grid_values"),
    ("markov.perturb.s", "s", "self", "markov.perturb"),
    ("cells.build_complex.s", "s", "self", "cells.build_complex"),
    ("cells.edges", "count", "count", "cells.edges"),
    ("bottleneck.bottleneck_matching.s", "s", "self", "bottleneck.bottleneck_matching"),
    ("bottleneck.bottleneck_matching.calls", "count", "calls", "bottleneck.bottleneck_matching"),
    ("bottleneck.points", "count", "count", "bottleneck.points"),
    ("bottleneck.classes", "count", "count", "bottleneck.classes"),
    ("harness.stability_trials.self_s", "s", "self", "harness.stability_trials"),
    ("harness.trials", "count", "count", "harness.trials"),
)


class Tracer:
    """Installs span wrappers, then accumulates self time, calls and counts."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._spans: list = []
        self._pending: list[tuple[str, tuple, object]] = []
        self._prev_sets: frozenset | None = None
        self.items = 0
        self.item_s = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, module_name, function_name in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, function_name, None)
            if original is None:
                print(f"# trace: {PACKAGE}.{module_name}.{function_name} not found; not traced", flush=True)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, pending = self._spans, self._stack, self._pending

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            pending.append((name, args, result))
            return result

        return traced

    def run_item(self, call):
        """Run one item as the root span, then fold its spans and counts."""
        self._spans.append(None)
        self._stack.append(0)
        start = perf_counter()
        try:
            return call()
        finally:
            end = perf_counter()
            self._stack.pop()
            self._spans[0] = ("item", start, end, -1)
            self.items += 1
            self.item_s += end - start
            self._fold()

    def _fold(self) -> None:
        covered = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            if parent >= 0:
                covered[parent] += end - start
        for k, (name, start, end, _) in enumerate(self._spans):
            self.self_s[name] += end - start - covered[k]
            self.calls[name] += 1
        for name, args, result in self._pending:
            self._count(name, args, result)
        self._spans.clear()
        self._pending.clear()

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "mvf.build_mvf":
            c["mvf.multivectors"] += len(result)
        elif name == "dynamics.build_mgraph":
            c["dynamics.arcs"] += len(result.arcs)
        elif name == "dynamics.morse_sets":
            cell_sets = frozenset(m.cells for m in result)
            previous = self._prev_sets or frozenset()
            c["dynamics.sets"] += len(result)
            c["homology.new_sets"] += len(cell_sets - previous)
            self._prev_sets = cell_sets
        elif name == "homology.topological_index":
            c["homology.cells_indexed"] += len(args[1].cells)
        elif name == "persistence.run_filtration":
            c["persistence.stages"] += len(result.stages)
            self._prev_sets = None  # the next morse_sets call starts a new filtration
        elif name == "persistence.build_diagram":
            c["persistence.points"] += len(result.points)
        elif name == "markov.threshold_grid":
            c["markov.grid_values"] += len(result)
        elif name == "cells.build_complex":
            c["cells.edges"] += len(result.edges)
        elif name == "bottleneck.bottleneck_matching":
            sizes = Counter(p.index for D in args[:2] for p in D.points)
            c["bottleneck.points"] += sum(sizes.values())
            c["bottleneck.classes"] += len(sizes)
            self.maxima["bottleneck.largest_class"] = max(
                self.maxima["bottleneck.largest_class"], max(sizes.values(), default=0)
            )
        elif name == "harness.stability_trials":
            c["harness.trials"] += len(result.records)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-item means of every per-layer metric, the pass maximum class size and the ratio."""
        items = max(self.items, 1)
        out: dict[str, tuple[float, str]] = {}
        for metric, unit, source, key in PER_LAYER:
            if source == "self":
                out[metric] = (self.self_s.get(key, 0.0) / items, unit)
            elif source == "calls":
                out[metric] = (self.calls.get(key, 0) / items, unit)
            else:
                out[metric] = (self.counts.get(key, 0) / items, unit)
        out["bottleneck.largest_class"] = (self.maxima["bottleneck.largest_class"], "count")
        index_calls = self.calls.get("homology.topological_index", 0)
        new_sets = self.counts.get("homology.new_sets", 0)
        out["homology.new_sets_ratio"] = (new_sets / index_calls if index_calls else 0.0, "ratio")
        return out

    def exact_counts(self) -> dict[str, int]:
        """Integer totals over the pass; equal across runs of the same inputs."""
        totals = {f"{k}.calls": v for k, v in self.calls.items() if k != "item"}
        totals.update(self.counts)
        totals.update(self.maxima)
        return dict(sorted(totals.items()))

    def shares(self) -> dict[str, float]:
        """Each span's share of item time by self time, largest first."""
        total = self.item_s or math.inf
        return dict(sorted(((k, v / total) for k, v in self.self_s.items()), key=lambda kv: -kv[1]))
