"""markov-morse benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 benchmark/run.py --workload sweep|match|stability --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

The library is imported from ./src of the checkout. With --trace 0 the run
sets up several times (import, input generation, reference load, one warm-up
item) and then times items, cycling through the seed's input pool, for S
seconds; it prints the end-to-end metrics. With --trace 1 it runs passes over
the first inputs of the pool, alternately untraced and with every layer's
public functions wrapped in spans, and prints the per-layer metrics per item.
Every output is checked: against the stored reference for the reference
seeds, and always against invariants. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; earlier lines starting with
"#" describe the run. Exit code 2 means the library could not be imported.

Every time reported is in reference seconds: the wall time scaled by how
fast a fixed calibration loop runs next to it (see slowness). The host's CPU
speed drifts by tens of percent from minute to minute on a shared VM; the
loop runs no library code, so the scaling removes the drift and keeps the
program's own changes. The "#" lines also give the unscaled figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import REFERENCE_SEEDS, SIZES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
SETUP_REPEATS = 3
CALIBRATION_LOOP = 50_000
CALIBRATION_REFERENCE_S = 0.004  # loop time that defines one reference second


def slowness() -> float:
    """Best-of-three calibration loop time over its reference time (>1: slow host).

    Item and set-up times are divided by the mean slowness measured just
    before and just after them.
    """
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        x = 0
        for i in range(CALIBRATION_LOOP):
            x += i * i % 7
        best = min(best, perf_counter() - start)
    return best / CALIBRATION_REFERENCE_S


def timed_scaled(run) -> tuple[float, float, object]:
    """(reference seconds, wall seconds, result) of run(), which returns (wall, result)."""
    before = slowness()
    wall, result = run()
    return wall / ((before + slowness()) / 2), wall, result


class Benchmark:
    """One workload at one seed: set-up state, item runner and checks."""

    def __init__(self, workload, seed: int, size_name: str):
        self.workload = workload
        self.seed = seed
        self.size = SIZES[size_name][workload.name]
        self.size_name = size_name

    def set_up(self) -> float:
        """Import the library afresh, build inputs, load references, warm up."""
        start = perf_counter()
        self.mm = import_library()
        self.inputs = self.workload.inputs(self.mm, self.seed, self.size)
        self.reference = load_reference(self.size_name, self.workload.name, self.seed)
        self.first_summary: dict[int, object] = {}
        self.problems: list[str] = []
        self.run_item(0, self.workload.call)
        return perf_counter() - start

    def run_item(self, k: int, call) -> tuple[float, bool]:
        """Time one call on pool item k, then check its output (untimed)."""
        item = self.inputs[k]
        start = perf_counter()
        try:
            out = call(self.mm, item)
        except Exception as exc:  # a failed item is counted, not fatal
            self.problems.append(f"item {k}: raised {type(exc).__name__}: {exc}")
            return perf_counter() - start, False
        elapsed = perf_counter() - start
        return elapsed, self.check(k, out)

    def check(self, k: int, out) -> bool:
        problems = list(self.workload.invariants(self.mm, out))
        summary = self.workload.summary(self.mm, out)
        if self.reference is not None and summary != self.reference[k]:
            problems.append(f"differs from reference: {summary!r} != {self.reference[k]!r}")
        first = self.first_summary.setdefault(k, summary)
        if summary != first:
            problems.append(f"not deterministic: {summary!r} != {first!r}")
        self.problems += [f"item {k}: {p}" for p in problems]
        return not problems

    def run_pool_checks(self) -> set[int]:
        """Costly checks made once per run; returns the pool items that failed."""
        found = self.workload.pool_checks(self.mm, self.inputs)
        for k, problems in found.items():
            self.problems += [f"item {k}: {p}" for p in problems]
        return set(found)


def import_library():
    """(Re)import markov_morse from ./src, so each set-up pays the import."""
    if not (SRC / "markov_morse" / "__init__.py").is_file():
        raise ImportError(f"no markov_morse package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "markov_morse" or n.startswith("markov_morse.")]:
        del sys.modules[name]
    mm = importlib.import_module("markov_morse")
    if Path(mm.__file__).resolve().parent != (SRC / "markov_morse").resolve():
        raise ImportError(f"markov_morse was imported from {mm.__file__}, not {SRC}")
    return mm


def load_reference(size_name: str, workload: str, seed: int) -> list | None:
    if seed not in REFERENCE_SEEDS:
        return None
    with open(REFERENCES) as fh:
        return json.load(fh)[size_name][workload][str(seed)]


def tail(durations: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) for the highest whole percentile
    that still leaves at least ten samples above it (nearest rank).

    Below 20 samples no percentile from p50 up has ten beyond it; the tail
    is then p50, with fewer samples beyond, rather than a sub-median value.
    """
    ordered = sorted(durations)
    n = len(ordered)
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            break
    rank = math.ceil(p * n / 100)
    return ordered[rank - 1], p, n - rank


def count_failures(outcomes: list[tuple[int, bool]], failed_items: set[int]) -> int:
    return sum(1 for k, ok in outcomes if not ok or k in failed_items)


def measure(bench: Benchmark, seconds: float, setup_s: float) -> dict:
    durations: list[float] = []
    walls: list[float] = []
    outcomes: list[tuple[int, bool]] = []
    start = perf_counter()
    while perf_counter() - start < seconds:
        k = len(outcomes) % len(bench.inputs)
        scaled, wall, ok = timed_scaled(lambda: bench.run_item(k, bench.workload.call))
        durations.append(scaled)
        walls.append(wall)
        outcomes.append((k, ok))
    failed = count_failures(outcomes, bench.run_pool_checks())
    attempted = len(outcomes)
    completed = attempted - failed
    value, percentile, beyond = tail(durations)
    print(f"# item_tail_s is p{percentile} of {attempted} items ({beyond} beyond it)")
    print(f"# unscaled: items_per_s {completed / sum(walls):.6g}, item_p50_s "
          f"{statistics.median(walls):.6g}; mean slowness {sum(walls) / sum(durations):.4f}")
    print(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted} items failed)")
    metrics = {
        "items_per_s": (completed / sum(durations), "1/s"),
        "item_p50_s": (statistics.median(durations), "s"),
        "item_tail_s": (value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (completed / attempted, "ratio"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(bench: Benchmark, seconds: float) -> dict:
    """Passes over the same first pool items, each item run untraced then traced.

    Interleaving item by item exposes both runs of an item to the same host
    speed. Each pass has its own tracer; counts must repeat exactly from pass
    to pass, and times are averaged over the passes.
    """
    items = range(min(bench.size["trace_items"], len(bench.inputs)))
    outcomes: list[tuple[int, bool]] = []
    tracers: list[Tracer] = []
    factors: list[float] = []  # wall over reference seconds, per pass
    untraced_s = traced_s = 0.0
    start = perf_counter()
    while not tracers or (perf_counter() - start) * (len(tracers) + 1) / len(tracers) <= seconds:
        tracer = Tracer()

        def traced_call(mm, item):
            return tracer.run_item(lambda: bench.workload.call(mm, item))

        wall = scaled = 0.0
        for k in items:
            untraced = timed_scaled(lambda: bench.run_item(k, bench.workload.call))
            tracer.install()
            try:
                traced = timed_scaled(lambda: bench.run_item(k, traced_call))
            finally:
                tracer.uninstall()
            outcomes += [(k, untraced[2]), (k, traced[2])]
            untraced_s += untraced[0]
            scaled += traced[0]
            wall += traced[1]
        traced_s += scaled
        factors.append(wall / scaled)
        if tracers and tracer.exact_counts() != tracers[0].exact_counts():
            bench.problems.append("traced counts changed between passes")
        tracers.append(tracer)
    failed = count_failures(outcomes, bench.run_pool_checks())
    attempted = len(outcomes)
    print(f"# traced {len(tracers)} pass(es) of {len(items)} items; counts per pass: "
          + json.dumps(tracers[0].exact_counts()))
    print("# self-time share per layer: "
          + ", ".join(f"{k} {v:.4f}" for k, v in tracers[0].shares().items()))
    print(f"# untraced {untraced_s:.4f}, traced {traced_s:.4f} reference s for the same items")
    print(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted} items failed)")
    per_pass = [
        {name: (value / f if unit == "s" else value, unit) for name, (value, unit) in t.metrics().items()}
        for t, f in zip(tracers, factors)
    ]
    metrics = {name: (statistics.fmean(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = Benchmark(WORKLOADS[args.workload], args.seed, args.size)
    try:
        setups = [timed_scaled(lambda: (bench.set_up(), None))[:2] for _ in range(SETUP_REPEATS)]
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    checked = "stored references" if bench.reference is not None else "invariants only (seed has no stored reference)"
    print(f"# {args.workload} seed {args.seed} size {args.size}: outputs checked against {checked}")
    print(f"# set-up times {', '.join(f'{s:.4f}' for s, _ in setups)} reference s "
          f"({', '.join(f'{w:.4f}' for _, w in setups)} s unscaled); reported median")
    if args.trace:
        result = measure_traced(bench, args.seconds)
    else:
        result = measure(bench, args.seconds, statistics.median(s for s, _ in setups))
    for problem in bench.problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not bench.problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
