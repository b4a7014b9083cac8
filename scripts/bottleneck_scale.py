"""Print the README's bottleneck table: time and peak RSS of `bottleneck_distance` and `bottleneck_matching`.

Usage, from the repository root:

    python3 scripts/bottleneck_scale.py [PAIR ...]
    python3 scripts/bottleneck_scale.py PARENT_DIR CHANGE_DIR PAIR [PAIR ...]

PAIR is one of the names in PAIRS; with none, the first form runs every
pair. In the first form each (pair, function) runs REPEATS times, each time
in a fresh Python process, so its peak RSS is that of a process that built
one pair of diagrams and made one call, and no run inherits the heap of
another. A row gives the points a side in the largest index class, the
distance, and per function the median over the runs of the seconds of the
one call and of the peak RSS of the whole process after it. "Before" is the
median peak RSS once the diagrams are built, before the call.

The second form loads both checkouts' `src/markov_morse` into this one
process, as `parent_markov_morse` and `change_markov_morse`. It builds each
pair's diagrams once, with the change's library, and gives each side its
own copy, read back from their JSON. Each function then runs on both sides
REPEATS rounds, the side that went first going second in the next round,
and the two sides' results must have equal `repr`s. Fresh processes spread
more between runs of one tree than most changes move these calls (the n400
distance from 9.3 to 12 s within an hour); this times both sides on one
heap and one host speed. A row gives per function each side's median time,
its median GC pause and the traced peak of one more call.

The chain pairs are `random_chain(n, 0.7, seed=1)` against its first row-1
edit that changes a finite point of the diagram: `PerturbationSpec(1, j,
+-0.005)` for the smallest j, + tried before -, and where no such edit
changes one, the same with +-0.0005: at n=800 every row-1 entry is below
0.005, so no edit of 0.005 is valid. The dense pair is two
independently drawn diagrams of 2000 points in one class (`independent_pair`),
where the optimum graph {D <= eps} is itself dense.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from scale_table import SIDES, timed, traced_mib

PAIRS = ("n100", "n200", "n400", "n800", "dense2000")
FUNCTIONS = ("bottleneck_distance", "bottleneck_matching")
DENSITY = 0.7
SEED = 1
STEPS = (0.005, 0.0005)
REPEATS = 3

ROOT = Path(__file__).resolve().parent.parent


def first_edit(mm, P):
    """The diagram pair of P and its first row-1 edit that changes a finite point: by +-STEPS[0], else +-STEPS[1]."""
    D = mm.build_diagram(mm.run_filtration(P))
    finite = sorted(p for p in D.points if p.death < float("inf"))
    for step in STEPS:
        for j in range(2, P.n + 1):
            for delta in (step, -step):
                try:
                    Q = mm.perturb(P, mm.PerturbationSpec(1, j, delta))
                except mm.markov.MatrixValidationError:
                    continue
                E = mm.build_diagram(mm.run_filtration(Q))
                if sorted(p for p in E.points if p.death < float("inf")) != finite:
                    return D, E
    raise ValueError("no row-1 edit changes a finite point")


def independent_pair(mm, points: int):
    """Two independent one-class diagrams: births uniform in [0, 0.5], lengths 1e-3 plus exponential of mean 0.08."""
    import numpy as np

    rng = np.random.default_rng(SEED)

    def draw():
        births = rng.uniform(0.0, 0.5, size=points)
        deaths = births + rng.exponential(0.08, size=points) + 1e-3
        rows = [{"birth": b, "death": d, "index": [0, 1]} for b, d in zip(births.tolist(), deaths.tolist())]
        return mm.diagram_from_json(json.dumps({"grid": [0.0, 1.0], "points": rows}))

    return draw(), draw()


def diagrams(mm, pair: str):
    if pair == "dense2000":
        return independent_pair(mm, 2000)
    n = int(pair.removeprefix("n"))
    return first_edit(mm, mm.random_chain(mm.RandomChainSpec(n, DENSITY, SEED)))


def largest_class(D) -> int:
    """The number of finite points in D's largest index class."""
    return max(Counter(p.index for p in D.points if p.death < float("inf")).values())


def measure(pair: str, function: str) -> dict:
    """One call of function on the pair, in this process: seconds and peak RSS in MB."""
    import resource
    import time

    import markov_morse as mm

    def peak_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    D1, D2 = diagrams(mm, pair)
    largest = largest_class(D1)
    before = peak_mb()
    start = time.perf_counter()
    result = getattr(mm, function)(D1, D2)
    seconds = time.perf_counter() - start
    distance = result if function == "bottleneck_distance" else result.distance
    return {"points": largest, "distance": distance, "seconds": seconds, "before_mb": before, "peak_mb": peak_mb()}


def compare(libs: dict, pair: str) -> dict:
    """Per function and side: median seconds and GC pause, sides alternating, and the traced peak of one call."""
    D1, D2 = diagrams(libs["change"], pair)
    texts = [libs["change"].diagram_to_json(D) for D in (D1, D2)]
    out: dict = {"points": largest_class(D1)}
    del D1, D2
    inputs = {side: [mm.diagram_from_json(text) for text in texts] for side, mm in libs.items()}
    for function in FUNCTIONS:
        runs = {side: {"seconds": [], "gc_s": []} for side in SIDES}
        for k in range(REPEATS):
            results = {}
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                gc.collect()  # no call collects the garbage of the one before
                seconds, paused, results[side] = timed(getattr(libs[side], function), *inputs[side])
                runs[side]["seconds"].append(seconds)
                runs[side]["gc_s"].append(paused)
            if repr(results["parent"]) != repr(results["change"]):
                raise AssertionError(f"{pair}: the two sides' {function} results differ")
        result = results["change"]
        out["distance"] = result if function == "bottleneck_distance" else result.distance
        del result, results
        out[function] = {}
        for side in SIDES:
            out[function][side] = {name: statistics.median(values) for name, values in runs[side].items()}
            out[function][side]["traced_mib"] = traced_mib(getattr(libs[side], function), *inputs[side])
    return out


def main(argv: list[str]) -> int:
    two_checkouts = bool(argv) and argv[0] not in PAIRS
    pairs = argv[2:] if two_checkouts else argv or list(PAIRS)
    if not pairs or not set(pairs) <= set(PAIRS):
        print(__doc__, file=sys.stderr)
        return 1
    if two_checkouts:
        return main_pair(Path(argv[0]), Path(argv[1]), pairs)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")])}
    print("| pair | points a side | d_B | distance | matching | peak RSS before |")
    print("|---|---|---|---|---|---|")
    for pair in pairs:
        rows = []
        for function in FUNCTIONS:
            code = f"import json, bottleneck_scale; print(json.dumps(bottleneck_scale.measure({pair!r}, {function!r})))"
            runs = []
            for _ in range(REPEATS):
                out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
                runs.append(json.loads(out.stdout))
            row = {key: statistics.median(run[key] for run in runs) for key in ("seconds", "before_mb", "peak_mb")}
            rows.append({**runs[0], **row})
        dist, match = rows
        print(
            f"| {pair} | {dist['points']} | {dist['distance']:.3g} "
            f"| {dist['seconds']:.2g} s, {dist['peak_mb']:.0f} MB "
            f"| {match['seconds']:.2g} s, {match['peak_mb']:.0f} MB | {dist['before_mb']:.0f} MB |"
        )
    return 0


def main_pair(parent: Path, change: Path, pairs: list[str]) -> int:
    from ab_items import load

    libs = {
        side: load(f"{side}_markov_morse", d / "src" / "markov_morse", package=True)
        for side, d in zip(SIDES, (parent, change))
    }
    print(f"parent / change, {REPEATS} alternating rounds a call")
    print("| pair | points a side | d_B | call | time | GC pause | traced peak |")
    print("|---|---|---|---|---|---|---|")
    for pair in pairs:
        row = compare(libs, pair)
        for function in FUNCTIONS:
            p, c = row[function]["parent"], row[function]["change"]
            print(
                f"| {pair} | {row['points']} | {row['distance']:.3g} | `{function}` "
                f"| {p['seconds']:.3g} s / {c['seconds']:.3g} s | {p['gc_s']:.3g} s / {c['gc_s']:.3g} s "
                f"| {p['traced_mib']:.1f} / {c['traced_mib']:.1f} MiB |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
