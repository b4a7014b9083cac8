"""Print the README's bottleneck table: time and peak RSS of `bottleneck_distance` and `bottleneck_matching`.

Usage, from the repository root:

    python3 scripts/bottleneck_scale.py [PAIR ...]

PAIR is one of the names in PAIRS; with none, every pair runs. Each
(pair, function) runs REPEATS times, each time in a fresh Python process, so
its peak RSS is that of a process that built one pair of diagrams and made
one call, and no run inherits the heap of another. A row gives the points a
side in the largest index class, the distance, and per function the median
over the runs of the seconds of the one call and of the peak RSS of the
whole process after it. "Before" is the median peak RSS once the diagrams
are built, before the call.

The chain pairs are `random_chain(n, 0.7, seed=1)` against its first row-1
edit that changes a finite point of the diagram: `PerturbationSpec(1, j,
+-0.005)` for the smallest j, + tried before -, and where no such edit
changes one, the same with +-0.0005: at n=800 every row-1 entry is below
0.005, so no edit of 0.005 is valid. The dense pair is two
independently drawn diagrams of 2000 points in one class (`independent_pair`),
where the optimum graph {D <= eps} is itself dense.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = ("n100", "n200", "n400", "n800", "dense2000")
FUNCTIONS = ("bottleneck_distance", "bottleneck_matching")
DENSITY = 0.7
SEED = 1
STEPS = (0.005, 0.0005)
REPEATS = 3

ROOT = Path(__file__).resolve().parent.parent


def first_edit(mm, P):
    """The diagram pair of P and its first row-1 edit that changes a finite point: by +-STEPS[0], else +-STEPS[1]."""
    from markov_morse.markov import MatrixValidationError

    D = mm.build_diagram(mm.run_filtration(P))
    finite = sorted(p for p in D.points if p.death < float("inf"))
    for step in STEPS:
        for j in range(2, P.n + 1):
            for delta in (step, -step):
                try:
                    Q = mm.perturb(P, mm.PerturbationSpec(1, j, delta))
                except MatrixValidationError:
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


def measure(pair: str, function: str) -> dict:
    """One call of function on the pair, in this process: seconds and peak RSS in MB."""
    import resource
    import time
    from collections import Counter

    import markov_morse as mm

    def peak_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    D1, D2 = diagrams(mm, pair)
    largest = max(Counter(p.index for p in D1.points if p.death < float("inf")).values())
    before = peak_mb()
    start = time.perf_counter()
    result = getattr(mm, function)(D1, D2)
    seconds = time.perf_counter() - start
    distance = result if function == "bottleneck_distance" else result.distance
    return {"points": largest, "distance": distance, "seconds": seconds, "before_mb": before, "peak_mb": peak_mb()}


def main(argv: list[str]) -> int:
    pairs = argv or list(PAIRS)
    if not set(pairs) <= set(PAIRS):
        print(__doc__, file=sys.stderr)
        return 1
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


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
