"""Print the crossover table behind `_DENSE_ENTRIES`: the dense and the windowed route on one class.

Usage, from the repository root:

    python3 scripts/route_crossover.py

For each size in SIZES the script draws two one-class pairs of that many
points a side from fixed seeds: a near pair (each point of A moved by up to
0.01 in birth and death, about one in ten redrawn) and an independent pair.
Births are uniform in [0, 0.5] and lengths 1e-3 plus exponential of mean
0.08, as in the `match` workload. Both routes run alternately in this one
process on the same classes, after one untimed round. Per round, whichever
route went first goes second next time. A
row gives the median over ROUNDS rounds of the milliseconds per call, for
the distance alone and for the reported matching, and each route's
tracemalloc peak for the matching, taken in one extra untimed call. Small
classes are timed over several calls per round, so each round lasts at
least a few milliseconds. Every call's distance and pairs are checked to be
the same on both routes.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from markov_morse.bottleneck import _Class, _Dense, _radius, _slot_pairs  # noqa: E402
from markov_morse.homology import TopologicalIndex  # noqa: E402
from markov_morse.persistence import PersistencePoint  # noqa: E402

SIZES = (25, 50, 100, 200, 400, 800, 1600)
ROUNDS = 7
SEED = 1
CALL_ENTRIES = 40_000  # a round repeats the call until it has covered about this many entries of D
K01 = TopologicalIndex(0, 1)


def draw(rng: np.random.Generator, count: int) -> list[PersistencePoint]:
    births = rng.uniform(0.0, 0.5, size=count)
    deaths = births + rng.exponential(0.08, size=count) + 1e-3
    return [PersistencePoint(b, d, K01) for b, d in zip(births.tolist(), deaths.tolist())]


def class_pair(points: int, near: bool) -> tuple[list[PersistencePoint], list[PersistencePoint]]:
    rng = np.random.default_rng([SEED, points, near])
    A = draw(rng, points)
    if not near:
        return A, draw(rng, points)
    B = []
    for birth, death, k in A:
        if rng.uniform() < 0.1:
            B.extend(draw(rng, 1))
        else:
            birth = max(0.0, birth + float(rng.uniform(-0.01, 0.01)))
            B.append(PersistencePoint(birth, max(death + float(rng.uniform(-0.01, 0.01)), birth + 1e-4), k))
    return A, B


ROUTES = {"dense": _Dense, "windowed": _Class}


def solve(route, A, B, report: bool):
    """What `_finite_class_distance` runs on a class the route takes."""
    c = route(A, B)
    eps = _radius(c)
    return eps, _slot_pairs(A, B, *c.rows(eps), eps) if report else []


def per_call_ms(route, A, B, report: bool, calls: int) -> tuple[float, tuple]:
    start = time.perf_counter()
    for _ in range(calls):
        result = solve(route, A, B, report)
    return (time.perf_counter() - start) * 1e3 / calls, result


def traced_peak_mb(route, A, B) -> float:
    tracemalloc.start()
    try:
        solve(route, A, B, True)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def row(points: int, near: bool) -> str:
    A, B = class_pair(points, near)
    calls = max(1, CALL_ENTRIES // (points * points))
    ms = {(name, report): [] for name in ROUTES for report in (False, True)}
    expected = {report: solve(_Dense, A, B, report) for report in (False, True)}
    for r in range(-1, ROUNDS):  # round -1 warms both routes up and is not timed
        names = list(ROUTES) if r % 2 == 0 else list(reversed(ROUTES))
        for report in (False, True):
            for name in names:
                t, result = per_call_ms(ROUTES[name], A, B, report, calls)
                if result != expected[report]:
                    raise AssertionError(f"{name} differs on {points} points, near={near}, report={report}")
                if r >= 0:
                    ms[name, report].append(t)
    med = {key: statistics.median(values) for key, values in ms.items()}
    peak = {name: traced_peak_mb(route, A, B) for name, route in ROUTES.items()}
    return (
        f"| {points} | {'near' if near else 'independent'} | {expected[False][0]:.3g} "
        f"| {med['dense', False]:.3g} | {med['windowed', False]:.3g} "
        f"| {med['dense', True]:.3g} | {med['windowed', True]:.3g} "
        f"| {peak['dense']:.3g} | {peak['windowed']:.3g} |"
    )


def main() -> int:
    print("| points a side | pair | d_B | distance ms, dense | windowed | matching ms, dense | windowed "
          "| peak MB, dense | windowed |")
    print("|---|---|---|---|---|---|---|---|---|")
    for points in SIZES:
        for near in (True, False):
            print(row(points, near), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
