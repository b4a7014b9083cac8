"""Print the crossover table behind `_DENSE_ENTRIES`: the dense, the windowed and the line route on one class.

Usage, from the repository root:

    python3 scripts/route_crossover.py

For each size in SIZES the script draws four one-class pairs of that many
points a side from fixed seeds: a near pair (each point of A moved by up to
0.01 in birth and death, about one in ten redrawn) and an independent pair,
each with births uniform in [0, 0.5] and with every birth 0.0 (a near
one-birth pair moves only deaths). Lengths are 1e-3 plus exponential of
mean 0.08, as in the `match` workload. Each side is in diagram order, the
order the line route needs. The routes that apply run
alternately in this one process on the same classes, after one untimed
round: the line route only on one-birth pairs. Per round the order of the
routes is reversed. A row gives the median over ROUNDS rounds of the
milliseconds per call, for the distance alone and for the reported
matching, each route's number of radius probes, and its tracemalloc peak
for the matching, taken in one extra untimed call. Small classes are timed
over several calls per round, so each round lasts at least a few
milliseconds. Every call's distance and pairs are checked to be the same
on every route.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from markov_morse.bottleneck import _Class, _Dense, _Line, _radius, _slot_pairs  # noqa: E402
from markov_morse.homology import TopologicalIndex  # noqa: E402
from markov_morse.persistence import PersistencePoint  # noqa: E402

SIZES = (25, 50, 100, 200, 400, 800, 1600)
ROUNDS = 7
SEED = 1
CALL_ENTRIES = 40_000  # a round repeats the call until it has covered about this many entries of D
K01 = TopologicalIndex(0, 1)


def draw(rng: np.random.Generator, count: int, one_birth: bool) -> list[PersistencePoint]:
    births = np.zeros(count) if one_birth else rng.uniform(0.0, 0.5, size=count)
    deaths = births + rng.exponential(0.08, size=count) + 1e-3
    return [PersistencePoint(b, d, K01) for b, d in zip(births.tolist(), deaths.tolist())]


def class_pair(points: int, near: bool, one_birth: bool = False) -> tuple[list[PersistencePoint], ...]:
    """One class's two sides, each in diagram order (by birth, then death), as `_by_class` hands them over."""
    rng = np.random.default_rng([SEED, points, near, one_birth] if one_birth else [SEED, points, near])
    A = draw(rng, points, one_birth)
    if not near:
        return sorted(A), sorted(draw(rng, points, one_birth))
    B = []
    for birth, death, k in A:
        if rng.uniform() < 0.1:
            B.extend(draw(rng, 1, one_birth))
        else:
            shift = float(rng.uniform(-0.01, 0.01))
            birth = birth if one_birth else max(0.0, birth + shift)
            B.append(PersistencePoint(birth, max(death + float(rng.uniform(-0.01, 0.01)), birth + 1e-4), k))
    return sorted(A), sorted(B)


ROUTES = {"dense": _Dense, "windowed": _Class, "line": _Line}


def solve(route, A, B, report: bool):
    """What `_finite_class_distance` runs on a class the route takes."""
    c = route(A, B)
    eps = _radius(c)
    return eps, _slot_pairs(A, B, c, eps) if report else []


def per_call_ms(route, A, B, report: bool, calls: int) -> tuple[float, tuple]:
    start = time.perf_counter()
    for _ in range(calls):
        result = solve(route, A, B, report)
    return (time.perf_counter() - start) * 1e3 / calls, result


def probes(route, A, B) -> int:
    """The radii `_radius` probes on the class by the route."""
    count = 0

    class Counted(route):
        def probe(self, eps):
            nonlocal count
            count += 1
            return super().probe(eps)

    _radius(Counted(A, B))
    return count


def traced_peak_mb(route, A, B) -> float:
    tracemalloc.start()
    try:
        solve(route, A, B, True)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def row(points: int, near: bool, one_birth: bool) -> str:
    A, B = class_pair(points, near, one_birth)
    routes = [name for name in ROUTES if one_birth or name != "line"]  # the line route needs one birth
    calls = max(1, CALL_ENTRIES // (points * points))
    ms = {(name, report): [] for name in routes for report in (False, True)}
    expected = {report: solve(_Dense, A, B, report) for report in (False, True)}
    for r in range(-1, ROUNDS):  # round -1 warms the routes up and is not timed
        names = routes if r % 2 == 0 else routes[::-1]
        for report in (False, True):
            for name in names:
                t, result = per_call_ms(ROUTES[name], A, B, report, calls)
                if result != expected[report]:
                    raise AssertionError(f"{name} differs on {points} points, near={near}, report={report}")
                if r >= 0:
                    ms[name, report].append(t)
    med = {key: f"{statistics.median(values):.3g}" for key, values in ms.items()}
    probed = {name: str(probes(ROUTES[name], A, B)) for name in routes}
    peak = {name: f"{traced_peak_mb(ROUTES[name], A, B):.3g}" for name in routes}
    cells = [
        *(med.get((name, False), "-") for name in ROUTES),
        *(probed.get(name, "-") for name in ROUTES),
        *(med.get((name, True), "-") for name in ROUTES),
        *(peak.get(name, "-") for name in ROUTES),
    ]
    pair = ("near" if near else "independent") + (", one birth" if one_birth else "")
    return f"| {points} | {pair} | {expected[False][0]:.3g} | " + " | ".join(cells) + " |"


def main() -> int:
    print("| points a side | pair | d_B | distance ms, dense | windowed | line | probes, dense | windowed | line "
          "| matching ms, dense | windowed | line | peak MB, dense | windowed | line |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    for points in SIZES:
        for one_birth in (False, True):
            for near in (True, False):
                print(row(points, near, one_birth), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
