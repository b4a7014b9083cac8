"""Print the README's scale table: `run_filtration` and `build_diagram` on `random_chain(n, 0.7, seed=1)`.

Usage, from the repository root:

    python3 scripts/scale_table.py [N ...]
    python3 scripts/scale_table.py PARENT_DIR CHANGE_DIR N [N ...]

The sizes default to 100 200 400. In the first form each n runs in a fresh
Python process, so its peak RSS is that of a process that built one chain
and timed the two calls REPEATS times, and no n inherits the heap of
another. A row gives the grid values, the median time of each call, the
median garbage-collector pause inside `run_filtration` (summed from
`gc.callbacks`), the peak RSS of the whole process so far, and the
tracemalloc peak of one more, traced `run_filtration` call.

The second form loads both checkouts' `src/markov_morse` into this one
process, as `parent_markov_morse` and `change_markov_morse`, and times
`run_filtration` on the same chain side by side, REPEATS rounds an n, the
side that went first going second in the next round. The two sides' birth
logs must be equal. Fresh processes spread more between runs than the
difference at n=400 and 800; this times both sides on one heap and one
host speed. A row gives, per side, the median time, the median GC pause
and the traced peak of one more call.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SIZES = (100, 200, 400)
DENSITY = 0.7
SEED = 1
REPEATS = 3
SIDES = ("parent", "change")

ROOT = Path(__file__).resolve().parent.parent


def timed(call, *args) -> tuple[float, float, object]:
    """Seconds of one call, seconds of the collector's pauses inside it, and its result."""
    pauses: list[float] = []

    def pause(phase: str, info: dict) -> None:
        pauses.append(time.perf_counter() if phase == "start" else time.perf_counter() - pauses.pop())

    gc.callbacks.append(pause)
    try:
        start = time.perf_counter()
        out = call(*args)
        seconds = time.perf_counter() - start
    finally:
        gc.callbacks.remove(pause)
    return seconds, sum(pauses), out


def traced_mib(call, *args) -> float:
    """The tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(n: int) -> dict:
    """Grid values, median seconds, GC pause, traced peak and peak RSS in MB of one n, in this process."""
    import resource

    from markov_morse import RandomChainSpec, build_diagram, random_chain, run_filtration

    P = random_chain(RandomChainSpec(n, DENSITY, SEED))
    filtration, diagram, gc_pause = [], [], []
    for _ in range(REPEATS):
        seconds, paused, F = timed(run_filtration, P)
        filtration.append(seconds)
        gc_pause.append(paused)
        start = time.perf_counter()
        D = build_diagram(F)
        diagram.append(time.perf_counter() - start)
        grid_values = len(F.grid)
        del F, D  # the next run starts from the same heap
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    traced = traced_mib(run_filtration, P)  # after the RSS reading: tracing costs memory of its own
    return {
        "n": n,
        "grid_values": grid_values,
        "filtration_s": statistics.median(filtration),
        "diagram_s": statistics.median(diagram),
        "gc_s": statistics.median(gc_pause),
        "traced_mib": traced,
        "peak_mb": peak_mb,
    }


def compare(libs: dict, n: int) -> dict:
    """Per side: median seconds and GC pause of `run_filtration` on one n, sides alternating, and its traced peak."""
    chains = {side: mm.random_chain(mm.RandomChainSpec(n, DENSITY, SEED)) for side, mm in libs.items()}
    rows = {side: {"filtration_s": [], "gc_s": []} for side in libs}
    births = {}
    for k in range(REPEATS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            seconds, paused, F = timed(libs[side].run_filtration, chains[side])
            rows[side]["filtration_s"].append(seconds)
            rows[side]["gc_s"].append(paused)
            births[side] = F.births
            del F
        if births["parent"] != births["change"]:
            raise AssertionError(f"n={n}: the two sides' birth logs differ")
        births.clear()
    out: dict = {"n": n}
    for side in SIDES:
        out[side] = {name: statistics.median(values) for name, values in rows[side].items()}
        out[side]["traced_mib"] = traced_mib(libs[side].run_filtration, chains[side])
    return out


def main(argv: list[str]) -> None:
    if argv and not argv[0].isdigit():  # the two-checkout form
        main_pair(Path(argv[0]), Path(argv[1]), [int(a) for a in argv[2:]] or SIZES)
        return
    sizes = [int(a) for a in argv] or SIZES
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")])}
    print("| n | grid values | `run_filtration` | its GC pause | its traced peak | `build_diagram` | peak RSS |")
    print("|---|---|---|---|---|---|---|")
    for n in sizes:
        code = f"import json, scale_table; print(json.dumps(scale_table.measure({n})))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        row = json.loads(out.stdout)
        print(
            f"| {n} | {row['grid_values']} | {row['filtration_s']:.2g} s | {row['gc_s']:.2g} s "
            f"| {row['traced_mib']:.1f} MiB | {row['diagram_s']:.2g} s | {row['peak_mb']:.0f} MB |"
        )


def main_pair(parent: Path, change: Path, sizes: list[int]) -> None:
    from ab_items import load

    libs = {
        side: load(f"{side}_markov_morse", d / "src" / "markov_morse", package=True)
        for side, d in zip(SIDES, (parent, change))
    }
    print(f"`run_filtration` on random_chain(n, {DENSITY}, seed={SEED}), parent | change, {REPEATS} alternating rounds")
    print("| n | time | GC pause | traced peak |")
    print("|---|---|---|---|")
    for n in sizes:
        row = compare(libs, n)
        p, c = row["parent"], row["change"]
        print(
            f"| {n} | {p['filtration_s']:.3g} s / {c['filtration_s']:.3g} s | {p['gc_s']:.3g} s / {c['gc_s']:.3g} s "
            f"| {p['traced_mib']:.1f} / {c['traced_mib']:.1f} MiB |"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
