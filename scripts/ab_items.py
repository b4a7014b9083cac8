"""Time two checkouts' library on one benchmark workload, alternating item by item in one process.

Usage, from the repository root:

    python3 scripts/ab_items.py PARENT_DIR CHANGE_DIR WORKLOAD SECONDS [SEED]

Each directory is a full checkout. The script loads each checkout's
`src/markov_morse` into this one process, as the packages `parent_markov_morse`
and `change_markov_morse`, and builds each side's inputs from WORKLOAD's pool
at SEED (default 1; 2 is the held-out reference seed) with this checkout's
`benchmark/workloads.py`, which it only reads.
After one untimed call per side, it cycles through the pool for SECONDS. Per
item both sides make the workload's call, and the side that went first goes
second on the next item. Each call is timed as `benchmark/run.py` times an
item: its wall time divided by the mean of `slowness()` measured just before
and just after it. The two sides' summaries of each item must be equal.

For each side the script prints the median scaled seconds per item (p50), the
items per scaled second, and the number of items on which it was the faster
side. Fresh processes spread more between runs than a few-percent change, and
a hot loop without the scaling overstates it; this pairs every item's two
calls on the same host speed.
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SIDES = ("parent", "change")


def load(name: str, path: Path, package: bool = False):
    """The module or package at path, imported under name."""
    init = path / "__init__.py" if package else path
    locations = [str(path)] if package else None
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def main(argv: list[str]) -> int:
    if len(argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 1
    parent, change, workload, seconds = Path(argv[0]), Path(argv[1]), argv[2], float(argv[3])
    seed = int(argv[4]) if len(argv) == 5 else SEED
    sys.path.insert(0, str(ROOT / "benchmark"))  # run.py imports its siblings by name
    runner = load("ab_benchmark_run", ROOT / "benchmark" / "run.py")
    W = runner.WORKLOADS[workload]
    size = runner.SIZES["full"][workload]
    libs = {
        side: load(f"{side}_markov_morse", d / "src" / "markov_morse", package=True)
        for side, d in zip(SIDES, (parent, change))
    }
    inputs = {side: W.inputs(mm, seed, size) for side, mm in libs.items()}
    for side, mm in libs.items():
        W.call(mm, inputs[side][0])  # warm-up

    def timed(side: str, k: int):
        def run():
            start = perf_counter()
            out = W.call(libs[side], inputs[side][k])
            return perf_counter() - start, out

        scaled, _, out = runner.timed_scaled(run)
        return scaled, W.summary(libs[side], out)

    times: dict[str, list[float]] = {side: [] for side in SIDES}
    won = dict.fromkeys(SIDES, 0)
    start, item = perf_counter(), 0
    while perf_counter() - start < seconds:
        k = item % len(inputs["parent"])
        order = SIDES if item % 2 == 0 else SIDES[::-1]
        result = {side: timed(side, k) for side in order}
        if result["parent"][1] != result["change"][1]:
            raise AssertionError(f"item {k}: {result['parent'][1]!r} != {result['change'][1]!r}")
        for side in SIDES:
            times[side].append(result[side][0])
        won[min(SIDES, key=lambda side: result[side][0])] += 1
        item += 1
    print(f"{workload} at seed {seed}: {item} items a side, every summary equal")
    for side in SIDES:
        p50 = statistics.median(times[side])
        rate = len(times[side]) / sum(times[side])
        print(f"{side:7} p50 {p50 * 1e3:.4g} ms  items_per_s {rate:.4g}  won {won[side]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
