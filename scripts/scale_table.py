"""Print the README's scale table: `run_filtration` and `build_diagram` on `random_chain(n, 0.7, seed=1)`.

Usage, from the repository root:

    python3 scripts/scale_table.py [N ...]

The sizes default to 100 200 400. Each n runs in a fresh Python process, so
its peak RSS is that of a process that built one chain and timed the two
calls REPEATS times, and no n inherits the heap of another. A row gives the
grid values, the median time of each call and the peak RSS of the whole
process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SIZES = (100, 200, 400)
DENSITY = 0.7
SEED = 1
REPEATS = 3

ROOT = Path(__file__).resolve().parent.parent


def measure(n: int) -> dict:
    """Grid values, median seconds and peak RSS in MB of one n, in this process."""
    import resource
    import statistics
    import time

    from markov_morse import RandomChainSpec, build_diagram, random_chain, run_filtration

    P = random_chain(RandomChainSpec(n, DENSITY, SEED))
    filtration, diagram = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        F = run_filtration(P)
        middle = time.perf_counter()
        D = build_diagram(F)
        filtration.append(middle - start)
        diagram.append(time.perf_counter() - middle)
        grid_values = len(F.grid)
        del F, D  # the next run starts from the same heap
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return {
        "n": n,
        "grid_values": grid_values,
        "filtration_s": statistics.median(filtration),
        "diagram_s": statistics.median(diagram),
        "peak_mb": peak_mb,
    }


def main(argv: list[str]) -> None:
    sizes = [int(a) for a in argv] or SIZES
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")])}
    print("| n | grid values | `run_filtration` | `build_diagram` | peak RSS |")
    print("|---|---|---|---|---|")
    for n in sizes:
        code = f"import json, scale_table; print(json.dumps(scale_table.measure({n})))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        row = json.loads(out.stdout)
        print(
            f"| {n} | {row['grid_values']} | {row['filtration_s']:.2g} s | {row['diagram_s']:.2g} s "
            f"| {row['peak_mb']:.0f} MB |"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
