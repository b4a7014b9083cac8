"""Paired benchmark runs of two checkouts, written as BENCH_<tag>_parent.json and BENCH_<tag>_change.json.

Usage, from the repository root:

    python3 scripts/bench_pair.py PARENT_DIR CHANGE_DIR TAG

Each directory is a full checkout (for the parent, e.g. `git archive <commit>`
unpacked somewhere). For every workload in SCHEDULE the script runs
`python3 benchmark/run.py --workload W --seed 1 --trace 0 --seconds 30` in
each checkout, alternating sides, and alternating which side goes first
from pair to pair. Every run's "#" lines and result line are kept, with
its position in the shared sequence.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SCHEDULE = (("sweep", 10), ("match", 3), ("stability", 3))  # (workload, pairs)
SEED = 1
SECONDS = 30


def run(checkout: Path, args: list[str]) -> dict:
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=checkout, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    return {"notes": [line for line in out if line.startswith("#")], "result": json.loads(out[-1])}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    sides = {"parent": Path(argv[0]), "change": Path(argv[1])}
    tag = argv[2]
    machine = (
        f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
        f"Python {platform.python_version()}, numpy {np.__version__}"
    )
    runs: dict[str, list] = {side: [] for side in sides}
    order = 0
    for workload, pairs in SCHEDULE:
        args = ["--workload", workload, "--seed", str(SEED), "--trace", "0", "--seconds", str(SECONDS)]
        for pair in range(pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                order += 1
                record = {"order": order, "args": args, **run(sides[side], args)}
                runs[side].append(record)
                value = record["result"]["metrics"]["items_per_s"]["value"]
                print(f"{order} {side} {workload} items_per_s {value:.4g}", flush=True)
    for side, records in runs.items():
        doc = {
            "tree": side,
            "command": "python3 benchmark/run.py",
            "machine": machine,
            "schedule": "parent and change runs alternate, which side goes first alternating per pair; "
            "'order' is the position in that shared sequence",
            "runs": records,
        }
        Path(f"BENCH_{tag}_{side}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
