"""Write references.json: the outputs the benchmark compares against.

Run once, from the repository root, on the commit whose outputs are the
reference (python3 benchmark/make_references.py). The benchmark itself only
reads the file; a later commit regenerates it only to correct a reference
that was wrong, never to accept a changed output.
"""

import json

from run import REFERENCES, import_library
from workloads import REFERENCE_SEEDS, SIZES, WORKLOADS


def main() -> None:
    mm = import_library()
    references: dict = {}
    for size_name, sizes in SIZES.items():
        for name, workload in WORKLOADS.items():
            for seed in REFERENCE_SEEDS:
                inputs = workload.inputs(mm, seed, sizes[name])
                outputs = [workload.call(mm, item) for item in inputs]
                problems = [p for out in outputs for p in workload.invariants(mm, out)]
                if problems:
                    raise SystemExit(f"{size_name} {name} seed {seed}: {problems[0]}")
                summaries = [workload.summary(mm, out) for out in outputs]
                references.setdefault(size_name, {}).setdefault(name, {})[str(seed)] = summaries
                print(f"{size_name} {name} seed {seed}: {len(summaries)} items", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n")


if __name__ == "__main__":
    main()
