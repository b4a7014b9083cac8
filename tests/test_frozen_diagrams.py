"""Differential test: diagrams stay bit-for-bit what a frozen pipeline made.

`frozen_diagrams.json` maps each seeded random chain to the sha256 of its
canonical diagram JSON, as computed by the pipeline before the homology
layer was reduced to component counts. Any refactor that changes a single
birth, death or index of any point on these chains fails here.

Regenerate (only when a diagram change is intended) with:

    PYTHONPATH=src python tests/test_frozen_diagrams.py
"""

import hashlib
import json
from pathlib import Path

from markov_morse import (
    RandomChainSpec,
    build_diagram,
    diagram_to_json,
    random_chain,
    run_filtration,
)

DATA = Path(__file__).with_name("frozen_diagrams.json")
SIZES = range(3, 9)
DENSITIES = (0.5, 0.7, 1.0)
SEEDS = range(12)


def specs():
    return [RandomChainSpec(n, d, seed) for n in SIZES for d in DENSITIES for seed in SEEDS]


def key(spec):
    return f"n={spec.n} density={spec.density} seed={spec.seed}"


def digest(spec):
    text = diagram_to_json(build_diagram(run_filtration(random_chain(spec))))
    return hashlib.sha256(text.encode()).hexdigest()


def test_diagrams_match_the_frozen_digests():
    frozen = json.loads(DATA.read_text())
    assert len(frozen) >= 200
    assert sorted(frozen) == sorted(key(s) for s in specs())
    changed = [key(s) for s in specs() if digest(s) != frozen[key(s)]]
    print(f"\n[frozen diagrams] {len(frozen)} chains compared, {len(changed)} changed")
    assert changed == []


if __name__ == "__main__":
    DATA.write_text(json.dumps({key(s): digest(s) for s in specs()}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
