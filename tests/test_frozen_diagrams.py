"""Differential tests: output stays bit-for-bit what a frozen pipeline made.

`frozen_diagrams.json` maps each seeded random chain to the sha256 of its
canonical diagram JSON, as computed by the pipeline before the homology
layer was reduced to component counts. Any refactor that changes a single
birth, death or index of any point on these chains fails here.

Diagrams do not show how cells are named: labels, the order of cells inside
a set and the order pairs never reach them. `frozen_cell_output.json` maps
a smaller set of chains to the sha256 of the `mvf` and `morse` CLI output at
every grid value, as computed with the frozen `Cell` dataclass before cells
became integer ids.

Regenerate (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_frozen_diagrams.py
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from markov_morse import (
    RandomChainSpec,
    build_diagram,
    diagram_to_json,
    random_chain,
    run_filtration,
    threshold_grid,
)
from markov_morse.cli import main
from markov_morse.markov import serialize_matrix

DATA = Path(__file__).with_name("frozen_diagrams.json")
CELL_DATA = Path(__file__).with_name("frozen_cell_output.json")
SIZES = range(3, 9)
DENSITIES = (0.5, 0.7, 1.0)
SEEDS = range(12)
CELL_SEEDS = range(3)


def specs():
    return [RandomChainSpec(n, d, seed) for n in SIZES for d in DENSITIES for seed in SEEDS]


def key(spec):
    return f"n={spec.n} density={spec.density} seed={spec.seed}"


def digest(spec):
    text = diagram_to_json(build_diagram(run_filtration(random_chain(spec))))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the diagram JSON of random_chain(n, 0.7, seed=1), beyond the
# sizes the full-rebuild oracle can reach. The n <= 100 digests come from
# the sweep that still snapshotted every stage; n = 200 and 400 were first
# run by the births-only sweep, and are slow (seconds, 70 and 170 MB).
LARGE = {
    40: "d991962dc32b976637fd2d485a3eb1ded3f09fb76755d4de920c598346ab4dd9",
    60: "b9a9c46fda3ce8cd31cdb2f7dd050e59f4dbee2b175cf7fc6c223043262ef892",
    100: "8ff2023752d58cf8e6fecdcb42d53c7777d88dc66014bedf9f4ed539dadfa39a",
}
SLOW = {
    200: "81c61e2442ee65ca8e0619701f4e14c56bc136fc6a100e49d9c9371b0ec10d0c",
    400: "e17baf8b574ad5121e31d38c2c8793095bd4cf0475e0d2684e9524b8cddfe5ff",
}


def cell_specs():
    return [RandomChainSpec(n, d, seed) for n in SIZES for d in DENSITIES for seed in CELL_SEEDS]


def cell_output_digest(spec, workdir):
    """sha256 of `mvf` then `morse` stdout at every grid value, in grid order."""
    P = random_chain(spec)
    path = Path(workdir) / "chain.json"
    path.write_text(serialize_matrix(P))
    out = io.StringIO()
    with redirect_stdout(out):
        for gamma in threshold_grid(P):
            for command in ("mvf", "morse"):
                assert main([command, str(path), "--gamma", repr(gamma)]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_diagrams_match_the_frozen_digests():
    frozen = json.loads(DATA.read_text())
    assert len(frozen) >= 200
    assert sorted(frozen) == sorted(key(s) for s in specs())
    changed = [key(s) for s in specs() if digest(s) != frozen[key(s)]]
    print(f"\n[frozen diagrams] {len(frozen)} chains compared, {len(changed)} changed")
    assert changed == []


@pytest.mark.parametrize("n", sorted(LARGE))
def test_large_chain_diagrams_match_the_pinned_digests(n):
    assert digest(RandomChainSpec(n, 0.7, 1)) == LARGE[n]


@pytest.mark.slow
@pytest.mark.parametrize("n", sorted(SLOW))
def test_very_large_chain_diagrams_match_the_pinned_digests(n):
    assert digest(RandomChainSpec(n, 0.7, 1)) == SLOW[n]


def test_cell_output_matches_the_frozen_digests(tmp_path):
    frozen = json.loads(CELL_DATA.read_text())
    assert sorted(frozen) == sorted(key(s) for s in cell_specs())
    changed = [key(s) for s in cell_specs() if cell_output_digest(s, tmp_path) != frozen[key(s)]]
    print(f"\n[frozen cell output] {len(frozen)} chains compared, {len(changed)} changed")
    assert changed == []


if __name__ == "__main__":
    DATA.write_text(json.dumps({key(s): digest(s) for s in specs()}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
    with tempfile.TemporaryDirectory() as workdir:
        cells = {key(s): cell_output_digest(s, workdir) for s in cell_specs()}
    CELL_DATA.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CELL_DATA}")
