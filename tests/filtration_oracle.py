"""Test oracle: the filtration rebuilt from scratch at every grid value.

The library sweeps the threshold grid once, applying each entry's union as
gamma passes it and contracting only the Morse sets a union joins. This
module keeps the direct definition it replaced: at each grid value, build
the field, its M-graph (one mouth per multivector) and the M-graph's SCCs
anew, all from `mgraph_oracle`, and index every Morse set; then
extract the diagram by regrouping every live track through
`containment_map` at every stage. The tests compare the two stage by stage
and diagram by diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from markov_morse.cells import StateComplex, build_complex
from markov_morse.dynamics import MorseSet
from markov_morse.homology import TopologicalIndex
from markov_morse.markov import ThresholdGrid, TransitionMatrix, threshold_grid
from markov_morse.mvf import build_mvf
from markov_morse.persistence import PersistenceDiagram, PersistencePoint, containment_map

from cells_oracle import Field
from components_oracle import index_by_components
from mgraph_oracle import mgraph_by_mouths, morse_sets


@dataclass(frozen=True)
class Stage:
    """Everything computed at one grid value."""

    gamma: float
    field: Field
    morse_sets: tuple[MorseSet, ...]
    index_of: dict[int, TopologicalIndex] = field(compare=False)


@dataclass(frozen=True)
class FiltrationResult:
    grid: ThresholdGrid
    complex: StateComplex
    stages: tuple[Stage, ...]


def run_filtration(P: TransitionMatrix) -> FiltrationResult:
    """Fields, Morse sets and indices at every threshold of P's grid."""
    grid = threshold_grid(P)
    X = build_complex(P)
    stages = []
    for gamma in grid:
        fld = build_mvf(X, P, gamma)
        sets = morse_sets(mgraph_by_mouths(fld, X), fld)
        index_of = {m.label: index_by_components(X, m.cells) for m in sets}
        stages.append(Stage(gamma, fld, sets, index_of))
    return FiltrationResult(grid, X, tuple(stages))


@dataclass
class Track:
    """A living Morse-set lineage during diagram extraction."""

    birth: float
    label: int  # label of the currently containing Morse set
    birth_label: int  # label of the Morse set at birth; tie-break key
    index: TopologicalIndex
    alive: bool = True


def build_diagram(F: FiltrationResult) -> PersistenceDiagram:
    """Extract the decorated diagram from a filtration by track bookkeeping.

    Per stage, live tracks are grouped by the Morse set now containing them.
    Within each group, tracks whose index differs from the set's die first;
    among the rest the minimal (birth, birth label) survives and the others
    die; an empty group births a new track. Base-stage births are at 0.
    """
    points: list[PersistencePoint] = []
    base = F.stages[0]
    tracks = [
        Track(birth=0.0, label=m.label, birth_label=m.label, index=base.index_of[m.label])
        for m in base.morse_sets
    ]
    for prev, stage in zip(F.stages, F.stages[1:]):
        cmap = containment_map(prev, stage)
        groups: dict[int, list[Track]] = {m.label: [] for m in stage.morse_sets}
        for t in tracks:
            t.label = cmap[t.label]
            groups[t.label].append(t)
        for m in stage.morse_sets:
            k_new = stage.index_of[m.label]
            group = groups[m.label]
            matching = []
            for t in group:
                if t.index != k_new:  # index-change death, before any merge
                    t.alive = False
                    points.append(PersistencePoint(t.birth, stage.gamma, t.index))
                else:
                    matching.append(t)
            if matching:
                matching.sort(key=lambda t: (t.birth, t.birth_label))
                for t in matching[1:]:  # merge deaths
                    t.alive = False
                    points.append(PersistencePoint(t.birth, stage.gamma, t.index))
            else:
                tracks.append(Track(stage.gamma, m.label, m.label, k_new))
        tracks = [t for t in tracks if t.alive]
    for t in tracks:
        points.append(PersistencePoint(t.birth, math.inf, t.index))
    return PersistenceDiagram(tuple(points), F.grid)
