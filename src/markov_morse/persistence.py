"""Persistence of Morse sets across the threshold filtration.

Running the field construction at every grid value gives a coarsening chain
of partitions; each Morse set at one stage sits inside exactly one Morse set
at the next. Tracks follow these containments. A track dies when its
decoration stops matching its containing set's (index-change death) or when
an older or canonically smaller track absorbs it (merge death); surviving
tracks at the final stage are immortal. Each death or immortal track yields
one decorated point (birth, death, index).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .cells import StateComplex, build_complex
from .dynamics import MorseSet, build_mgraph, morse_sets
from .homology import TopologicalIndex, topological_index
from .markov import ThresholdGrid, TransitionMatrix, threshold_grid
from .mvf import MultivectorField, build_mvf


@dataclass(frozen=True)
class Stage:
    """Everything computed at one grid value."""

    gamma: float
    field: MultivectorField
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
        G = build_mgraph(fld, X)
        sets = morse_sets(G, fld)
        index_of = {m.label: topological_index(X, m) for m in sets}
        stages.append(Stage(gamma, fld, sets, index_of))
    return FiltrationResult(grid, X, tuple(stages))


def containment_map(prev: Stage, nxt: Stage) -> dict[int, int]:
    """Label of the next-stage Morse set containing each previous Morse set.

    Totality is a theorem of the construction; a previous set straddling two
    next sets signals an implementation bug and raises.
    """
    owner: dict[int, int] = {}
    for m in nxt.morse_sets:
        for c in m.cells:
            owner[c] = m.label
    result: dict[int, int] = {}
    for m in prev.morse_sets:
        targets = {owner[c] for c in m.cells}
        if len(targets) != 1:
            raise RuntimeError(
                f"Morse set {m.label} at gamma={prev.gamma} straddles {len(targets)} sets at gamma={nxt.gamma}"
            )
        result[m.label] = targets.pop()
    return result


@dataclass
class Track:
    """A living Morse-set lineage during diagram extraction."""

    birth: float
    label: int  # label of the currently containing Morse set
    birth_label: int  # label of the Morse set at birth; tie-break key
    index: TopologicalIndex
    alive: bool = True


class PersistencePoint(tuple):
    """(birth, death, index); death is math.inf for immortal features."""

    __slots__ = ()

    def __new__(cls, birth: float, death: float, index: TopologicalIndex):
        if not death > birth:
            raise ValueError(f"death {death!r} must exceed birth {birth!r}")
        return super().__new__(cls, (float(birth), float(death), index))

    @property
    def birth(self) -> float:
        return self[0]

    @property
    def death(self) -> float:
        return self[1]

    @property
    def index(self) -> TopologicalIndex:
        return self[2]

    @property
    def persistence(self) -> float:
        return self.death - self.birth

    def as_dict(self) -> dict:
        """The JSON object of one point: birth, death ("inf" if immortal), index."""
        return {
            "birth": self.birth,
            "death": "inf" if math.isinf(self.death) else self.death,
            "index": [self.index.h1, self.index.c1],
        }

    def __repr__(self) -> str:
        return f"PersistencePoint(birth={self.birth}, death={self.death}, index={tuple(self.index)})"


def _canonical(points) -> tuple[PersistencePoint, ...]:
    return tuple(sorted(points, key=lambda p: (p.index, p.birth, p.death)))


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of decorated points in canonical order (index, birth, death)."""

    points: tuple[PersistencePoint, ...]
    grid: ThresholdGrid

    def __post_init__(self):
        object.__setattr__(self, "points", _canonical(self.points))

    def __len__(self) -> int:
        return len(self.points)

    def index_classes(self) -> list[TopologicalIndex]:
        return sorted({p.index for p in self.points})


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


def diagram_to_json(D: PersistenceDiagram) -> str:
    """Canonical JSON: {"grid": [...], "points": [{birth, death, index}...]}."""
    points = [p.as_dict() for p in D.points]
    return json.dumps({"grid": list(D.grid), "points": points})


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def diagram_from_json(text: str) -> PersistenceDiagram:
    """Inverse of diagram_to_json; malformed input raises ValueError naming the bad field."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"diagram must be an object, got {obj!r}")
    grid, raw_points = obj.get("grid"), obj.get("points")
    if not (isinstance(grid, list) and all(map(_is_number, grid))):
        raise ValueError(f"grid must be a list of finite numbers, got {grid!r}")
    if not isinstance(raw_points, list):
        raise ValueError(f"points must be a list, got {raw_points!r}")
    points = []
    for k, p in enumerate(raw_points):
        if not isinstance(p, dict):
            raise ValueError(f"point {k}: expected an object, got {p!r}")
        birth, death, index = p.get("birth"), p.get("death"), p.get("index")
        if not _is_number(birth):
            raise ValueError(f"point {k}: birth must be a finite number, got {birth!r}")
        if death != "inf" and not _is_number(death):
            raise ValueError(f'point {k}: death must be a finite number or "inf", got {death!r}')
        if not (isinstance(index, list) and len(index) == 2 and all(map(_is_int, index))):
            raise ValueError(f"point {k}: index must be a pair of ints, got {index!r}")
        death = math.inf if death == "inf" else float(death)
        points.append(PersistencePoint(float(birth), death, TopologicalIndex(*index)))
    return PersistenceDiagram(tuple(points), ThresholdGrid(tuple(map(float, grid))))
