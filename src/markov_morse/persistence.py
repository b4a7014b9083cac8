"""Persistence of Morse sets across the threshold filtration.

Raising gamma past an entry p_ij merges vertex i into the multivector of an
incident edge e, so the fields over the grid form a coarsening chain and
each Morse set at one stage sits inside exactly one Morse set at the next.
`run_filtration` sweeps the grid once. It starts from `morse_sets` at the
first grid value, which also gives the condensation DAG of the cell
digraph; then the directed entries are sorted, and at each grid value every
entry <= gamma is applied before the stage is emitted. Entries at or below
the first grid value are already inside a Morse set and change nothing.
Every multivector lies inside one Morse set, so only the sets are kept; the
field at a stage is `build_mvf(F.complex, P, stage.gamma)`.

Applying the entry of vertex v and edge e adds the arc v -> e to the cell
digraph (see `dynamics`), and the arc e -> v exists already. So the sets
that become one are exactly those on a path SCC(e) ~> W ~> SCC(v): a
forward search from SCC(e) intersected with a backward search from SCC(v).
They are contracted into one node; every other set, its index and its
track carry over unchanged.

Tracks follow these contractions. A track dies when its decoration stops
matching its containing set's (index-change death) or when an older or
canonically smaller track absorbs it (merge death); surviving tracks at the
final stage are immortal. Each death or immortal track yields one decorated
point (birth, death, index).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .cells import StateComplex, build_complex
from .dynamics import MorseSet, _condensation, _reach, morse_sets
from .homology import TopologicalIndex, topological_index
from .markov import ThresholdGrid, TransitionMatrix, threshold_grid
from .unionfind import DisjointSet


@dataclass(frozen=True)
class Stage:
    """Everything computed at one grid value.

    `absorbed` is the lineage: it maps the label of each Morse set born at
    this stage to the sorted labels of the previous-stage sets it is the
    union of. Every set not in it is unchanged since the previous stage and
    is the same object there. At the first stage it is empty.
    """

    gamma: float
    morse_sets: tuple[MorseSet, ...]
    index_of: dict[int, TopologicalIndex] = field(compare=False)
    absorbed: dict[int, tuple[int, ...]] = field(compare=False)


@dataclass(frozen=True)
class FiltrationResult:
    grid: ThresholdGrid
    complex: StateComplex
    stages: tuple[Stage, ...]


class _Sweep:
    """The condensation DAG of the cell digraph, coarsened one arc v -> e at a time.

    The union-find keeps the smallest cell of each set as its root, so a
    find is a label.
    """

    def __init__(self, X: StateComplex, sets: tuple[MorseSet, ...]):
        self.set_uf = DisjointSet(X.cell_count)
        self.morse = {m.label: m for m in sets}
        for m in sets:
            for c in m.cells - {m.label}:
                self.set_uf.link(m.label, c)
        self.succ = _condensation(X, sets)
        self.pred: dict[int, set[int]] = {s: set() for s in self.succ}
        for s, below in self.succ.items():
            for w in below:
                self.pred[w].add(s)
        self.born: dict[int, list[int]] = {}  # set label -> previous-stage labels

    def join(self, v: int, e: int) -> None:
        """Add the arc v -> e (a no-op if v and e share a Morse set)."""
        top, bottom = self.set_uf.find(e), self.set_uf.find(v)
        if top != bottom:
            # every set on a path top ~> bottom: a node that reaches bottom
            # from inside top's forward cone stays inside it on the way
            self._contract(_reach(bottom, self.pred, within=_reach(top, self.succ)))

    def _contract(self, merged: set[int]) -> None:
        """Replace the sets `merged`, a strongly connected group now, by their union."""
        new = min(merged)
        succ = set().union(*(self.succ.pop(s) for s in merged)) - merged
        pred = set().union(*(self.pred.pop(s) for s in merged)) - merged
        for w in succ:
            self.pred[w] -= merged
            self.pred[w].add(new)
        for w in pred:
            self.succ[w] -= merged
            self.succ[w].add(new)
        self.succ[new], self.pred[new] = succ, pred
        parts = []
        for s in merged:
            parts += self.born.pop(s, (s,))
            if s != new:
                self.set_uf.link(new, s)
        self.born[new] = parts
        cells = frozenset().union(*(self.morse.pop(s).cells for s in merged))
        self.morse[new] = MorseSet(new, cells)


def run_filtration(P: TransitionMatrix) -> FiltrationResult:
    """Morse sets and indices at every threshold of P's grid."""
    grid = threshold_grid(P)
    X = build_complex(P)
    entries = sorted(
        (P.prob(a, b), a - 1, e)
        for e, (i, j) in enumerate(X.edges, start=X.n)
        for a, b in ((i, j), (j, i))
    )
    sweep = _Sweep(X, morse_sets(X, P, grid[0]))
    stages: list[Stage] = []
    index_of: dict[int, TopologicalIndex] = {}
    k = 0
    for gamma in grid:
        while k < len(entries) and entries[k][0] <= gamma:
            _, v, e = entries[k]
            sweep.join(v, e)
            k += 1
        born, sweep.born = sweep.born, {}
        if born or not stages:
            sets = tuple(sorted(sweep.morse.values(), key=lambda m: m.label))
            kept = index_of  # every set is new at the first stage, when this is empty
            index_of = {
                m.label: kept[m.label] if m.label in kept and m.label not in born else topological_index(X, m)
                for m in sets
            }
        absorbed = {label: tuple(sorted(parts)) for label, parts in born.items()} if stages else {}
        stages.append(Stage(gamma, sets, index_of, absorbed))
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


class _Track(NamedTuple):
    """The live lineage of one Morse set during diagram extraction."""

    birth: float
    birth_label: int  # label of the Morse set at birth; tie-break key
    index: TopologicalIndex


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

    Every Morse set carries one live track; base-stage tracks are born at 0.
    A set born at a stage gathers the tracks of the sets it absorbed (its
    lineage). Tracks whose index differs from the new set's die first; among
    the rest the minimal (birth, birth label) survives and the others die;
    if none is left, a new track is born. Unchanged sets keep their track.
    """
    points: list[PersistencePoint] = []
    base = F.stages[0]
    track_of = {m.label: _Track(0.0, m.label, base.index_of[m.label]) for m in base.morse_sets}
    for stage in F.stages[1:]:
        for label, parts in stage.absorbed.items():
            k_new = stage.index_of[label]
            matching = []
            for t in map(track_of.pop, parts):
                if t.index != k_new:  # index-change death, before any merge
                    points.append(PersistencePoint(t.birth, stage.gamma, t.index))
                else:
                    matching.append(t)
            if matching:
                matching.sort(key=lambda t: (t.birth, t.birth_label))
                for t in matching[1:]:  # merge deaths
                    points.append(PersistencePoint(t.birth, stage.gamma, t.index))
                track_of[label] = matching[0]
            else:
                track_of[label] = _Track(stage.gamma, label, k_new)
    for t in track_of.values():
        points.append(PersistencePoint(t.birth, math.inf, t.index))
    return PersistenceDiagram(tuple(points), F.grid)


def diagram_to_json(D: PersistenceDiagram) -> str:
    """Canonical JSON: {"grid": [...], "points": [{birth, death, index}...]}."""
    points = [p.as_dict() for p in D.points]
    return json.dumps({"grid": list(D.grid), "points": points})


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


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
        if not (isinstance(index, list) and len(index) == 2 and all(map(_is_count, index))):
            raise ValueError(f"point {k}: index must be a pair of ints >= 0, got {index!r}")
        death = math.inf if death == "inf" else float(death)
        points.append(PersistencePoint(float(birth), death, TopologicalIndex(*index)))
    return PersistenceDiagram(tuple(points), ThresholdGrid(tuple(map(float, grid))))
