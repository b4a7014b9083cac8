"""Persistence of Morse sets across the threshold filtration.

Raising gamma past an entry p_ij merges vertex i into the multivector of an
incident edge e, so the fields over the grid form a coarsening chain and
each Morse set at one stage sits inside exactly one Morse set at the next.
`run_filtration` sweeps the grid once. It starts from `morse_sets` at the
first grid value, which also gives the condensation DAG of the cell
digraph; then the directed entries are sorted, and at each grid value every
entry <= gamma is applied before the stage is recorded. Entries at or below
the first grid value are already inside a Morse set and change nothing.
Every multivector lies inside one Morse set, so only the sets are kept; the
field at a stage is `build_mvf(F.complex, P, stage.gamma)`.

Applying the entry of vertex v and edge e adds the arc v -> e to the cell
digraph (see `dynamics`), and the arc e -> v exists already. So the sets
that become one are exactly those on a path SCC(e) ~> W ~> SCC(v): a
forward search from SCC(e) intersected with a backward search from SCC(v).
They are contracted into one node; every other set, its index and its
track carry over unchanged. The contraction keeps the storage of the
heaviest part and moves only the lighter parts', and it keeps the three
counts of the index (see `homology`) up to date, so no set is re-read.

The result stores the base sets once and, per grid value, only what was
born there: the lineage and the index of each born set (`Births`). That is
all `build_diagram` reads. `FiltrationResult.stages` replays the records
into full per-stage snapshots on demand, for the checks that compare them.

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
from functools import cached_property
from typing import Iterator, NamedTuple

from .cells import StateComplex, build_complex
from .dynamics import MorseSet, _condensation, _reach, morse_sets
from .homology import TopologicalIndex, index_from_counts
from .markov import ThresholdGrid, TransitionMatrix, _clip, threshold_grid
from .unionfind import DisjointSet


@dataclass(frozen=True)
class Stage:
    """All Morse sets and their indices at one grid value, as the replay rebuilds them.

    `absorbed` is the lineage: it maps the label of each Morse set born at
    this stage to the sorted labels of the previous-stage sets it is the
    union of. Every set not in it is unchanged since the previous stage and
    is the same object, with the same index entry, there. At the first
    stage it is empty.
    """

    gamma: float
    morse_sets: tuple[MorseSet, ...]
    index_of: dict[int, TopologicalIndex] = field(compare=False)
    absorbed: dict[int, tuple[int, ...]] = field(compare=False)


class Births(NamedTuple):
    """What the sweep records at one grid value: the Morse sets born there.

    `absorbed` is the stage's lineage, as in `Stage`, and `index_of` holds
    the index of each set born at `gamma`. At the first grid value every
    base set counts as born: `absorbed` is empty and `index_of` covers them all.
    """

    gamma: float
    absorbed: dict[int, tuple[int, ...]]
    index_of: dict[int, TopologicalIndex]


@dataclass(frozen=True)
class FiltrationResult:
    """The swept filtration: the Morse sets at the first grid value and one `Births` per grid value."""

    grid: ThresholdGrid
    complex: StateComplex
    base: tuple[MorseSet, ...]
    births: tuple[Births, ...]

    @cached_property
    def stages(self) -> tuple[Stage, ...]:
        """Every stage in full, replayed from the base sets and the lineage on first use."""
        return tuple(_replay(self))


def _replay(F: FiltrationResult) -> Iterator[Stage]:
    """Rebuild the stages one grid value at a time; a set not born is shared with the stage before."""
    current = {m.label: m for m in F.base}
    sets: tuple[MorseSet, ...] = ()
    index_of: dict[int, TopologicalIndex] = {}
    for births in F.births:
        if births.index_of:
            for label, parts in births.absorbed.items():
                current[label] = MorseSet(label, frozenset().union(*(current.pop(p).cells for p in parts)))
            sets = tuple(sorted(current.values(), key=lambda m: m.label))
            kept, born = index_of, births.index_of
            index_of = {m.label: born[m.label] if m.label in born else kept[m.label] for m in sets}
        yield Stage(births.gamma, sets, index_of, births.absorbed)


class _Part:
    """The storage of one Morse set in the sweep: its label and the counts of its index."""

    __slots__ = ("label", "vertices", "edges", "mouth")

    def __init__(self, X: StateComplex, m: MorseSet):
        self.label = m.label
        self.vertices = [c for c in m.cells if c < X.n]
        self.edges = len(m.cells) - len(self.vertices)
        ends = {i - 1 for c in m.cells if c >= X.n for i in X.edges[c - X.n]}  # state i is cell i - 1
        self.mouth = ends - m.cells

    def index(self) -> TopologicalIndex:
        return index_from_counts(self.edges, len(self.vertices), len(self.mouth))


class _Sweep:
    """The condensation DAG of the cell digraph, coarsened one arc v -> e at a time.

    Nodes are the union-find roots of the Morse sets, and each keeps its
    label (smallest cell) in its `_Part`. A contraction keeps the root and
    storage of its heaviest part, weighed by cells plus arcs, and moves only
    the lighter parts' arcs, vertices and mouths into it (small into large).
    """

    def __init__(self, X: StateComplex, sets: tuple[MorseSet, ...]):
        self.set_uf = DisjointSet(X.cell_count)
        self.part = {m.label: _Part(X, m) for m in sets}
        for m in sets:
            for c in m.cells - {m.label}:
                self.set_uf.link(m.label, c)
        self.succ = _condensation(X, sets)
        self.pred: dict[int, set[int]] = {s: set() for s in self.succ}
        for s, below in self.succ.items():
            for w in below:
                self.pred[w].add(s)
        self.born: dict[int, list[int]] = {}  # root -> previous-stage labels

    def join(self, v: int, e: int) -> None:
        """Add the arc v -> e (a no-op if v and e share a Morse set)."""
        top, bottom = self.set_uf.find(e), self.set_uf.find(v)
        if top != bottom:
            # every set on a path top ~> bottom: a node that reaches bottom
            # from inside top's forward cone stays inside it on the way
            self._contract(_reach(bottom, self.pred, within=_reach(top, self.succ)))

    def _contract(self, merged: set[int]) -> None:
        """Replace the sets `merged`, a strongly connected group now, by their union."""
        succ, pred, part = self.succ, self.pred, self.part
        keep = max(merged, key=lambda r: len(part[r].vertices) + part[r].edges + len(succ[r]) + len(pred[r]))
        into = part[keep]
        parts = self.born.pop(keep, [into.label])
        for r in merged - {keep}:
            for w in succ.pop(r) - merged:
                pred[w].discard(r)
                pred[w].add(keep)
                succ[keep].add(w)
            for w in pred.pop(r) - merged:
                succ[w].discard(r)
                succ[w].add(keep)
                pred[keep].add(w)
            light = part.pop(r)
            into.label = min(into.label, light.label)
            into.edges += light.edges
            into.vertices += light.vertices
            into.mouth.difference_update(light.vertices)
            into.mouth.update(x for x in light.mouth if self.set_uf.find(x) not in merged)
            parts += self.born.pop(r, (light.label,))
            self.set_uf.link(keep, r)
        succ[keep] -= merged
        pred[keep] -= merged
        self.born[keep] = parts

    def record(self, gamma: float) -> Births:
        """The sets born since the last record, with their lineage and index."""
        born, self.born = self.born, {}
        absorbed: dict[int, tuple[int, ...]] = {}
        index_of: dict[int, TopologicalIndex] = {}
        for r, parts in born.items():
            into = self.part[r]
            absorbed[into.label] = tuple(sorted(parts))
            index_of[into.label] = into.index()
        return Births(gamma, absorbed, index_of)


def run_filtration(P: TransitionMatrix) -> FiltrationResult:
    """The Morse sets at P's first threshold and, at every threshold, the sets born there."""
    grid = threshold_grid(P)
    X = build_complex(P)
    rows = P.entries.tolist()
    entries = sorted(
        (rows[a][b], a, e)
        for e, (i, j) in enumerate(X.edges, start=X.n)
        for a, b in ((i - 1, j - 1), (j - 1, i - 1))  # cells of states i, j
    )
    base = morse_sets(X, P, grid[0])
    sweep = _Sweep(X, base)
    births = [Births(grid[0], {}, {m.label: sweep.part[m.label].index() for m in base})]
    k = 0
    for gamma in grid.values[1:]:
        while k < len(entries) and entries[k][0] <= gamma:
            _, v, e = entries[k]
            sweep.join(v, e)
            k += 1
        births.append(sweep.record(gamma))
    return FiltrationResult(grid, X, base, tuple(births))


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

    Every Morse set carries one live track; base-set tracks are born at 0.
    A set born at a stage gathers the tracks of the sets it absorbed (its
    lineage). Tracks whose index differs from the new set's die first; among
    the rest the minimal (birth, birth label) survives and the others die;
    if none is left, a new track is born. Unchanged sets keep their track.
    Only the births records are read, never the replayed stages.
    """
    points: list[PersistencePoint] = []
    first, *rest = F.births
    track_of = {label: _Track(0.0, label, k) for label, k in first.index_of.items()}
    for births in rest:
        for label, parts in births.absorbed.items():
            k_new = births.index_of[label]
            matching = []
            for t in map(track_of.pop, parts):
                if t.index != k_new:  # index-change death, before any merge
                    points.append(PersistencePoint(t.birth, births.gamma, t.index))
                else:
                    matching.append(t)
            if matching:
                matching.sort(key=lambda t: (t.birth, t.birth_label))
                for t in matching[1:]:  # merge deaths
                    points.append(PersistencePoint(t.birth, births.gamma, t.index))
                track_of[label] = matching[0]
            else:
                track_of[label] = _Track(births.gamma, label, k_new)
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
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("diagram JSON is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError(f"diagram must be an object, got {_clip(obj)}")
    grid, raw_points = obj.get("grid"), obj.get("points")
    if not (isinstance(grid, list) and all(map(_is_number, grid))):
        raise ValueError(f"grid must be a list of finite numbers, got {_clip(grid)}")
    if not isinstance(raw_points, list):
        raise ValueError(f"points must be a list, got {_clip(raw_points)}")
    points = []
    for k, p in enumerate(raw_points):
        if not isinstance(p, dict):
            raise ValueError(f"point {k}: expected an object, got {_clip(p)}")
        birth, death, index = p.get("birth"), p.get("death"), p.get("index")
        if not _is_number(birth):
            raise ValueError(f"point {k}: birth must be a finite number, got {_clip(birth)}")
        if death != "inf" and not _is_number(death):
            raise ValueError(f'point {k}: death must be a finite number or "inf", got {_clip(death)}')
        if not (isinstance(index, list) and len(index) == 2 and all(map(_is_count, index))):
            raise ValueError(f"point {k}: index must be a pair of ints >= 0, got {_clip(index)}")
        death = math.inf if death == "inf" else float(death)
        points.append(PersistencePoint(float(birth), death, TopologicalIndex(*index)))
    return PersistenceDiagram(tuple(points), ThresholdGrid(tuple(map(float, grid))))
