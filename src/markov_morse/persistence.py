"""Persistence of Morse sets across the threshold filtration.

Raising gamma past an entry p_ij merges vertex i into the multivector of an
incident edge e, so the fields over the grid form a coarsening chain and
each Morse set at one stage sits inside exactly one Morse set at the next.
`run_filtration` makes one pass over the sorted positive directed entries,
starting from the Morse sets at gamma 0; a zero entry is already inside a
Morse set and changes nothing. Every positive off-diagonal entry lies on an
edge, so the grid is 0 followed by the distinct values of that sorted list,
the same as `threshold_grid`, and the pass reads it off as it goes. All
entries of one value are applied before any birth at that value is
recorded, and a value at which no set is born records nothing. Every
multivector lies inside one Morse set, so only the sets are kept; the
field at a stage is `build_mvf(F.complex, F.matrix, stage.gamma)`.

Applying the entry of vertex v and edge e adds the arc v -> e to the cell
digraph (see `dynamics`), and the arc e -> v exists already. So the sets
that become one are exactly those on a path SCC(e) ~> W ~> SCC(v). A set's
index (see `homology`) and its arcs in the condensation DAG depend only on
its own vertices, its edge count and its mouth, so each live set is kept
as vertex bits (an int, bit v for vertex v), an edge count and mouth bits.
The arcs out of a set end in its mouth, and v is in the mouth of SCC(e).
When mouth(SCC(e)) & ~vertices(SCC(v)) == 0, every path from SCC(e) starts
with the arc into SCC(v), and a longer path on to SCC(v) would be a cycle
of the condensation, which has none: the two sets alone become one, and
nothing is searched. That is most merges, mostly a lone edge with both
endpoints in one set. Otherwise a depth-first search from SCC(e) through
the mouth bits lists its cone in postorder, and one pass over that order
picks the sets that reach SCC(v). A merge ORs their vertex bits and adds
their edge counts; its mouth is the OR of theirs less its vertices, exact
since an endpoint inside the union is in no mouth of it. Every other set,
its index and its track carry over. The index counts are (edges -
popcount(vertices), popcount(mouth)); a born set takes its
`TopologicalIndex` from a table kept for one sweep, so sets with equal
indices share one object. The base sets and the entries come in this form
from the pass that finds the sets (`dynamics._sets`).

The result keeps P and a flat log of one `Birth` (grid value, label,
lineage, index) per Morse set born, base sets first: all `build_diagram`
reads. `F.stages` replays it from `morse_sets` at gamma 0, for the checks.

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
from itertools import groupby
from operator import itemgetter
from typing import Iterator, NamedTuple

from .cells import StateComplex, build_complex
from .dynamics import MorseSet, _sets, morse_sets
from .homology import TopologicalIndex, index_from_counts
from .markov import ThresholdGrid, TransitionMatrix, _clip


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


class Birth(NamedTuple):
    """One Morse set born in the sweep: its grid value, label, lineage and index.

    `parts` are the sorted labels of the previous-stage sets it is the union
    of. The base sets are born at the first grid value with no parts.
    """

    gamma: float
    label: int
    parts: tuple[int, ...]
    index: TopologicalIndex


@dataclass(frozen=True)
class FiltrationResult:
    """The swept filtration: the matrix it was swept from and a `Birth` per set born, in grid order."""

    grid: ThresholdGrid
    complex: StateComplex
    matrix: TransitionMatrix
    births: tuple[Birth, ...]

    @cached_property
    def stages(self) -> tuple[Stage, ...]:
        """Every stage in full, replayed from the first grid value's Morse sets and the birth log on first use."""
        return tuple(_replay(self))


def _replay(F: FiltrationResult) -> Iterator[Stage]:
    """Rebuild the stages one grid value at a time; a set not born is shared with the stage before.

    A birth off the grid or out of grid order, without parts but not a base
    set, absorbing a set not live or twice, or taking the label of a live
    set it did not absorb raises RuntimeError naming its grid value.
    """
    base = {m.label: m for m in morse_sets(F.complex, F.matrix, F.grid[0])}
    current: dict[int, MorseSet] = {}
    sets: tuple[MorseSet, ...] = ()
    index_of: dict[int, TopologicalIndex] = {}
    births, k = F.births, 0
    for gamma in F.grid:
        absorbed: dict[int, tuple[int, ...]] = {}
        born: dict[int, TopologicalIndex] = {}
        while k < len(births) and births[k].gamma == gamma:
            _, label, parts, index = births[k]
            if not parts and (gamma != F.grid[0] or label not in base):
                raise RuntimeError(f"lineage at gamma={gamma} has a birth with no parts that is not a base set")
            lost = [p for p in parts if p not in current]
            if lost:
                raise RuntimeError(f"lineage at gamma={gamma} absorbs sets {lost} that are not live")
            if len(set(parts)) < len(parts):
                raise RuntimeError(f"lineage at gamma={gamma} lists an absorbed set twice in {parts}")
            if label in current and label not in parts:
                raise RuntimeError(
                    f"lineage at gamma={gamma} labels a born set {label}, a live set it did not absorb"
                )
            if parts:
                current[label] = MorseSet(label, frozenset().union(*(current.pop(p).cells for p in parts)))
                absorbed[label] = parts
            else:
                current[label] = base[label]
            born[label] = index
            k += 1
        if born:
            sets = tuple(sorted(current.values(), key=lambda m: m.label))
            index_of = {m.label: born[m.label] if m.label in born else index_of[m.label] for m in sets}
        yield Stage(gamma, sets, index_of, absorbed)
    if k < len(births):  # the walk stopped at a birth that no later grid value matches
        gamma = births[k].gamma
        where = "out of grid order" if gamma in F.grid.values else "off the grid"
        raise RuntimeError(f"lineage at gamma={gamma} has a birth {where}")


class _Indices(dict):
    """(|E| - |V_M|, mouth size) -> the index of a set with those counts, one object per key for one sweep."""

    def __missing__(self, counts: tuple[int, int]) -> TopologicalIndex:
        self[counts] = index = index_from_counts(*counts)
        return index


class _Sweep:
    """The condensation DAG of the cell digraph, coarsened one arc v -> e at a time.

    Each node is a storage root, one vertex of its set, and `part` maps it
    to the set's [vertex bits, edge count, mouth bits]. `root` maps each
    vertex to its root, and an edge lies in the set of its `anchor` vertex,
    or alone while that is -1 (`root[-1]` is -1). A lone edge is stored at
    its own cell only while it joins. The arcs of the DAG are not stored:
    the sets below a set are those that hold a vertex of its mouth.
    """

    def __init__(self, X: StateComplex, root: list[int], anchor: list[int], part: dict[int, list[int]]):
        self.root, self.anchor, self.part, self.X = root, anchor, part, X
        self.born: dict[int, list[int]] = {}  # root -> previous-stage labels

    def join(self, v: int, r: int) -> None:
        """Add the arc v -> e into the edge e = {v, w} of rank r from v's set, which does not hold e.

        The sets on a path from e's set (top) to v's (bottom) become one,
        stored at the root of the part with most vertices: only the other
        parts' vertices are relabelled. Its mouth is the parts' mouths less
        its vertices, as an endpoint inside the union is in no mouth of it.
        """
        part, root, anchor, born = self.part, self.root, self.anchor, self.born
        bottom, top, anchor[r] = root[v], root[anchor[r]], v  # v's set holds e from now on
        if top < 0:  # a lone edge: no vertex, one edge, both endpoints in its mouth
            i, j = self.X.edges[r]
            top, w = self.X.n + r, i + j - 2 - v
            into = part[bottom]
            if into[0] >> w & 1:  # bottom is its only successor: e joins bottom's set, and nothing moves
                into[1] += 1
                born[bottom] = (born.pop(bottom, None) or [(into[0] & -into[0]).bit_length() - 1]) + [top]
                return
            part[top] = [0, 1, (1 << v) | (1 << w)]
        if part[top][2] & ~part[bottom][0]:  # a second set below top
            merged = self._cone(top, bottom)
        else:  # bottom is top's only successor: every path top ~> bottom is the one arc
            merged = [bottom, top]
        keep = max(merged, key=lambda x: part[x][0].bit_count())
        into = part[keep]
        vertices, edges, mouth = into
        parts = born.pop(keep, None) or [(vertices & -vertices).bit_length() - 1]
        for x in merged:
            if x != keep:
                bits, count, m = part.pop(x)
                parts += born.pop(x, None) or [(bits & -bits).bit_length() - 1 if bits else x]
                vertices, edges, mouth = vertices | bits, edges + count, mouth | m
                while bits:
                    low = bits & -bits
                    root[low.bit_length() - 1] = keep
                    bits ^= low
        into[:] = vertices, edges, mouth & ~vertices
        born[keep] = parts

    def _cone(self, top: int, bottom: int) -> list[int]:
        """The sets on a path top ~> bottom, bottom first and top last.

        A depth-first search from top through the mouths, not past bottom,
        lists the cone in postorder, every set after the sets below it. One
        pass over that order keeps a set iff its mouth meets the vertices
        of the sets kept so far.
        """
        root, part = self.root, self.part
        seen, post, stack = {top, bottom}, [], [[top, part[top][2]]]
        while stack:
            frame = stack[-1]
            x, mouth = frame
            while mouth:
                w = root[(mouth & -mouth).bit_length() - 1]
                mouth &= ~part[w][0]  # w's other mouth vertices lead to w again
                if w not in seen:
                    seen.add(w)
                    frame[1] = mouth
                    stack.append([w, part[w][2]])
                    break
            else:
                stack.pop()
                post.append(x)
        reached, merged = part[bottom][0], [bottom]
        for x in post:
            if part[x][2] & reached:
                reached |= part[x][0]
                merged.append(x)
        return merged


def run_filtration(P: TransitionMatrix) -> FiltrationResult:
    """The log of every Morse set born over P's threshold grid, the first grid value's sets first."""
    X = build_complex(P)
    root, anchor, part, entries = _sets(X, P.entries.tolist(), 0.0)
    root.append(-1)  # the root of an edge with no anchor: no set's
    entries.sort()
    sweep = _Sweep(X, root, anchor, part)
    born, indices, new = sweep.born, _Indices(), tuple.__new__
    births = [new(Birth, (0.0, x, (), indices[k - b.bit_count(), m.bit_count()])) for x, (b, k, m) in part.items()]
    births += [new(Birth, (0.0, X.n + r, (), indices[1, 2])) for r, a in enumerate(anchor) if a < 0]  # lone edges
    values = [0.0]
    for gamma, group in groupby(entries, itemgetter(0)):
        for _, v, r in group:
            if root[anchor[r]] != root[v]:  # else v and e share a Morse set already
                sweep.join(v, r)
        for x, parts in born.items():  # every entry of gamma is applied: record the sets born
            b, k, m = part[x]
            parts.sort()
            index = indices[k - b.bit_count(), m.bit_count()]
            births.append(new(Birth, (gamma, (b & -b).bit_length() - 1, tuple(parts), index)))
        born.clear()
        values.append(gamma)
    return FiltrationResult(ThresholdGrid(tuple(values)), X, P, tuple(births))


class PersistencePoint(tuple):
    """(birth, death, index); death is math.inf for immortal features."""

    __slots__ = ()

    def __new__(cls, birth: float, death: float, index: TopologicalIndex):
        if not death > birth > -math.inf:
            raise ValueError(f"need -inf < birth < death, got birth {birth!r} and death {death!r}")
        return super().__new__(cls, (float(birth), float(death), index))

    def __getnewargs__(self):  # what pickle and copy pass back to __new__
        return tuple(self)

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


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of decorated points in canonical order (index, birth, death)."""

    points: tuple[PersistencePoint, ...]
    grid: ThresholdGrid

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(sorted(self.points, key=itemgetter(2, 0, 1))))

    def __len__(self) -> int:
        return len(self.points)


def build_diagram(F: FiltrationResult) -> PersistenceDiagram:
    """Extract the decorated diagram from a filtration by track bookkeeping.

    Every Morse set carries one live track. A birth gathers the tracks of
    its parts. Tracks whose index differs from the new set's die first;
    among the rest the minimal (birth, birth label) survives and the others
    die; if none is left, a new track is born. A base set has no parts, so
    its track is born at 0. Unchanged sets keep their track.
    Only the birth log is read, never the replayed stages.
    """
    points: list[PersistencePoint] = []
    track_of: dict[int, tuple[float, int, TopologicalIndex]] = {}  # label -> (birth, birth label, index)
    for gamma, label, parts, index in F.births:
        matching = []
        for t in map(track_of.pop, parts):
            if t[2] != index:  # index-change death, before any merge
                points.append(PersistencePoint(t[0], gamma, t[2]))
            else:
                matching.append(t)
        if matching:
            matching.sort()  # by (birth, birth label), which no two tracks share
            for t in matching[1:]:  # merge deaths
                points.append(PersistencePoint(t[0], gamma, t[2]))
            track_of[label] = matching[0]
        else:
            track_of[label] = (gamma, label, index)
    for birth, _, index in track_of.values():
        points.append(PersistencePoint(birth, math.inf, index))
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
    return _diagram_from_obj(obj)


def _diagram_from_obj(obj) -> PersistenceDiagram:
    """The diagram in a decoded diagram JSON value."""
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
        if not death > birth:
            raise ValueError(f"point {k}: death {death!r} must exceed birth {float(birth)!r}")
        points.append(PersistencePoint(float(birth), death, TopologicalIndex(*index)))
    return PersistenceDiagram(tuple(points), ThresholdGrid(tuple(map(float, grid))))
