"""Test oracle: the sweep with every live Morse set stored at cell level.

The library keeps each live set of the sweep as three numbers (vertex bits,
edge count, mouth bits), a vertex-to-root list and one anchor vertex per
edge. This module keeps the storage it replaced, unchanged: a `_Part` per
set with its cell list and mouth set, a root entry for every cell, and the
base sets from `_parts`, the gamma-0 pass that lists each set's cells. Its
`run_filtration` must log exactly the births the library logs, in the same
order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Collection

from markov_morse.cells import StateComplex, build_complex
from markov_morse.dynamics import _reach, _tarjan_scc
from markov_morse.homology import TopologicalIndex, index_from_counts
from markov_morse.markov import ThresholdGrid, TransitionMatrix
from markov_morse.persistence import Birth, FiltrationResult

_Counted = tuple[int, list[int], int, set[int]]  # (label, cells, own vertex count, mouth) of one Morse set


def _parts(X: StateComplex, rows: list[list[float]], gamma: float) -> list[_Counted]:
    """Each Morse set at gamma as (label, cells, own vertex count, mouth), sorted by label.

    `rows` are P's entries as lists. The mouth of a set is the endpoints of
    its edges that lie outside it; an edge's other endpoint is outside
    exactly when its SCC differs from the tail's, and a lone edge's mouth
    is both endpoints. So the counts of the index (see `homology`) come out
    of the same pass that finds the sets.
    """
    adj: list[list[int]] = [[] for _ in range(X.n)]  # the state digraph
    attached: list[tuple[int, int, int]] = []  # (v, w, e): one arc v -> e into an edge e = {v, w} that has one
    singles: list[_Counted] = []  # the edges with no arc in
    for e, (i, j) in enumerate(X.edges, start=X.n):
        a, b = i - 1, j - 1  # cells of states i, j
        if rows[a][b] <= gamma:
            adj[a].append(b)
            if rows[b][a] <= gamma:
                adj[b].append(a)
            attached.append((a, b, e))
        elif rows[b][a] <= gamma:
            adj[b].append(a)
            attached.append((b, a, e))
        else:
            singles.append((e, [e], 0, {a, b}))
    comps = _tarjan_scc(adj)
    comp_of = [0] * X.n
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    parts = [(min(comp), comp, len(comp), set()) for comp in comps]
    for v, w, e in attached:
        k = comp_of[v]
        _, cells, _, mouth = parts[k]
        cells.append(e)
        if comp_of[w] != k:
            mouth.add(w)
    parts.sort(key=itemgetter(0))
    return parts + singles  # edge labels exceed vertex labels


class _Part:
    """The storage of one Morse set in the sweep: its label, its cells and the counts of its index."""

    __slots__ = ("label", "cells", "vertices", "mouth")

    def __init__(self, label: int, cells: list[int], vertices: int, mouth: set[int]):
        self.label, self.cells, self.vertices, self.mouth = label, cells, vertices, mouth

    @property
    def weight(self) -> int:
        """Cells plus mouth: what moving this storage into another costs."""
        return len(self.cells) + len(self.mouth)


class _Indices(dict):
    """(|E| - |V_M|, mouth size) -> the index of a set with those counts, one object per key for one sweep."""

    def __missing__(self, counts: tuple[int, int]) -> TopologicalIndex:
        self[counts] = index = index_from_counts(*counts)
        return index


class _Sweep:
    """The condensation DAG of the cell digraph, coarsened one arc v -> e at a time.

    Each node is a storage root: the label a Morse set had at the first
    grid value, and `root_of` maps every cell to the root of its set. The
    set's current label (smallest cell) is in its `_Part`. The arcs of the
    DAG are not stored: the sets below a set are those that hold a vertex
    of its mouth. A contraction keeps the root and storage of its heaviest
    part, weighed by cells plus mouth, and moves only the lighter parts'
    cells and mouths into it (small into large), relabelling just the cells
    it moves.
    """

    def __init__(self, X: StateComplex, parts: list[_Counted]):
        self.root_of = root_of = [0] * X.cell_count
        self.part: dict[int, _Part] = {}
        for label, cells, vertices, mouth in parts:
            self.part[label] = _Part(label, cells, vertices, mouth)
            for c in cells:
                root_of[c] = label
        self.born: dict[int, list[int]] = {}  # root -> previous-stage labels
        self.indices = _Indices()

    def join(self, top: int, bottom: int) -> None:
        """Add an arc from the set `bottom` into the set `top`, one of its successors.

        When `bottom` is top's only successor the two sets alone merge (see
        the module docstring); otherwise top's forward cone is searched.
        """
        root_of, part = self.root_of, self.part
        below = {root_of[c] for c in part[top].mouth}
        if len(below) == 1:  # every path top ~> bottom is the one arc top -> bottom
            self._contract(top if part[top].weight >= part[bottom].weight else bottom, (top, bottom))
            return
        # top's forward cone with its arcs reversed; it holds bottom, and the
        # sets on a path top ~> bottom are those that bottom reaches in it
        above: dict[int, set[int]] = {top: set()}
        stack = [top]
        while stack:
            x = stack.pop()
            for w in {root_of[c] for c in part[x].mouth}:
                if w not in above:
                    above[w] = set()
                    stack.append(w)
                above[w].add(x)
        merged = _reach(bottom, above)
        self._contract(max(merged, key=lambda r: part[r].weight), merged)

    def _contract(self, keep: int, merged: Collection[int]) -> None:
        """Replace the sets `merged`, a strongly connected group now, by their union stored at `keep`.

        Each lighter part is moved in on its own: a mouth vertex in a part
        not moved yet is dropped when that part's cells are.
        """
        part, root_of, born = self.part, self.root_of, self.born
        into = part[keep]
        parts = born.pop(keep, [into.label])
        for r in merged:
            if r == keep:
                continue
            light = part.pop(r)
            for c in light.cells:
                root_of[c] = keep
            if light.label < into.label:
                into.label = light.label
            into.cells += light.cells
            into.vertices += light.vertices
            into.mouth.difference_update(light.cells)
            into.mouth.update(x for x in light.mouth if root_of[x] != keep)
            parts += born.pop(r, (light.label,))
        born[keep] = parts

    def index(self, root: int) -> TopologicalIndex:
        """The index of the set stored at `root`, from its counts (see `homology`)."""
        p = self.part[root]
        return self.indices[len(p.cells) - 2 * p.vertices, len(p.mouth)]

    def record(self, gamma: float) -> list[Birth]:
        """The sets born since the last record, each with its lineage and index."""
        born, self.born = self.born, {}
        return [Birth(gamma, self.part[r].label, tuple(sorted(p)), self.index(r)) for r, p in born.items()]


def run_filtration(P: TransitionMatrix) -> FiltrationResult:
    """The log of every Morse set born over P's threshold grid, the first grid value's sets first."""
    X = build_complex(P)
    rows = P.entries.tolist()
    entries = sorted(
        (p, a, e)
        for e, (i, j) in enumerate(X.edges, start=X.n)
        for a, b in ((i - 1, j - 1), (j - 1, i - 1))  # cells of states i, j
        if (p := rows[a][b]) > 0.0
    )
    sweep = _Sweep(X, _parts(X, rows, 0.0))
    births = [Birth(0.0, label, (), sweep.index(label)) for label in sweep.part]  # none merged yet
    values, root_of = [0.0], sweep.root_of
    for gamma, v, e in entries:
        if gamma > values[-1]:  # a new grid value; every entry of the last one is applied
            if sweep.born:
                births += sweep.record(values[-1])
            values.append(gamma)
        if root_of[e] != root_of[v]:  # else v and e share a Morse set already
            sweep.join(root_of[e], root_of[v])
    if sweep.born:
        births += sweep.record(values[-1])
    return FiltrationResult(ThresholdGrid(tuple(values)), X, P, tuple(births))
