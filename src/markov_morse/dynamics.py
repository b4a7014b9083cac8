"""Coarse dynamics at one threshold: the Morse sets and their order.

The multivector field at gamma (`mvf.build_mvf`) induces a multivalued map
sending a cell x to its multivector together with the closure of x. On the
level of multivectors this collapses to the M-graph: an arc V -> W between
distinct multivectors exists exactly when W meets the mouth of V. Its
strongly connected components are the Morse sets, and reachability between
them is the order used to read the global structure.

Neither the field nor the M-graph is built here. On a 1-complex the mouth
of V is the set of endpoints of V's edges that lie outside V, so the arcs
of the M-graph are [e] -> [v] for every edge e and endpoint v. Take instead
the cell digraph: e -> v for every incidence, and v -> e when the
probability of leaving v along e is <= gamma, which is exactly when
`build_mvf` merges v into e's multivector. Each merge is then the 2-cycle
v <-> e, so every multivector is strongly connected in the cell digraph,
and every arc between two multivectors is an incidence e -> v. Contracting
the multivectors therefore gives the M-graph, and the cell digraph has the
same SCCs: the Morse sets. A v -> e arc never leaves its SCC, so the arcs
of the condensation DAG are the incidences e -> v with v outside e's set:
the sets below a Morse set are those that meet its mouth.

The SCCs are found on the n states alone. A path v -> e -> w between two
vertices exists exactly when p_vw <= gamma, and an edge cell is entered
only from a vertex. So two vertices share an SCC of the cell digraph iff
they share one of the state digraph, with an arc v -> w whenever the edge
{v, w} exists and p_vw <= gamma. An edge e joins the SCC of each endpoint
v with an arc v -> e, as e -> v exists always. If both entries are <=
gamma, both endpoints lie in one SCC and e with them. If neither is, e has
no arc in and is a singleton set. Vertex ids are below edge ids, so a set
is still labelled by its smallest cell.

The same pass gives the counts of each set's index (see `homology`): its
own vertices are its SCC's, and its mouth is the other endpoints of its
edges whose SCC differs, or both endpoints of a singleton edge. `morse_sets`
keeps only the cells; `persistence.run_filtration` takes the base sets of
its sweep with their counts from the one private helper, `_parts`, so no
set is read twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .cells import StateComplex
from .homology import _counts
from .markov import TransitionMatrix


def check_gamma(gamma: float) -> None:
    """Refuse a threshold that is not a finite number >= 0."""
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")


@dataclass(frozen=True)
class MorseSet:
    """One SCC of the cell digraph, labelled by its smallest cell."""

    label: int
    cells: frozenset[int]


def _tarjan_scc(adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan on the nodes 0..len(adj)-1; returns SCCs as lists of nodes."""
    index = [-1] * len(adj)
    low = [0] * len(adj)
    on_stack = [False] * len(adj)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(len(adj)):
        if index[root] >= 0:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if index[succ] < 0:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(adj[succ])))
                    advanced = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
    return sccs


def morse_sets(X: StateComplex, P: TransitionMatrix, gamma: float) -> tuple[MorseSet, ...]:
    """The Morse sets at threshold gamma: the SCCs of the cell digraph, sorted by label.

    Singleton SCCs count, so the Morse sets partition all cells of X. Tarjan
    runs on the state digraph; each edge then joins its tail's SCC or stays
    alone (see the module docstring).
    """
    check_gamma(gamma)
    parts = _parts(X, P.entries.tolist(), gamma)
    return tuple(MorseSet(label, frozenset(cells)) for label, cells, _, _ in parts)


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


def _reach(start: int, arcs: dict[int, set[int]]) -> set[int]:
    """Nodes reachable from start along arcs, start included."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for w in arcs[x]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def morse_order(X: StateComplex, sets: tuple[MorseSet, ...]) -> list[tuple[int, int]]:
    """Strict reachability between the Morse sets `morse_sets` gives for X, as sorted (above, below) pairs.

    The sets one arc below a set are those that hold a vertex of its mouth.
    """
    set_of = {c: m.label for m in sets for c in m.cells}
    dag = {m.label: {set_of[v] for v in _counts(X, m.cells)[2]} for m in sets}
    return sorted((u, w) for u in dag for w in _reach(u, dag) if w != u)
