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

The same pass gives each set in the form the sweep keeps it
(`persistence`): its own vertices as the bits of one int, its edge count,
and its mouth bits, the other endpoints of its edges whose SCC differs. An
edge with an arc in lies in the set of its tail, its anchor; one with none
is a lone set, mouth both endpoints. The entries above gamma, which a sweep
from gamma applies, are read in the same loop. This one gamma-0 pass,
`_sets`, serves both `morse_sets`, which reads the cells back off the roots
and anchors, and `persistence.run_filtration`, which lists no cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    root, anchor, part, _ = _sets(X, P.entries.tolist(), gamma)
    cells: dict[int, list[int]] = {label: [] for label in part}
    for c, a in enumerate([*range(X.n), *anchor]):  # a vertex is its own anchor
        if a < 0:  # a lone edge; edge labels exceed vertex labels, so the order holds
            cells[c] = [c]
        else:
            cells[root[a]].append(c)
    return tuple(MorseSet(label, frozenset(c)) for label, c in cells.items())


def _sets(X: StateComplex, rows: list[list[float]], gamma: float) -> tuple[list[int], list[int], dict, list]:
    """The Morse sets at gamma as (root, anchor, part), and the entries above gamma, without listing a cell.

    `rows` are P's entries as lists. `root[v]` is the label of vertex v's
    set, its smallest vertex. `anchor[r]` is the tail of the edge of rank r
    (cell X.n + r), in whose set it lies, or -1 if it is a lone set. `part`
    maps each label of a set with vertices to [vertex bits, edge count,
    mouth bits], in label order. The entries p_vw above gamma come as
    (p_vw, v, r), unsorted.
    """
    adj: list[list[int]] = [[] for _ in range(X.n)]  # the state digraph
    anchor: list[int] = []
    above: list[tuple[float, int, int]] = []
    for r, (i, j) in enumerate(X.edges):
        a, b = i - 1, j - 1  # cells of states i, j
        p, q = rows[a][b], rows[b][a]
        if p <= gamma:
            adj[a].append(b)
            anchor.append(a)
        else:
            above.append((p, a, r))
            anchor.append(b if q <= gamma else -1)
        if q <= gamma:
            adj[b].append(a)
        else:
            above.append((q, b, r))
    root = [0] * X.n
    part: dict[int, list[int]] = {}
    for comp in sorted(_tarjan_scc(adj), key=min):
        part[label := min(comp)] = [sum(1 << v for v in comp), 0, 0]
        for v in comp:
            root[v] = label
    for (i, j), a in zip(X.edges, anchor):
        if a >= 0:
            p = part[root[a]]
            p[1] += 1
            w = i + j - 2 - a  # the other endpoint
            if root[w] != root[a]:
                p[2] |= 1 << w
    return root, anchor, part, above


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
