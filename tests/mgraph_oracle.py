"""Test oracle: the M-graph on multivectors, and its SCCs and order.

The library never builds a multivector field or an M-graph to find Morse
sets: it takes the SCCs of a digraph on cells (see `markov_morse.dynamics`).
This module keeps the M-graph route it replaced, copied verbatim: nodes are
the multivectors of a field, `build_mgraph` reads the arcs off the edge
list, Tarjan finds the SCCs and a Kahn order gives their reachability. It
also keeps the general definition of the arcs, one `mouth` per multivector
(`mgraph_by_mouths`): V -> W (V != W) iff W meets mouth(V), plus a
self-loop on every node. The edge list gives the same arcs only because the
mouth of a cell set in a 1-complex is the set of outside endpoints of its
edges. Last, it keeps the cell-level multivalued map the M-graph collapses,
`pi_map(x) = [x] | cl{x}`, which the library never evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

from markov_morse.cells import StateComplex
from markov_morse.dynamics import MorseSet

from cells_oracle import Field, closure, mouth


@dataclass(frozen=True)
class MGraph:
    """Digraph on multivector labels; arcs include all self-loops."""

    nodes: tuple[int, ...]
    arcs: frozenset[tuple[int, int]]


def _label_of(V: Field) -> dict[int, int]:
    """Cell -> label (smallest cell) of its multivector."""
    return {c: min(v) for v in V for c in v}


def build_mgraph(V: Field, X: StateComplex) -> MGraph:
    """Arc V -> W (V != W) iff W intersects mouth(V); self-loops everywhere.

    On a 1-complex a vertex has no proper faces, so the mouth of V is the
    set of endpoints of V's edges that lie outside V. One pass over the
    edges therefore finds every arc: edge e and its endpoint v give the arc
    [e] -> [v], which is a self-loop exactly when v lies in e's multivector.
    """
    label_of = _label_of(V)
    nodes = tuple(min(v) for v in V)
    arcs = {(u, u) for u in nodes}
    for e, (i, j) in enumerate(X.edges, start=X.n):  # states i, j are cells i - 1, j - 1
        u = label_of[e]
        arcs.add((u, label_of[i - 1]))
        arcs.add((u, label_of[j - 1]))
    return MGraph(nodes, frozenset(arcs))


def _tarjan_scc(nodes: tuple[int, ...], adj: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan; returns SCCs as lists of nodes."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj[succ])))
                    advanced = True
                    break
                if succ in on_stack:
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
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
    return sccs


def morse_sets(G: MGraph, V: Field) -> tuple[MorseSet, ...]:
    """Every SCC of the M-graph as a Morse set, sorted by label.

    Self-loops make each node trivially recurrent, so singleton SCCs count:
    the Morse sets partition all cells of the complex.
    """
    adj: dict[int, list[int]] = {u: [] for u in G.nodes}
    for u, w in G.arcs:
        adj[u].append(w)
    by_label = {min(v): v for v in V}
    sets = [
        MorseSet(label=min(comp), cells=frozenset().union(*(by_label[u] for u in comp)))
        for comp in _tarjan_scc(G.nodes, adj)
    ]
    return tuple(sorted(sets, key=lambda m: m.label))


def morse_order(G: MGraph, sets: tuple[MorseSet, ...]) -> list[tuple[int, int]]:
    """Condense the M-graph and take transitive reachability between SCCs, as sorted (above, below) pairs."""
    set_of = {c: m.label for m in sets for c in m.cells}  # arc ends are labels, so cells
    dag: dict[int, set[int]] = {m.label: set() for m in sets}
    for u, w in G.arcs:
        su, sw = set_of[u], set_of[w]
        if su != sw:
            dag[su].add(sw)

    # Kahn order, then accumulate reachability bottom-up (sinks first).
    indegree = {lbl: 0 for lbl in dag}
    for succs in dag.values():
        for w in succs:
            indegree[w] += 1
    queue = [lbl for lbl, d in indegree.items() if d == 0]
    topo = []
    while queue:
        u = queue.pop()
        topo.append(u)
        for w in dag[u]:
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    reach: dict[int, set[int]] = {}
    for u in reversed(topo):
        acc: set[int] = set()
        for w in dag[u]:
            acc.add(w)
            acc |= reach[w]
        reach[u] = acc

    return sorted((u, below) for u, acc in reach.items() for below in acc)


def mgraph_by_mouths(V: Field, X: StateComplex) -> MGraph:
    """The M-graph of V, one subset-checked mouth per multivector."""
    owner = _label_of(V)
    nodes = tuple(min(v) for v in V)
    arcs = {(u, u) for u in nodes}
    for vec in V:
        for c in mouth(X, vec):
            arcs.add((min(vec), owner[c]))
    return MGraph(nodes, frozenset(arcs))


def vector_of(V: Field, cell: int) -> frozenset[int]:
    """The multivector [cell] containing the given cell."""
    for v in V:
        if cell in v:
            return v
    raise KeyError(f"cell {cell} is not in this field")


def pi_map(V: Field, X: StateComplex, x: int) -> frozenset[int]:
    """The multivalued map value at x: [x] union cl{x}."""
    return vector_of(V, x) | closure(X, (x,))
