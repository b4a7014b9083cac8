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
same SCCs: the Morse sets. A v -> e arc never leaves its SCC, so the
condensation DAG is read off the incidences alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import StateComplex
from .markov import TransitionMatrix
from .mvf import check_gamma


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

    Singleton SCCs count, so the Morse sets partition all cells of X.
    """
    check_gamma(gamma)
    rows = P.entries.tolist()
    adj: list[list[int]] = [[] for _ in X.cells()]
    for e, (i, j) in enumerate(X.edges, start=X.n):
        for v, w in ((i - 1, j - 1), (j - 1, i - 1)):  # cells of states i, j
            adj[e].append(v)
            if rows[v][w] <= gamma:
                adj[v].append(e)
    sets = [MorseSet(min(comp), frozenset(comp)) for comp in _tarjan_scc(adj)]
    return tuple(sorted(sets, key=lambda m: m.label))


def _condensation(X: StateComplex, sets: tuple[MorseSet, ...]) -> dict[int, set[int]]:
    """The condensation DAG of the cell digraph: set label -> labels one incidence below."""
    set_of = {c: m.label for m in sets for c in m.cells}
    dag: dict[int, set[int]] = {m.label: set() for m in sets}
    for e, (i, j) in enumerate(X.edges, start=X.n):
        for v in (i - 1, j - 1):
            if set_of[e] != set_of[v]:
                dag[set_of[e]].add(set_of[v])
    return dag


def _reach(start: int, arcs: dict[int, set[int]], within=None) -> set[int]:
    """Nodes reachable from start along arcs, staying inside `within` if given.

    With `within`, only the arcs into it are walked: `arcs[x] & within`
    costs the smaller of the two sets, not the out-degree of x.
    """
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for w in arcs[x] if within is None else arcs[x] & within:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass(frozen=True)
class MorseOrder:
    """Reachability order on Morse sets: relations holds the strict pairs (above, below)."""

    labels: tuple[int, ...]
    relations: frozenset[tuple[int, int]]

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.relations)


def morse_order(X: StateComplex, sets: tuple[MorseSet, ...]) -> MorseOrder:
    """Strict reachability between the Morse sets `morse_sets` gives for X."""
    dag = _condensation(X, sets)
    relations = {(u, w) for u in dag for w in _reach(u, dag) if w != u}
    return MorseOrder(tuple(m.label for m in sets), frozenset(relations))
