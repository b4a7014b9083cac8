"""Test oracle: homology of any cell set from union-find component counts.

The union-find left the library; it lives here with its two remaining
uses. `build_mvf_by_union` is the field route the library replaced by
the SCCs of the merge 2-cycles: singletons, then one union per merge.

The library indexes only Morse sets, whose closures are connected, so it
reads the index off three counts. This module keeps the general route it
replaced, which counts the components of the graph with cl A's vertices and
A's edges and so holds for every cell set:

- for a closed set A, H0 is the number of components and H1 = |E| - |V| + H0;
- for a locally closed set A, H(cl A, mo A) quotients the mouth vertices
  away, so c0 counts the components without a mouth vertex and
  c1 = |E| - |V_A| + c0. These dimensions form the Conley-style index.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from markov_morse.cells import StateComplex
from markov_morse.homology import TopologicalIndex
from markov_morse.markov import TransitionMatrix

from cells_oracle import is_closed


class DisjointSet:
    """Partition of the integers 0..n-1 into mergeable groups (path compression, union by size)."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # compress
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the groups of a and b; returns False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def build_mvf_by_union(X: StateComplex, P: TransitionMatrix, gamma: float) -> tuple[frozenset[int], ...]:
    """The field at gamma by union-find: merge vertex i into edge {i, j} when p_ij <= gamma."""
    dsu = DisjointSet(X.cell_count)
    for e, (i, j) in enumerate(X.edges, start=X.n):
        if P.prob(i, j) <= gamma:
            dsu.union(X.vertex(i), e)
        if P.prob(j, i) <= gamma:
            dsu.union(X.vertex(j), e)
    groups: dict[int, list[int]] = {}
    for c in X.cells():
        groups.setdefault(dsu.find(c), []).append(c)
    return tuple(frozenset(g) for g in sorted(groups.values(), key=lambda g: g[0]))


class _Components(NamedTuple):
    """Counts of the graph with cl A's vertices and A's edges."""

    own_vertices: int  # |V_A|
    closure_vertices: int  # |V_cl A|
    edges: int  # |E_A|
    components: int
    mouthless: int  # components with no vertex in the mouth


def _components(X: StateComplex, A: Iterable[int]) -> _Components:
    own: set[int] = set()
    ends: set[int] = set()
    dsu = DisjointSet(X.n)
    edges = 0
    for c in A:
        if X.is_edge(c):
            i, j = X.endpoints(c)
            dsu.union(i, j)
            ends.update((i, j))
            edges += 1
        else:
            own.add(c)
    roots = {dsu.find(i) for i in own | ends}
    mouth_roots = {dsu.find(i) for i in ends - own}
    return _Components(len(own), len(own | ends), edges, len(roots), len(roots) - len(mouth_roots))


def homology_dims(X: StateComplex, A: Iterable[int]) -> tuple[int, int]:
    """(dim H0, dim H1) over GF(2) of a closed set A."""
    cells = frozenset(A)
    if not is_closed(X, cells):
        raise ValueError("homology of a non-closed set is undefined here")
    k = _components(X, cells)
    return k.components, k.edges - k.own_vertices + k.components


def conley_index_dims(X: StateComplex, A: Iterable[int]) -> tuple[int, int]:
    """(c0, c1) = dims of H(cl A, mo A) over GF(2), for locally closed A.

    Every cell set of a 1-complex is locally closed: its mouth holds
    vertices only.
    """
    k = _components(X, frozenset(A))
    return k.mouthless, k.edges - k.own_vertices + k.mouthless


def index_by_components(X: StateComplex, cells: Iterable[int]) -> TopologicalIndex:
    """(h1 of cl A, c1 of (cl A, mo A)) for any cell set, connected or not."""
    k = _components(X, cells)
    return TopologicalIndex(
        k.edges - k.closure_vertices + k.components,
        k.edges - k.own_vertices + k.mouthless,
    )


def is_critical(X: StateComplex, V: Iterable[int]) -> bool:
    """A multivector (a cell set) is critical iff its relative homology is non-trivial."""
    c0, c1 = conley_index_dims(X, V)
    return c0 + c1 > 0
