"""Test oracle: homology of any cell set from union-find component counts.

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
from markov_morse.unionfind import DisjointSet

from cells_oracle import is_closed


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
