"""GF(2) cellular homology of cell sets, absolute and relative to the mouth.

On a 1-complex the boundary map sends each edge to its two endpoints, and
over GF(2) its rank on a graph is |V| - #components. Every dimension below
therefore comes from one union-find pass over the graph whose vertices are
those of cl A and whose edges are A's edges:

- for a closed set A, H0 is the number of components and H1 = |E| - |V| + H0;
- for a locally closed set A, H(cl A, mo A) quotients the mouth vertices
  away, so c0 counts the components without a mouth vertex and
  c1 = |E| - |V_A| + c0. These dimensions form the Conley-style index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .cells import Cell, StateComplex, is_closed
from .unionfind import DisjointSet

if TYPE_CHECKING:
    from .dynamics import MorseSet
    from .mvf import Multivector


class TopologicalIndex(NamedTuple):
    """(dim H1 of the closure, dim H1 of the closure rel its mouth)."""

    h1: int
    c1: int


class _Components(NamedTuple):
    """Counts of the graph with cl A's vertices and A's edges."""

    own_vertices: int  # |V_A|
    closure_vertices: int  # |V_cl A|
    edges: int  # |E_A|
    components: int
    mouthless: int  # components with no vertex in the mouth


def _components(X: StateComplex, A: Iterable[Cell]) -> _Components:
    own: set[int] = set()
    ends: set[int] = set()
    dsu = DisjointSet(X.n + 1)
    edges = 0
    for c in A:
        if c.is_edge:
            dsu.union(c.i, c.j)
            ends.update((c.i, c.j))
            edges += 1
        else:
            own.add(c.i)
    roots = {dsu.find(i) for i in own | ends}
    mouth_roots = {dsu.find(i) for i in ends - own}
    return _Components(len(own), len(own | ends), edges, len(roots), len(roots) - len(mouth_roots))


def homology_dims(X: StateComplex, A: Iterable[Cell]) -> tuple[int, int]:
    """(dim H0, dim H1) over GF(2) of a closed set A."""
    cells = frozenset(A)
    if not is_closed(X, cells):
        raise ValueError("homology of a non-closed set is undefined here")
    k = _components(X, cells)
    return k.components, k.edges - k.own_vertices + k.components


def conley_index_dims(X: StateComplex, A: Iterable[Cell]) -> tuple[int, int]:
    """(c0, c1) = dims of H(cl A, mo A) over GF(2), for locally closed A.

    Every cell set of a 1-complex is locally closed: its mouth holds
    vertices only.
    """
    k = _components(X, frozenset(A))
    return k.mouthless, k.edges - k.own_vertices + k.mouthless


def topological_index(X: StateComplex, M: "MorseSet") -> TopologicalIndex:
    """The decoration attached to a Morse set: (h1 of cl M, c1 of (cl M, mo M))."""
    k = _components(X, M.cells)
    return TopologicalIndex(
        k.edges - k.closure_vertices + k.components,
        k.edges - k.own_vertices + k.mouthless,
    )


def is_critical(X: StateComplex, V: "Multivector") -> bool:
    """A multivector is critical iff its relative homology is non-trivial."""
    c0, c1 = conley_index_dims(X, V.cells)
    return c0 + c1 > 0
