"""The GF(2) index of a Morse set, absolute and relative to its mouth.

On a 1-complex the boundary map sends each edge to its two endpoints, and
over GF(2) its rank on a graph is |V| - #components. The closure of a Morse
set M is always connected: `build_mvf` only joins a vertex to an incident
edge, so every multivector's closure is connected, and each arc [e] -> [v]
inside M joins the closures of the two multivectors it links. With one
component, three counts give the index. Let E be M's edges, V_M its own
vertices and V_cl the vertices of cl M:

- h1 = dim H1(cl M) = |E| - |V_cl| + 1;
- the mouth mo M = V_cl - V_M holds vertices only, and quotienting it away
  leaves c0 = 1 if it is empty and 0 otherwise, so
  c1 = dim H1(cl M, mo M) = |E| - |V_M| + [M is closed].
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .cells import StateComplex

if TYPE_CHECKING:
    from .dynamics import MorseSet


class TopologicalIndex(NamedTuple):
    """(dim H1 of the closure, dim H1 of the closure rel its mouth)."""

    h1: int
    c1: int


def topological_index(X: StateComplex, M: "MorseSet") -> TopologicalIndex:
    """The decoration attached to a Morse set: (h1 of cl M, c1 of (cl M, mo M)).

    M must be a Morse set (or any cell set whose closure is connected); the
    module docstring gives the reason every Morse set qualifies.
    """
    n = X.n
    edges = [c for c in M.cells if c >= n]
    mouth = {i - 1 for c in edges for i in X.edges[c - n]} - M.cells  # state i is cell i - 1
    return index_from_counts(len(edges), len(M.cells) - len(edges), len(mouth))


def index_from_counts(edges: int, vertices: int, mouth: int) -> TopologicalIndex:
    """The index of a Morse set with `edges` edges, `vertices` own vertices and `mouth` mouth vertices."""
    return TopologicalIndex(edges - vertices - mouth + 1, edges - vertices + (not mouth))
