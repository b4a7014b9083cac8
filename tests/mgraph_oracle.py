"""Test oracle: the M-graph read from the mouth of every multivector.

The library reads the arcs off the complex's edge list, which holds only
because the mouth of a cell set in a 1-complex is the set of outside
endpoints of its edges. This module keeps the general definition, one
`mouth` per multivector, so the tests can compare the two arc for arc:
V -> W (V != W) iff W meets mouth(V), plus a self-loop on every node.
It also keeps the cell-level multivalued map the M-graph collapses,
`pi_map(x) = [x] | cl{x}`, which the library never evaluates.
"""

from __future__ import annotations

from markov_morse.cells import StateComplex, closure, mouth
from markov_morse.dynamics import MGraph
from markov_morse.mvf import MultivectorField


def mgraph_by_mouths(V: MultivectorField, X: StateComplex) -> MGraph:
    """The M-graph of V, one subset-checked mouth per multivector."""
    owner = {c: min(v) for v in V.multivectors for c in v}
    nodes = tuple(min(v) for v in V.multivectors)
    arcs = {(u, u) for u in nodes}
    for vec in V.multivectors:
        for c in mouth(X, vec):
            arcs.add((min(vec), owner[c]))
    return MGraph(nodes, frozenset(arcs))


def vector_of(V: MultivectorField, cell: int) -> frozenset[int]:
    """The multivector [cell] containing the given cell."""
    try:
        label = V.label_of[cell]
    except KeyError:
        raise KeyError(f"cell {cell} is not in this field") from None
    return frozenset(c for c, other in V.label_of.items() if other == label)


def pi_map(V: MultivectorField, X: StateComplex, x: int) -> frozenset[int]:
    """The multivalued map value at x: [x] union cl{x}."""
    return vector_of(V, x) | closure(X, (x,))
