"""Test oracle: the M-graph read from the mouth of every multivector.

The library reads the arcs off the complex's edge list, which holds only
because the mouth of a cell set in a 1-complex is the set of outside
endpoints of its edges. This module keeps the general definition, one
`mouth` per multivector, so the tests can compare the two arc for arc:
V -> W (V != W) iff W meets mouth(V), plus a self-loop on every node.
"""

from __future__ import annotations

from markov_morse.cells import StateComplex, mouth
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
