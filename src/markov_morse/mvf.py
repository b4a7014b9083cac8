"""Multivector fields on the state complex, indexed by a probability threshold.

A multivector field partitions the cells into locally closed groups. At
threshold gamma, a vertex is merged with an incident edge whenever the
transition probability *leaving* that vertex along the edge is <= gamma;
overlapping merges are closed transitively. Raising gamma only ever merges
groups, so the fields over the threshold grid form a filtration by
coarsening. A field is the plain partition: a tuple of frozensets of cell
ids, each multivector labelled by its smallest cell and sorted by label.
"""

from __future__ import annotations

from .cells import StateComplex
from .dynamics import _tarjan_scc, check_gamma
from .markov import TransitionMatrix


def build_mvf(X: StateComplex, P: TransitionMatrix, gamma: float) -> tuple[frozenset[int], ...]:
    """Partition X's cells at threshold gamma, parts sorted by their smallest cell.

    Vertex i is merged into the edge {i, j} when p_ij <= gamma (comparisons
    are exact; a zero reverse entry on an existing edge therefore merges at
    every gamma). Each merge is the 2-cycle v <-> e, and the multivectors
    are the SCCs of these 2-cycles, which closes overlapping merges
    transitively. On a 1-complex every part is locally closed, so the
    result is always a valid field.
    """
    check_gamma(gamma)
    rows = P.entries.tolist()
    adj: list[list[int]] = [[] for _ in X.cells()]
    for e, (i, j) in enumerate(X.edges, start=X.n):
        for v, w in ((i - 1, j - 1), (j - 1, i - 1)):  # cells of states i, j
            if rows[v][w] <= gamma:
                adj[v].append(e)
                adj[e].append(v)
    return tuple(sorted(map(frozenset, _tarjan_scc(adj)), key=min))
