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

import math

from .cells import StateComplex
from .markov import TransitionMatrix
from .unionfind import DisjointSet


def check_gamma(gamma: float) -> None:
    """Refuse a threshold that is not a finite number >= 0."""
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")


def build_mvf(X: StateComplex, P: TransitionMatrix, gamma: float) -> tuple[frozenset[int], ...]:
    """Partition X's cells at threshold gamma, parts sorted by their smallest cell.

    Start from singletons; for each edge {i, j} with i < j, merge vertex i
    into the edge when p_ij <= gamma and vertex j into the edge when
    p_ji <= gamma (comparisons are exact; a zero reverse entry on an existing
    edge therefore merges at every gamma). Transitive overlaps are resolved
    by union-find. On a 1-complex every part is locally closed, so the
    result is always a valid field.
    """
    check_gamma(gamma)
    dsu = DisjointSet(X.cell_count)
    for e, (i, j) in enumerate(X.edges, start=X.n):
        if P.prob(i, j) <= gamma:
            dsu.union(X.vertex(i), e)
        if P.prob(j, i) <= gamma:
            dsu.union(X.vertex(j), e)
    return tuple(map(frozenset, dsu.groups()))
