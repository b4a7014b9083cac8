"""Multivector fields on the state complex, indexed by a probability threshold.

A multivector field partitions the cells into locally closed groups. At
threshold gamma, a vertex is merged with an incident edge whenever the
transition probability *leaving* that vertex along the edge is <= gamma;
overlapping merges are closed transitively. Raising gamma only ever merges
groups, so the fields over the threshold grid form a filtration by
coarsening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cells import StateComplex, is_locally_closed
from .markov import TransitionMatrix
from .unionfind import DisjointSet


@dataclass(frozen=True)
class MultivectorField:
    """A partition of a complex's cells into multivectors, at one threshold.

    A multivector is a frozenset of cell ids, labelled by its smallest cell.
    Multivectors are kept sorted by label; `label_of` maps every cell to the
    label of its multivector and is built once at construction.
    """

    gamma: float
    multivectors: tuple[frozenset[int], ...]
    label_of: dict[int, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        labelled = []
        label_of: dict[int, int] = {}
        for v in self.multivectors:
            if not v:
                raise ValueError("multivector must be non-empty")
            label = min(v)
            for c in v:
                if c in label_of:
                    raise ValueError(f"cell {c} appears in two multivectors")
                label_of[c] = label
            labelled.append((label, frozenset(v)))
        labelled.sort(key=lambda lv: lv[0])
        object.__setattr__(self, "multivectors", tuple(v for _, v in labelled))
        object.__setattr__(self, "label_of", label_of)

    def cell_set(self) -> frozenset[int]:
        return frozenset(self.label_of)

    def __len__(self) -> int:
        return len(self.multivectors)


def check_gamma(gamma: float) -> None:
    """Refuse a threshold that is not a finite number >= 0."""
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")


def build_mvf(X: StateComplex, P: TransitionMatrix, gamma: float) -> MultivectorField:
    """Partition X's cells at threshold gamma.

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
    return MultivectorField(gamma, tuple(map(frozenset, dsu.groups())))


def is_valid_mvf(V: MultivectorField, X: StateComplex) -> bool:
    """True iff V partitions X's cells and every part is locally closed."""
    covered = V.cell_set()
    if covered != frozenset(X.cells()):
        return False
    return all(is_locally_closed(X, v) for v in V.multivectors)


def is_coarsening(coarse: MultivectorField, fine: MultivectorField) -> bool:
    """True iff every multivector of coarse is a union of multivectors of fine.

    Both fields must partition the same cell set; raises on a mismatch.
    """
    if coarse.cell_set() != fine.cell_set():
        raise ValueError("fields live on different complexes")
    for v in fine.multivectors:
        owners = {coarse.label_of[c] for c in v}
        if len(owners) != 1:
            return False
    return True
