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
class Multivector:
    """One locally closed group of cells; labelled by its minimal cell."""

    cells: frozenset[int]

    def __post_init__(self):
        if not self.cells:
            raise ValueError("multivector must be non-empty")

    @property
    def label(self) -> int:
        return min(self.cells)

    def __contains__(self, cell: int) -> bool:
        return cell in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return f"Multivector({sorted(self.cells)!r})"


@dataclass(frozen=True)
class MultivectorField:
    """A partition of a complex's cells into multivectors, at one threshold.

    Multivectors are kept sorted by label; owner lookup is O(1) via a
    cell-to-position index built once at construction.
    """

    gamma: float
    multivectors: tuple[Multivector, ...]
    _owner: dict[int, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.multivectors, key=lambda v: v.label))
        object.__setattr__(self, "multivectors", ordered)
        owner: dict[int, int] = {}
        for k, v in enumerate(ordered):
            for c in v.cells:
                if c in owner:
                    raise ValueError(f"cell {c} appears in two multivectors")
                owner[c] = k
        object.__setattr__(self, "_owner", owner)

    def vector_of(self, cell: int) -> Multivector:
        """The multivector [cell] containing the given cell."""
        try:
            return self.multivectors[self._owner[cell]]
        except KeyError:
            raise KeyError(f"cell {cell} is not in this field") from None

    def cell_set(self) -> frozenset[int]:
        return frozenset(self._owner)

    def __len__(self) -> int:
        return len(self.multivectors)


def build_mvf(X: StateComplex, P: TransitionMatrix, gamma: float) -> MultivectorField:
    """Partition X's cells at threshold gamma.

    Start from singletons; for each edge {i, j} with i < j, merge vertex i
    into the edge when p_ij <= gamma and vertex j into the edge when
    p_ji <= gamma (comparisons are exact; a zero reverse entry on an existing
    edge therefore merges at every gamma). Transitive overlaps are resolved
    by union-find. On a 1-complex every part is locally closed, so the
    result is always a valid field.
    """
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
    dsu = DisjointSet(X.cell_count)
    for e, (i, j) in enumerate(X.edges, start=X.n):
        if P.prob(i, j) <= gamma:
            dsu.union(X.vertex(i), e)
        if P.prob(j, i) <= gamma:
            dsu.union(X.vertex(j), e)
    vectors = tuple(Multivector(frozenset(group)) for group in dsu.groups())
    return MultivectorField(gamma, vectors)


def is_valid_mvf(V: MultivectorField, X: StateComplex) -> bool:
    """True iff V partitions X's cells and every part is locally closed."""
    covered = V.cell_set()
    if covered != frozenset(X.cells()):
        return False
    return all(is_locally_closed(X, v.cells) for v in V.multivectors)


def is_coarsening(coarse: MultivectorField, fine: MultivectorField) -> bool:
    """True iff every multivector of coarse is a union of multivectors of fine.

    Both fields must partition the same cell set; raises on a mismatch.
    """
    if coarse.cell_set() != fine.cell_set():
        raise ValueError("fields live on different complexes")
    for v in fine.multivectors:
        owners = {coarse._owner[c] for c in v.cells}
        if len(owners) != 1:
            return False
    return True
