"""Test oracle: closure, mouth and the field predicates on the state complex.

The library never evaluates these. On a 1-complex the mouth of a cell set
is the set of outside endpoints of its edges, every part of a field is
locally closed, and raising the threshold only merges multivectors; the
library relies on those facts rather than re-checking them. This module
keeps the checking helpers it dropped, copied verbatim from `cells.py` and
`mvf.py` except that a field is the plain partition `build_mvf` returns (a
tuple of frozensets) and the two `StateComplex` methods are functions:

- `closure`, `mouth`, `is_closed`, `is_locally_closed` on a cell subset;
- `contains(X, cell)` (was `cell in X`) and `edge(X, i, j)` (was
  `X.edge(i, j)`);
- `is_valid_mvf` and `is_coarsening` on partitions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from markov_morse.cells import StateComplex

Field = tuple[frozenset[int], ...]


def contains(X: StateComplex, cell) -> bool:
    return isinstance(cell, int) and 0 <= cell < X.cell_count


def edge(X: StateComplex, i: int, j: int) -> int:
    """The cell of the edge {i, j}, in either endpoint order."""
    if i == j:
        raise ValueError("edge endpoints must differ")
    pair = (min(i, j), max(i, j))
    r = bisect_left(X.edges, pair)
    if r == len(X.edges) or X.edges[r] != pair:
        raise ValueError(f"edge {pair} is not in the complex")
    return X.n + r


def _check_subset(X: StateComplex, A: Iterable[int]) -> frozenset[int]:
    cells = frozenset(A)
    for c in cells:
        if not contains(X, c):
            raise ValueError(f"cell {c} is not in the complex")
    return cells


def closure(X: StateComplex, A: Iterable[int]) -> frozenset[int]:
    """A plus the endpoint vertices of every edge in A."""
    cells = _check_subset(X, A)
    extra = [v for c in cells if X.is_edge(c) for v in X.endpoints(c)]
    return cells | frozenset(extra)


def mouth(X: StateComplex, A: Iterable[int]) -> frozenset[int]:
    """closure(A) minus A."""
    cells = _check_subset(X, A)
    return closure(X, cells) - cells


def is_closed(X: StateComplex, A: Iterable[int]) -> bool:
    """True iff every edge of A has both endpoints in A."""
    cells = _check_subset(X, A)
    return all(v in cells for c in cells if X.is_edge(c) for v in X.endpoints(c))


def is_locally_closed(X: StateComplex, A: Iterable[int]) -> bool:
    """True iff mouth(A) is closed.

    In a 1-dimensional complex the mouth consists of vertices only, so this
    always holds; the check stays honest rather than assumed.
    """
    return is_closed(X, mouth(X, A))


def is_valid_mvf(V: Field, X: StateComplex) -> bool:
    """True iff V partitions X's cells into non-empty parts, each locally closed."""
    cells = [c for v in V for c in v]
    if not all(V) or len(cells) != len(set(cells)) or set(cells) != set(X.cells()):
        return False
    return all(is_locally_closed(X, v) for v in V)


def is_coarsening(coarse: Field, fine: Field) -> bool:
    """True iff every multivector of coarse is a union of multivectors of fine.

    Both fields must partition the same cell set; raises on a mismatch.
    """
    label_of = {c: min(v) for v in coarse for c in v}
    if frozenset(label_of) != frozenset(c for v in fine for c in v):
        raise ValueError("fields live on different complexes")
    for v in fine:
        owners = {label_of[c] for c in v}
        if len(owners) != 1:
            return False
    return True
