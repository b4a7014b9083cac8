"""The state complex: a finite T0 space of vertices and edges.

States become vertices; an unordered pair {i, j} becomes an edge cell as soon
as either transition direction has positive probability. The Alexandroff
closure of a cell set adds the endpoint vertices of its edges; the mouth is
closure minus the set.

Cells are plain ints, dense per complex: state k (1-based) is vertex k - 1,
and the edge of rank r (from 0) in the lexicographic order of endpoint pairs
is n + r. Integer order is therefore the canonical total order — vertices by
index, then edges lexicographically — which is the tie-break authority for
every label downstream. `format_cell` turns a cell back into state labels.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .markov import TransitionMatrix


@dataclass(frozen=True)
class StateComplex:
    """All cells of a chain: n vertices plus the positive-transition edges.

    `edges` holds the 1-based endpoint pairs (i, j), i < j, sorted; the edge
    at position r is cell n + r.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for k, (i, j) in enumerate(self.edges):
            if not 1 <= i < j <= self.n or (k and self.edges[k - 1] >= (i, j)):
                raise ValueError(f"invalid or out-of-order edge ({i}, {j}) for n={self.n}")

    @property
    def cell_count(self) -> int:
        return self.n + len(self.edges)

    def cells(self) -> range:
        """All cells in canonical order."""
        return range(self.cell_count)

    def __contains__(self, cell) -> bool:
        return isinstance(cell, int) and 0 <= cell < self.cell_count

    def vertex(self, i: int) -> int:
        """The cell of state i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex index {i} outside 1..{self.n}")
        return i - 1

    def edge(self, i: int, j: int) -> int:
        """The cell of the edge {i, j}, in either endpoint order."""
        if i == j:
            raise ValueError("edge endpoints must differ")
        pair = (min(i, j), max(i, j))
        r = bisect_left(self.edges, pair)
        if r == len(self.edges) or self.edges[r] != pair:
            raise ValueError(f"edge {pair} is not in the complex")
        return self.n + r

    def is_edge(self, cell: int) -> bool:
        return cell >= self.n

    def endpoints(self, cell: int) -> tuple[int, int]:
        """The two vertex faces of an edge."""
        if not self.n <= cell < self.cell_count:
            raise ValueError(f"cell {cell} is not an edge")
        i, j = self.edges[cell - self.n]
        return i - 1, j - 1


def format_cell(X: StateComplex, cell: int, states: tuple[str, ...]) -> str:
    """Serialize a cell using state labels: "Ni" or "Ni-Nj"."""
    if not X.is_edge(cell):
        return states[cell]
    i, j = X.endpoints(cell)
    return f"{states[i]}-{states[j]}"


def build_complex(P: "TransitionMatrix") -> StateComplex:
    """Vertices N1..Nn; edge {i,j} iff p_ij > 0 or p_ji > 0 (i != j)."""
    n = P.n
    edges = tuple(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if P.prob(i, j) > 0.0 or P.prob(j, i) > 0.0
    )
    return StateComplex(n, edges)


def _check_subset(X: StateComplex, A: Iterable[int]) -> frozenset[int]:
    cells = frozenset(A)
    for c in cells:
        if c not in X:
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
