"""The state complex: a finite T0 space of vertices and edges.

States become vertices; an unordered pair {i, j} becomes an edge cell as soon
as either transition direction has positive probability. A vertex has no
proper faces, so the closure of a cell set adds only the endpoints of its
edges, and its mouth (closure minus the set) holds vertices only. The
library reads both off `endpoints` where it needs them; the general
closure and mouth operators are a test oracle in `tests/cells_oracle.py`.

Cells are plain ints, dense per complex: state k (1-based) is vertex k - 1,
and the edge of rank r (from 0) in the lexicographic order of endpoint pairs
is n + r. Integer order is therefore the canonical total order — vertices by
index, then edges lexicographically — which is the tie-break authority for
every label downstream. `format_cell` turns a cell back into state labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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

    def vertex(self, i: int) -> int:
        """The cell of state i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex index {i} outside 1..{self.n}")
        return i - 1

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
