"""Test oracle: GF(2) homology of cell sets by dense Gaussian elimination.

The library computes every dimension from component counts. This module
keeps the linear-algebra route, independent of that code, so the tests can
compare the two: for a cell set A, the boundary matrix has A's vertices as
rows and A's edges as columns, with a 1 where the vertex is an endpoint.
Endpoints outside A drop out, which is the boundary of the relative pair
(cl A, mo A); for a closed A the mouth is empty and it is the absolute one.
Then dim C0 - rank and dim C1 - rank are the two Betti numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from markov_morse.cells import Cell


@dataclass(frozen=True)
class Gf2Matrix:
    """Dense bit matrix over GF(2); rows are uint8 vectors of 0/1."""

    rows: int
    cols: int
    bits: np.ndarray

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]], cols: int) -> "Gf2Matrix":
        data = np.array([list(r) for r in rows], dtype=np.uint8).reshape(-1, cols)
        return Gf2Matrix(data.shape[0], cols, data)


def rank_gf2(M: Gf2Matrix) -> int:
    """Rank via Gaussian elimination with XOR row updates."""
    if M.rows == 0 or M.cols == 0:
        return 0
    work = M.bits.copy()
    rank = 0
    for col in range(M.cols):
        pivot = None
        for r in range(rank, M.rows):
            if work[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        for r in range(M.rows):
            if r != rank and work[r, col]:
                work[r] ^= work[rank]
        rank += 1
        if rank == M.rows:
            break
    return rank


def _split(A: Iterable[Cell]) -> tuple[list[Cell], list[Cell]]:
    cells = sorted(A)
    verts = [c for c in cells if c.is_vertex]
    edges = [c for c in cells if c.is_edge]
    return verts, edges


def boundary_matrix(A: Iterable[Cell]) -> Gf2Matrix:
    """Vertex-by-edge incidence of the cells of A (endpoints inside A only)."""
    verts, edges = _split(A)
    row_of = {v: k for k, v in enumerate(verts)}
    bits = np.zeros((len(verts), len(edges)), dtype=np.uint8)
    for col, e in enumerate(edges):
        for v in e.endpoints():
            if v in row_of:
                bits[row_of[v], col] ^= 1
    return Gf2Matrix(len(verts), len(edges), bits)


def betti_by_rank(A: Iterable[Cell]) -> tuple[int, int]:
    """(dim C0 - rank, dim C1 - rank) of A's boundary matrix.

    H0/H1 of A when A is closed; dims of H(cl A, mo A) in general.
    """
    cells = frozenset(A)
    verts, edges = _split(cells)
    r = rank_gf2(boundary_matrix(cells))
    return len(verts) - r, len(edges) - r
