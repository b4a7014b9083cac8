"""Exact bottleneck distance between decorated persistence diagrams.

Points match only within their index class; unmatched points pay the
l-infinity cost of reaching the diagonal, and the diagonal slot absorbing a
point inherits its class. Infinite points pair off sorted by birth and any
count mismatch makes the class, and the whole distance, infinite. The
overall distance is the maximum over classes.

Per class, the finite points A and B are solved in three steps:

- Candidate radii. The l-infinity matrix D between A and B is computed once
  with numpy, with both sides' half-persistences (the cost of reaching the
  diagonal). The optimum is the cost of some edge, so it is one of D's
  entries, a half-persistence or 0. No radius below the largest cheapest
  way out of a single point is feasible, and the search starts there.
- Feasibility at a radius, without diagonal slots. A perfect matching of A
  plus one diagonal slot per B point against B plus one slot per A point
  exists iff some matching in the graph {D <= eps} covers every far point
  (half-persistence > eps) of both sides, since the free slot-to-slot pairs
  absorb the rest. By Mendelsohn-Dulmage that splits into two one-sided
  checks: A's far points match into B, and B's far points match into A. A
  binary search over the sorted radii finds the smallest feasible one.
- The reported matching. At that radius the graph with diagonal slots is
  built once, rows in the order A's points then B's slots, and one
  Hopcroft-Karp run on it fixes which pairs are reported and in what order.
  Slots are shared sequences, so no slot row is copied.

References: Efrat, Itai & Katz, Algorithmica 31 (2001); Kerber, Morozov &
Nigmetov, "Geometry Helps to Compare Persistence Diagrams", JEA 22 (2017).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from collections.abc import Iterator, Sequence
from itertools import chain
from typing import NamedTuple

import numpy as np

from .homology import TopologicalIndex
from .persistence import PersistenceDiagram, PersistencePoint


class MatchPair(NamedTuple):
    """One matched pair; None marks the diagonal side of an absorption."""

    left: PersistencePoint | None
    right: PersistencePoint | None
    cost: float


class BottleneckResult(NamedTuple):
    distance: float
    pairs: tuple[MatchPair, ...]


class _Candidates:
    """The right nodes of one shared sequence a depth-first scan can act on, for one phase.

    A scan from a node at layer t - 1 takes a free right node or enters one
    whose partner is at layer t; it passes over every other node without
    effect. So the positions are kept in heaps: the free ones, and per layer
    those whose partner was at that layer when recorded. An entry goes stale
    when its node is matched, when the partner's search fails (dist inf) or
    when the node is re-matched, which is always to a shallower partner.
    Stale entries never become valid again in the phase and are dropped when
    they reach the top.
    """

    def __init__(self, seq: Sequence[int], match_right: list[int], dist: list[float]):
        self.seq, self.match_right, self.dist = seq, match_right, dist
        self.free: list[int] = []
        self.by_layer: dict[float, list[int]] = {}
        for pos, v in enumerate(seq):  # ascending positions, so each list is a heap
            w = match_right[v]
            if w == -1:
                self.free.append(pos)
            elif dist[w] != math.inf:
                self.by_layer.setdefault(dist[w], []).append(pos)

    def add(self, pos: int, layer: float) -> None:
        heapq.heappush(self.by_layer.setdefault(layer, []), pos)

    def scan(self, t: float) -> Iterator[int]:
        """The right nodes a scan from layer t - 1 acts on, in sequence order."""
        seq, match_right, dist = self.seq, self.match_right, self.dist
        free, layer = self.free, self.by_layer.setdefault(t, [])
        while True:
            while free and match_right[seq[free[0]]] != -1:
                heapq.heappop(free)
            while layer and dist[match_right[seq[layer[0]]]] != t:
                heapq.heappop(layer)
            if free and (not layer or free[0] < layer[0]):
                yield seq[free[0]]
            elif layer:
                yield seq[layer[0]]
            else:
                return


def _hopcroft_karp(adj: list[tuple[Sequence[int], ...]], n_right: int) -> list[int]:
    """Maximum matching; adj[u] holds left node u's right neighbours in scan order.

    A row is a tuple of sequences, and rows may share a sequence object.
    Returns match_left (right partner of each left node, -1 if unmatched).
    The result is the textbook traversal's: breadth-first layers from the
    free left nodes, then from each free left node in turn a depth-first
    search that takes the first free neighbour or enters the first neighbour
    whose partner lies one layer deeper, and marks a node that runs out of
    neighbours dead for the phase. Two things only skip work that has no
    effect: a breadth-first pass reads each sequence once (after one scan
    every node in it is free or has a layered partner), and the depth-first
    search reads a shared sequence through its `_Candidates`.
    """
    inf = math.inf
    n_left = len(adj)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    uses = Counter(id(seq) for row in adj for seq in row)
    shared = {id(seq): seq for row in adj for seq in row if uses[id(seq)] > 1}
    members: dict[int, list[tuple[int, int]]] = {}  # right node -> (shared sequence, position)
    for key, seq in shared.items():
        for pos, v in enumerate(seq):
            members.setdefault(v, []).append((key, pos))

    def neighbours(u: int) -> Iterator[int]:
        t = dist[u] + 1
        return chain(*(candidates[id(s)].scan(t) if id(s) in candidates else s for s in adj[u]))

    def augment(root: int) -> None:
        """Search for an augmenting path from root with an explicit stack; flip it if found."""
        stack = [(root, neighbours(root))]
        path: list[int] = []  # path[i]: the right node stack[i] takes if the search succeeds
        while stack:
            u, rest = stack[-1]
            for v in rest:
                w = match_right[v]
                if w == -1:
                    path.append(v)
                    for (x, _), y in zip(stack, path):
                        match_left[x] = y
                        match_right[y] = x
                        for key, pos in members.get(y, ()):
                            candidates[key].add(pos, dist[x])
                    return
                if dist[w] == dist[u] + 1:
                    path.append(v)
                    stack.append((w, neighbours(w)))
                    break
            else:
                dist[u] = inf
                stack.pop()
                if path:
                    path.pop()

    while True:
        dist = [inf] * n_left
        queue = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
        found = False
        scanned: set[int] = set()
        while queue:
            u = queue.popleft()
            for seq in adj[u]:
                if id(seq) in scanned:
                    continue
                scanned.add(id(seq))
                for v in seq:
                    w = match_right[v]
                    if w == -1:
                        found = True
                    elif dist[w] == inf:
                        dist[w] = dist[u] + 1
                        queue.append(w)
        if not found:
            return match_left
        candidates = {key: _Candidates(seq, match_right, dist) for key, seq in shared.items()}
        for u in range(n_left):
            if match_left[u] == -1:
                augment(u)


def _rows(mask: np.ndarray) -> list[list[int]]:
    """Adjacency rows of a boolean matrix: the true columns of each row, ascending."""
    cols = mask.nonzero()[1].tolist()
    ends = mask.sum(axis=1).cumsum().tolist()
    return [cols[start:end] for start, end in zip([0, *ends], ends)]


def _covers(mask: np.ndarray) -> bool:
    """Whether some matching in the bipartite graph mask covers every row."""
    return -1 not in _hopcroft_karp([(row,) for row in _rows(mask)], mask.shape[1])


def _feasible(D: np.ndarray, half_a: np.ndarray, half_b: np.ndarray, eps: float) -> bool:
    """Whether each side's far points (half-persistence > eps) match into the other side."""
    within = D <= eps
    return _covers(within[half_a > eps]) and _covers(within.T[half_b > eps])


def _finite_class_distance(
    A: list[PersistencePoint], B: list[PersistencePoint]
) -> tuple[float, list[MatchPair]]:
    if not A and not B:
        return 0.0, []
    na, nb = len(A), len(B)
    birth_a, death_a = np.array([(p.birth, p.death) for p in A], dtype=float).reshape(na, 2).T
    birth_b, death_b = np.array([(p.birth, p.death) for p in B], dtype=float).reshape(nb, 2).T
    D = np.maximum(
        np.abs(birth_a[:, None] - birth_b[None, :]), np.abs(death_a[:, None] - death_b[None, :])
    )
    half_a = (death_a - birth_a) / 2.0
    half_b = (death_b - birth_b) / 2.0
    # repeated radii cost at most one more search step and change no result
    ordered = np.sort(np.concatenate((D.ravel(), half_a, half_b, [0.0])))
    # below the cheapest way out of some point (its nearest partner or the
    # diagonal) that point stays unmatched; this bound is itself a radius
    lower = max(
        np.minimum(half_a, D.min(axis=1, initial=math.inf)).max(initial=0.0),
        np.minimum(half_b, D.min(axis=0, initial=math.inf)).max(initial=0.0),
    )
    lo, hi = int(np.searchsorted(ordered, lower)), len(ordered) - 1
    if not _feasible(D, half_a, half_b, ordered[lo]):
        lo += 1
        while lo < hi:  # smallest feasible radius
            mid = (lo + hi) // 2
            if _feasible(D, half_a, half_b, ordered[mid]):
                hi = mid
            else:
                lo = mid + 1
    eps = float(ordered[lo])
    # the graph with diagonal slots: A's points then one slot per B point on
    # the left, B's points then one slot per A point on the right
    slots = range(nb, nb + na)
    near_b = np.flatnonzero(half_b <= eps).tolist()
    adj = [
        (row, slots) if near else (row,)
        for row, near in zip(_rows(D <= eps), (half_a <= eps).tolist())
    ]
    adj.extend([(near_b, slots)] * nb)
    match_left = _hopcroft_karp(adj, na + nb)
    half_a, half_b = half_a.tolist(), half_b.tolist()
    pairs = []
    for u, v in enumerate(match_left):
        if u < na and v < nb:
            pairs.append(MatchPair(A[u], B[v], float(D[u, v])))
        elif u < na:
            pairs.append(MatchPair(A[u], None, half_a[u]))
        elif v < nb:
            pairs.append(MatchPair(None, B[v], half_b[v]))
    return eps, pairs


def _infinite_class_distance(
    A: list[PersistencePoint], B: list[PersistencePoint]
) -> tuple[float, list[MatchPair]]:
    if len(A) != len(B):
        return math.inf, []
    A = sorted(A, key=lambda p: p.birth)
    B = sorted(B, key=lambda p: p.birth)
    pairs = [MatchPair(a, b, abs(a.birth - b.birth)) for a, b in zip(A, B)]
    dist = max((p.cost for p in pairs), default=0.0)
    return dist, pairs


def _by_class(D: PersistenceDiagram) -> dict[TopologicalIndex, tuple[list, list]]:
    """Each index class's finite and immortal points, in diagram order."""
    groups: dict[TopologicalIndex, tuple[list, list]] = {}
    for p in D.points:
        groups.setdefault(p.index, ([], []))[math.isinf(p.death)].append(p)
    return groups


def bottleneck_matching(D1: PersistenceDiagram, D2: PersistenceDiagram) -> BottleneckResult:
    """Distance plus one optimal matching realizing it."""
    groups1, groups2 = _by_class(D1), _by_class(D2)
    distance = 0.0
    pairs: list[MatchPair] = []
    for k in sorted(groups1.keys() | groups2.keys()):
        a_fin, a_inf = groups1.get(k, ([], []))
        b_fin, b_inf = groups2.get(k, ([], []))
        d_inf, inf_pairs = _infinite_class_distance(a_inf, b_inf)
        if math.isinf(d_inf):
            return BottleneckResult(math.inf, ())
        d_fin, fin_pairs = _finite_class_distance(a_fin, b_fin)
        distance = max(distance, d_fin, d_inf)
        pairs.extend(fin_pairs)
        pairs.extend(inf_pairs)
    return BottleneckResult(distance, tuple(pairs))


def bottleneck_distance(D1: PersistenceDiagram, D2: PersistenceDiagram) -> float:
    """max over index classes of the exact class-wise bottleneck distance."""
    return bottleneck_matching(D1, D2).distance
