"""Test oracle: the class-wise bottleneck matching on the full dummy graph.

The library solves a class of one point a side in closed form, reads the
L-infinity distances of a larger class in death windows, searches only the
candidate radii between the highest infeasible and the lowest feasible
radius it has probed, tests each radius with two one-sided matchings
without diagonal slots, and builds the graph with diagonal slots once, at
the optimum. This module keeps the earliest route: every radius in the
binary search rebuilds the whole graph with one diagonal slot per point
from scalar distance calls and runs a recursive Hopcroft-Karp on it.
`oracle_matching` must return exactly what `bottleneck_matching` returns,
distance and ordered pairs alike.
"""

from __future__ import annotations

import math
from collections import deque

from markov_morse.bottleneck import BottleneckResult, MatchPair
from markov_morse.persistence import PersistenceDiagram, PersistencePoint


def _hopcroft_karp(adj: list[list[int]], n_right: int) -> list[int]:
    """Maximum matching; adj maps left index -> right neighbours.

    Returns match_left (right partner of each left node, -1 if unmatched).
    """
    inf = math.inf
    n_left = len(adj)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    while True:
        dist = [inf] * n_left
        queue = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return match_left

        def try_augment(u: int) -> bool:
            for v in adj[u]:
                w = match_right[v]
                if w == -1 or (dist[w] == dist[u] + 1 and try_augment(w)):
                    match_left[u] = v
                    match_right[v] = u
                    return True
            dist[u] = inf
            return False

        for u in range(n_left):
            if match_left[u] == -1:
                try_augment(u)


def _linf(a: PersistencePoint, b: PersistencePoint) -> float:
    return max(abs(a.birth - b.birth), abs(a.death - b.death))


def _half_persistence(p: PersistencePoint) -> float:
    h = (p.death - p.birth) / 2.0
    return p.death / 2.0 - p.birth / 2.0 if h == math.inf else h  # (death - birth) overflowed


def _feasible(
    A: list[PersistencePoint], B: list[PersistencePoint], eps: float
) -> list[int] | None:
    """Perfect matching of A+dummies against B+dummies at tolerance eps.

    Left nodes 0..len(A)-1 are A's points, the rest are diagonal slots for
    B's points; right side mirrors this. Returns match_left or None.
    """
    na, nb = len(A), len(B)
    adj: list[list[int]] = []
    for a in A:
        row = [j for j, b in enumerate(B) if _linf(a, b) <= eps]
        if _half_persistence(a) <= eps:
            row.extend(range(nb, nb + na))
        adj.append(row)
    diag_row = [j for j, b in enumerate(B) if _half_persistence(b) <= eps]
    diag_row.extend(range(nb, nb + na))  # dummy-dummy is free
    for _ in range(nb):
        adj.append(list(diag_row))
    match_left = _hopcroft_karp(adj, na + nb)
    if all(v != -1 for v in match_left):
        return match_left
    return None


def _finite_class_distance(
    A: list[PersistencePoint], B: list[PersistencePoint]
) -> tuple[float, list[MatchPair]]:
    if not A and not B:
        return 0.0, []
    candidates = {0.0}
    for p in A + B:
        candidates.add(_half_persistence(p))
    for a in A:
        for b in B:
            candidates.add(abs(a.birth - b.birth))
            candidates.add(abs(a.death - b.death))
    ordered = sorted(candidates)
    lo, hi = 0, len(ordered) - 1
    # smallest feasible candidate; the optimum is always in the set
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(A, B, ordered[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    eps = ordered[lo]
    match_left = _feasible(A, B, eps)
    if match_left is None:
        raise RuntimeError("no feasible matching at the maximal candidate")
    na, nb = len(A), len(B)
    pairs = []
    for u, v in enumerate(match_left):
        if u < na and v < nb:
            pairs.append(MatchPair(A[u], B[v], _linf(A[u], B[v])))
        elif u < na:
            pairs.append(MatchPair(A[u], None, _half_persistence(A[u])))
        elif v < nb:
            pairs.append(MatchPair(None, B[v], _half_persistence(B[v])))
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


def oracle_matching(D1: PersistenceDiagram, D2: PersistenceDiagram) -> BottleneckResult:
    """Distance plus one optimal matching, by the full-dummy-graph route."""
    classes = {p.index for p in D1.points} | {p.index for p in D2.points}
    distance = 0.0
    pairs: list[MatchPair] = []
    for k in sorted(classes):
        a_fin = [p for p in D1.points if p.index == k and not math.isinf(p.death)]
        b_fin = [p for p in D2.points if p.index == k and not math.isinf(p.death)]
        a_inf = [p for p in D1.points if p.index == k and math.isinf(p.death)]
        b_inf = [p for p in D2.points if p.index == k and math.isinf(p.death)]
        d_inf, inf_pairs = _infinite_class_distance(a_inf, b_inf)
        if math.isinf(d_inf):
            return BottleneckResult(math.inf, ())
        d_fin, fin_pairs = _finite_class_distance(a_fin, b_fin)
        distance = max(distance, d_fin, d_inf)
        pairs.extend(fin_pairs)
        pairs.extend(inf_pairs)
    return BottleneckResult(distance, tuple(pairs))
