"""Exact bottleneck distance between decorated persistence diagrams.

Points match only within their index class; unmatched points pay the
l-infinity cost of reaching the diagonal, and the diagonal slot absorbing a
point inherits its class. Infinite points pair off sorted by birth and any
count mismatch makes the class, and the whole distance, infinite. The
overall distance is the maximum over classes.

Per class, the finite points A and B take one of four routes:

- At most one point a side: a closed form in plain Python. With d the
  l-infinity distance and h_a, h_b the half-persistences (the cost of
  reaching the diagonal), the distance is min(d, max(h_a, h_b)), by the
  pair (a, b) when d <= max(h_a, h_b) and by both points going to the
  diagonal otherwise. A lone point costs its own h.
- len(A) * len(B) at most _DENSE_ENTRIES (2**16): the dense route,
  `_Dense`. D is computed once and held whole.
- Otherwise, when some points differ in birth, the windowed route,
  `_Class`: D is read in windows and never held whole. Both sides are
  sorted by death. An entry D_ij <= r needs |death_i - death_j| <= r, so a
  block of rows meets such entries only in one window of the other side's
  deaths. `_Class.edges(r)` reads D in blocks of _BLOCK rows within those
  windows and keeps the entries at most r, so memory is linear in points
  plus those entries.
- Otherwise every point has one birth, and the line route, `_Line`, tests
  a radius by two greedy passes over the sorted deaths; see `_Line`. The
  large classes of the pipeline's diagrams take it: all their points are
  born at 0.0.
- The radius. The optimum is the smallest feasible candidate radius: an
  entry of D or a half-persistence. No radius below the largest cheapest
  way out of a single point (its nearest partner or the diagonal) is
  feasible, and that bound is itself a candidate, probed first. The dense
  route reads it off D's row and column minima. On the other two each
  point's cost to its nearest partners in death bounds its way out; on the
  line route it is the way out, and on the windowed route one pass of row
  and column minima over the windows at the largest such bound gives it.
- Every route climbs from there by Hall-violator jumps (the threshold idea
  of Gabow & Tarjan, J. Algorithms 9, 1988). A one-sided check that fails
  ends on a maximum matching, and alternating paths from its free far
  points reach a set Z_L of far points and the set Z_R of all their
  neighbours, with k = |Z_L| - |Z_R| > 0 (König). As the radius grows, a
  point of Z_L turns near at its half-persistence, and a point outside Z_R
  becomes a neighbour at its smallest entry of D from Z_L. Hall's
  condition fails until k of these values are reached, so the k-th
  smallest is a candidate above the radius probed and at most the
  optimum, and is probed next. The dense route takes the smallest value
  of the Z_L of all its free far points. The windowed route takes the
  largest bound of each free point's own Z_L that meets no other and of
  all of them together; the line route reads one Z_L off its greedy pass.
  The first feasible probe is the optimum; no candidate is listed.
- Feasibility at a radius, without diagonal slots. A perfect matching of A
  plus one diagonal slot per B point against B plus one slot per A point
  exists iff some matching in the graph {D <= eps} covers every far point
  (half-persistence > eps) of both sides, since the free slot-to-slot pairs
  absorb the rest. By Mendelsohn-Dulmage that splits into two one-sided
  checks: A's far points match into B, and B's far points match into A.
  The dense and the windowed route run each check as a Hopcroft-Karp run
  whose breadth-first passes stop at the first layer that reaches a free
  node, which finds a matching as large in fewer steps. The dense route's
  rows are ints, bit j for column j (`_bit_hopcroft_karp`); the windowed
  route's are lists, as an int a row would cost bits quadratic in its class.
- The reported matching, in `bottleneck_matching` only. At the optimum the
  graph with diagonal slots is built once, rows in the order A's points then
  B's slots and each row's columns ascending, and one Hopcroft-Karp run on it
  fixes which pairs are reported and in what order; this run keeps every
  breadth-first layer, as the oracle's does. The near B points and the
  slots are each one int or sequence that every slot row shares, so no slot
  row is copied, and on the dense route the slot rows' greedy pass is one
  step; a windowed or line class's rows also share one int object per B
  point. A matched pair's cost is read off D's entries as `_linf` rounds
  them. `bottleneck_distance` stops at the radius.
- Where death - birth overflows, a half-persistence is death / 2.0 -
  birth / 2.0, so finite diagrams keep a finite distance.

A PersistencePoint is the tuple (birth, death, index); the loops over
points read its fields by position.

References: Efrat, Itai & Katz, Algorithmica 31 (2001); Kerber, Morozov &
Nigmetov, "Geometry Helps to Compare Persistence Diagrams", JEA 22 (2017).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Sequence
from functools import partial, reduce
from itertools import chain, islice, repeat
from operator import or_
from typing import NamedTuple

import numpy as np

from .homology import TopologicalIndex
from .persistence import PersistenceDiagram, PersistencePoint

_DENSE_ENTRIES = 2**16  # the largest class, as len(A) * len(B), that holds its dense D
_BLOCK = 256  # rows of D read at a time


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


def _hopcroft_karp(
    adj: list[tuple[Sequence[int], ...]],
    n_right: int,
    shared: tuple[Sequence[int], ...] = (),
    all_layers: bool = True,
) -> list[int]:
    """Maximum matching; adj[u] holds left node u's right neighbours in scan order.

    A row is a tuple of sequences, and rows may share the sequence objects
    listed in shared. Returns match_left: the right partner of each left
    node, -1 if unmatched.

    The result is the textbook traversal's: breadth-first layers from the
    free left nodes, then from each free left node in turn a depth-first
    search that takes the first free neighbour or enters the first neighbour
    whose partner lies one layer deeper, and marks a node that runs out of
    neighbours dead for the phase. Three things only skip work that has no
    effect:

    - The first phase is one greedy pass: each left node in turn takes the
      first free right node of its row. Every left
      node is at layer 0 in that phase and so is every partner, so the
      depth-first search can only take a free neighbour, which is what the
      pass does. Free nodes only get fewer during the pass, so each shared
      sequence keeps one cursor at its first free position, which only
      moves forward.
    - A breadth-first pass goes one layer at a time: the layer's unread
      sequences, united, less the right nodes already reached, are the new
      right nodes, and their partners the next layer. The layers do not
      depend on the order of reading edges, so set operations read them.
    - The depth-first search reads a shared sequence through its
      `_Candidates`; their map of places is built only in a run that
      augments.

    With all_layers off, a breadth-first pass stops after the first layer
    that reaches a free right node and saves the deeper ones: the matching
    is as large, but which one it is may differ.
    """
    inf = math.inf
    n_left = len(adj)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    shared_by_id = {id(seq): seq for seq in shared}
    # the first phase: each left node takes the first free node of its row
    cursor = dict.fromkeys(shared_by_id, 0)  # shared sequence -> its first position that may be free
    for u, row in enumerate(adj):
        for seq in row:
            pos = cursor.get(id(seq))
            if pos is None:
                for v in seq:
                    if match_right[v] == -1:
                        break
                else:
                    continue
            else:
                n = len(seq)
                while pos < n and match_right[seq[pos]] != -1:
                    pos += 1
                cursor[id(seq)] = pos
                if pos == n:
                    continue
                v = seq[pos]
            match_left[u] = v
            match_right[v] = u
            break
    members: dict[int, list[tuple[int, int]]] | None = None  # right node -> (shared sequence, position)

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

    while -1 in match_left:
        dist = [inf] * n_left
        layer = {u for u, v in enumerate(match_left) if v == -1}
        for u in layer:
            dist[u] = 0
        found = False
        scanned: set[int] = set()  # the ids of the sequences read
        reached: set[int] = set()  # the right nodes reached
        t = 0
        while layer and (all_layers or not found):
            seqs = {id(seq): seq for u in layer for seq in adj[u]}
            new: set[int] = set()
            for key in seqs.keys() - scanned:
                new.update(seqs[key])
            scanned.update(seqs)
            new -= reached
            reached |= new
            # a right node first reached now has a partner not yet layered
            layer = set(map(match_right.__getitem__, new))
            found = found or -1 in layer
            layer.discard(-1)
            t += 1
            for w in layer:
                dist[w] = t
        if not found:
            return match_left
        if members is None:
            members = {}
            for key, seq in shared_by_id.items():
                for pos, v in enumerate(seq):
                    members.setdefault(v, []).append((key, pos))
        candidates = {key: _Candidates(seq, match_right, dist) for key, seq in shared_by_id.items()}
        for u in range(n_left):
            if match_left[u] == -1:
                augment(u)
    return match_left


def _half(birth: float, death: float) -> float:
    """(death - birth) / 2.0, or death / 2.0 - birth / 2.0 where the span overflows.

    Halving first everywhere would round subnormal points differently.
    """
    h = (death - birth) / 2.0
    return death / 2.0 - birth / 2.0 if h == math.inf else h


def _halves(birth: np.ndarray, death: np.ndarray) -> np.ndarray:
    """`_half` of every point."""
    with np.errstate(over="ignore"):
        h = (death - birth) / 2.0
    over = h == math.inf
    if over.any():
        h[over] = death[over] / 2.0 - birth[over] / 2.0
    return h


def _coords(points: list[PersistencePoint]) -> tuple[np.ndarray, np.ndarray]:
    """The points' births and deaths as two arrays."""
    return np.array([p[0] for p in points], dtype=float), np.array([p[1] for p in points], dtype=float)


def _closed_form(A: list[PersistencePoint], B: list[PersistencePoint]) -> tuple[float, list[MatchPair]]:
    """A class with at most one finite point a side."""
    if not A and not B:
        return 0.0, []
    if not B or not A:
        (p,) = A or B
        h = _half(p[0], p[1])
        return h, [MatchPair(p, None, h) if A else MatchPair(None, p, h)]
    (a,), (b,) = A, B
    d = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
    h_a, h_b = _half(a[0], a[1]), _half(b[0], b[1])
    if d <= max(h_a, h_b):
        return d, [MatchPair(a, b, d)]
    return max(h_a, h_b), [MatchPair(a, None, h_a), MatchPair(None, b, h_b)]


def _linf(birth_a, death_a, birth_b, death_b) -> np.ndarray:
    """D between the points a and the points b, one row per a: the l-infinity distance.

    An entry that overflows to inf is above every half-persistence, so it is never the radius.
    """
    with np.errstate(over="ignore"):
        D = np.subtract.outer(birth_a, birth_b)
        E = np.subtract.outer(death_a, death_b)
    np.abs(D, out=D)
    np.abs(E, out=E)
    return np.maximum(D, E, out=D)


def _nearest_death_cost(birth_x, death_x, birth_y, death_y) -> np.ndarray:
    """Per point of x, D to the points of y (sorted by death) nearest in death: at least its row minimum."""
    k = np.searchsorted(death_y, death_x)
    cost = []
    with np.errstate(over="ignore"):
        for j in (np.maximum(k - 1, 0), np.minimum(k, len(death_y) - 1)):
            cost.append(np.maximum(np.abs(birth_x - birth_y[j]), np.abs(death_x - death_y[j])))
    return np.minimum(*cost)


class _Edges:
    """The entries of D at most some radius: row and column (A's and B's positions by death) and value.

    Rows ascend, and within a row the columns ascend.
    """

    def __init__(self, row: np.ndarray, col: np.ndarray, val: np.ndarray):
        self.row, self.col, self.val = row, col, val
        self._by_col: np.ndarray | None = None

    def kept(self, side: int, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Owner and other end of the kept entries, owners ascending: A's rows (side 0) or B's (1)."""
        if side == 0:
            return self.row[keep], self.col[keep]
        if self._by_col is None:
            self._by_col = np.argsort(self.col, kind="stable").astype(np.int32)
        kept = self._by_col[np.take(keep, self._by_col)]  # `take` reads an int32 index faster than []
        return self.col[kept], self.row[kept]


class _Class:
    """One class's finite points, with D read in windows.

    Both sides are held in death order. So in each one-sided check, the
    greedy first phase takes, per far point in death order, its free
    partner lowest in death; on a near pair of diagrams that leaves few far
    points free for the later phases.
    """

    def __init__(self, A: list[PersistencePoint], B: list[PersistencePoint]):
        (birth_a, death_a), (birth_b, death_b) = _coords(A), _coords(B)
        self.order_a = np.argsort(death_a, kind="stable")
        self.order_b = np.argsort(death_b, kind="stable")
        self.birth_a, self.death_a = birth_a[self.order_a], death_a[self.order_a]
        self.birth_b, self.death_b = birth_b[self.order_b], death_b[self.order_b]
        self.half_a = _halves(self.birth_a, self.death_a)
        self.half_b = _halves(self.birth_b, self.death_b)
        # far enough past every rounding in `death - r` that a window never
        # drops an entry of D at most r
        self.slack = max(np.abs(x).max() for x in (birth_a, death_a, birth_b, death_b)) * 2.0**-40
        self.E: _Edges | None = None  # the last probe's edges

    def _windows(self, side: int, low: np.ndarray, high: np.ndarray, r: float) -> tuple[list[int], list[int]]:
        """The slices of the other side that hold every entry of D at most r of rows with deaths in [low, high]."""
        other = (self.death_b, self.death_a)[side]
        with np.errstate(over="ignore"):  # a window past the largest float is unbounded
            reach = r * (1 + 2.0**-40) + self.slack
            lo, hi = np.searchsorted(other, low - reach, "left"), np.searchsorted(other, high + reach, "right")
        return lo.tolist(), hi.tolist()

    def edges(self, r: float, outs: tuple[np.ndarray, np.ndarray] | None = None) -> _Edges:
        """Every entry of D at most r, read in row blocks within death windows.

        Each block covers the columns within r in death of its rows. When
        outs is given, each row's and column's entry in it is lowered to the
        smallest entry of D read in that row or column, and no entry is kept.
        """
        starts = np.arange(0, len(self.death_a), _BLOCK)
        lasts = np.minimum(starts + _BLOCK, len(self.death_a)) - 1
        lo, hi = self._windows(0, self.death_a[starts], self.death_a[lasts], r)
        rows, cols, vals = [np.empty(0, np.int32)], [np.empty(0, np.int32)], [np.empty(0)]
        for s, l, h in zip(starts.tolist(), lo, hi):
            if l == h:
                continue
            block = slice(s, s + _BLOCK)
            D = _linf(self.birth_a[block], self.death_a[block], self.birth_b[l:h], self.death_b[l:h])
            if outs is not None:
                np.minimum(outs[0][block], D.min(axis=1), out=outs[0][block])
                np.minimum(outs[1][l:h], D.min(axis=0), out=outs[1][l:h])
                continue
            within = D <= r
            i, j = within.nonzero()
            rows.append((i + s).astype(np.int32))
            cols.append((j + l).astype(np.int32))
            vals.append(D[within])
        # one array at a time, so the pieces of only one are held twice
        row = np.concatenate(rows)
        del rows
        col = np.concatenate(cols)
        del cols
        return _Edges(row, col, np.concatenate(vals))

    def nearest(self) -> float:
        """The largest over points of the cheaper of the diagonal and its nearest partners in death."""
        out_a = _nearest_death_cost(self.birth_a, self.death_a, self.birth_b, self.death_b)
        out_b = _nearest_death_cost(self.birth_b, self.death_b, self.birth_a, self.death_a)
        return max(
            np.minimum(self.half_a, out_a).max(initial=0.0), np.minimum(self.half_b, out_b).max(initial=0.0)
        )

    def lower(self) -> float:
        """The largest cheapest way out of a single point: its nearest partner or the diagonal.

        Below it that point stays unmatched, and it is itself a candidate
        radius. Each point's cost to its nearest partners in death bounds its
        way out, so the windows at `nearest` hold every one.
        """
        out_a, out_b = self.half_a.copy(), self.half_b.copy()
        self.edges(self.nearest(), (out_a, out_b))
        return max(out_a.max(initial=0.0), out_b.max(initial=0.0))

    def probe(self, eps: float) -> float:
        """As `_Dense.probe`; the edges at eps are read once and kept for `rows`.

        From each free far point of a failed check's maximum matching, the
        alternating paths reach far points Z_L and all their neighbours Z_R.
        A search that meets no other gives a violator with k = 1, and all of
        them together one with k the number of free points. The largest of
        their `_bound`s is returned.
        """
        self.E = None  # the last probe's edges are freed before these are read
        self.E = E = self.edges(eps)
        bound = eps
        for side, half in enumerate((self.half_a, self.half_b)):
            far = half > eps
            owner, other = E.kept(side, np.take(far, (E.row, E.col)[side]))
            # only far points own kept entries, so their rows follow one another
            ends = np.bincount(owner, minlength=len(half))[far].cumsum().tolist()
            other = other.tolist()
            adj = [other[start:end] for start, end in zip([0, *ends], ends)]
            match_left = _hopcroft_karp(list(zip(adj)), len((self.half_b, self.half_a)[side]), all_layers=False)
            if -1 not in match_left:
                continue
            match_right = dict(zip(match_left, range(len(match_left))))
            roots, far = [u for u, v in enumerate(match_left) if v == -1], far.nonzero()[0]
            reached_by: dict[int, int] = {}  # each column reached -> the root whose search reached it first
            z_l, z_r = [], []
            for root in roots:
                l0, r0, alone = len(z_l), len(z_r), True
                z_l.append(root)
                for u in islice(z_l, l0, None):  # breadth first: z_l grows as it is read
                    for v in adj[u]:
                        if v not in reached_by:
                            reached_by[v] = root
                            z_r.append(v)
                            z_l.append(match_right[v])
                        else:
                            alone = alone and reached_by[v] == root
                if alone and len(roots) > 1:
                    bound = self._bound(side, far[z_l[l0:]], z_r[r0:], 1, bound)
            bound = self._bound(side, far[z_l], z_r, len(roots), bound)
        return bound

    def _bound(self, side: int, rows: np.ndarray, z_r: list[int], k: int, best: float) -> float:
        """max(best, b), b the bound of the side's rows, with neighbours z_r and k rows more than neighbours.

        b is the k-th smallest of the rows' half-persistences and, per column
        outside z_r, its smallest entry of D from the rows; only entries up
        to the k-th smallest half-persistence are read.
        """
        half = (self.half_a, self.half_b)[side][rows]
        h = np.partition(half, k - 1)[k - 1]
        if h <= best:
            return best
        birth, death = (self.birth_a, self.death_a) if side == 0 else (self.birth_b, self.death_b)
        birth_o, death_o = (self.birth_b, self.death_b) if side == 0 else (self.birth_a, self.death_a)
        cost = np.full(len(death_o), math.inf)  # per column, its smallest entry from the rows
        lo, hi = self._windows(side, death[rows], death[rows], h)
        with np.errstate(over="ignore"):
            for i, l, u in zip(rows.tolist(), lo, hi):
                D = np.maximum(np.abs(birth[i] - birth_o[l:u]), np.abs(death[i] - death_o[l:u]))
                np.minimum(cost[l:u], D, out=cost[l:u])
        cost[z_r] = math.inf
        values = np.concatenate((half, cost[cost < h]))
        return max(best, np.partition(values, k - 1)[k - 1])

    def costs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """D at the pairs (A[u], B[v]) of the index arrays u and v, as `_linf` rounds it."""
        i, j = np.argsort(self.order_a)[u], np.argsort(self.order_b)[v]
        with np.errstate(over="ignore"):
            return np.maximum(np.abs(self.birth_a[i] - self.birth_b[j]), np.abs(self.death_a[i] - self.death_b[j]))

    def rows(self, eps: float) -> tuple[list[list[int]], list[int], range, list[float], list[float]]:
        """`_slot_pairs`' parts of the graph at the radius eps; frees the edges.

        The rows of {D <= eps} in A's order, the near B points, the slots and both sides' half-persistences.
        """
        E = self.edges(eps) if self.E is None else self.E  # the last probe's, at eps, on the windowed route
        row, col = E.row, E.col
        self.E = E = None  # its values are freed before the rows are built
        # each row's columns as B's indices, ascending: one sort of the keys row * n + index,
        # in int32 where they fit, which halves the sort
        n = len(self.half_b)
        width = np.int32 if len(self.half_a) * n < 2**31 else np.int64
        key = np.take(self.order_b.astype(width), col)
        col = None
        key += row.astype(width, copy=False) * n
        key.sort()
        col = key % n
        key = None
        by_death = _row_lists(row, col, len(self.half_a), len(self.half_b))
        a_by_index, b_by_index = np.argsort(self.order_a), np.argsort(self.order_b)
        rows = [by_death[k] for k in a_by_index.tolist()]
        half_a, half_b = self.half_a[a_by_index].tolist(), self.half_b[b_by_index].tolist()
        near_b = [j for j, h in enumerate(half_b) if h <= eps]
        return rows, near_b, range(len(half_b), len(half_b) + len(half_a)), half_a, half_b


class _Line(_Class):
    """A windowed class whose points all share one birth, so that D_ij = |death_i - death_j|.

    Each point's partners in {D <= eps} are then a window of the other
    side's deaths, and the windows of the points in death order move up
    at both ends: the intervals all have the width 2 eps. So the greedy
    pass, each far point in death order taking the lowest unused partner in
    its window, finds a maximum matching (Glover, "Maximum matching in a
    convex bipartite graph", Naval Res. Logist. Q. 14, 1967). Neither the
    bound nor a probe reads D; `rows` reads it once, at the optimum.
    """

    def lower(self) -> float:
        """As `_Class.lower`: with one birth, a point's nearest partners in death are its nearest ones."""
        return self.nearest()

    def probe(self, eps: float) -> float:
        """As `_Class.probe`, by the greedy pass of each side; x - y is rounded as `_linf` rounds it.

        The far points in death order take runs of consecutive partners. Say
        the far points x_first, ..., x_last, from the one that opened a run
        other[s:] to the last in it that found no partner, took other[s:j]
        and f of them found none. Their windows lie in other[s:j]: other[s - 1]
        was too low for x_first, and other[j] is too high for x_last. So they
        outnumber their partners by f until f of the values below are
        reached, of their half-persistences, other[j:] - x_last and
        x_first - other[:s]: the f-th smallest is returned, for the first
        run that has such points.
        """
        sides = ((self.half_a, self.death_a, self.death_b), (self.half_b, self.death_b, self.death_a))
        for half, death, other in sides:
            far = half > eps
            half, death, partners = half[far], death[far], other.tolist()
            j, n, s, first, failed = 0, len(partners), 0, 0, 0
            for k, x in enumerate(death.tolist()):
                if j < n and x - partners[j] > eps:
                    if failed:
                        break
                    while j < n and x - partners[j] > eps:
                        j += 1
                    s, first = j, k  # a new run of partners starts at j
                if j < n and partners[j] - x <= eps:
                    j += 1
                else:
                    failed, last, end = failed + 1, k, j
            if failed:
                with np.errstate(over="ignore"):
                    above = other[end : end + failed] - death[last]
                    below = death[first] - other[max(s - failed, 0) : s]
                values = np.concatenate((half[first : last + 1], above, below))
                return np.partition(values, failed - 1)[failed - 1]
        return eps


def _row_lists(row: np.ndarray, col: np.ndarray, n_rows: int, n_cols: int) -> list[list[int]]:
    """Each row's columns as a list, from entries sorted by row.

    The rows share one int object per column: 8 bytes an entry, not a new int's 36.
    """
    ends = row.searchsorted(np.arange(1, n_rows + 1, dtype=row.dtype)).tolist()
    cols = np.arange(n_cols, dtype=object)[col].tolist()
    return [cols[start:end] for start, end in zip([0, *ends], ends)]


def _slot_pairs(
    A: list[PersistencePoint], B: list[PersistencePoint], c: _Dense | _Class, eps: float
) -> list[MatchPair]:
    """The reported pairs of the class c of A and B at its optimal radius eps."""
    rows, near_b, slots, half_a, half_b = c.rows(eps)
    na, nb = len(A), len(B)
    # the graph with diagonal slots: A's points then one slot per B point on
    # the left, B's points then one slot per A point on the right
    adj = [(row, slots) if h <= eps else (row,) for row, h in zip(rows, half_a)]
    adj.extend([(near_b, slots)] * nb)
    if isinstance(c, _Dense):  # the routine for the rows' form
        match_left, _ = _bit_hopcroft_karp(adj, na + nb, (near_b, slots))
    else:
        match_left = _hopcroft_karp(adj, na + nb, (near_b, slots))
    # A's points in order, each with its partner in B or the diagonal, then the B points slots absorb
    right = np.array(match_left[:na], dtype=np.intp)
    to_b = (right < nb).nonzero()[0]
    cost = np.array(half_a, dtype=float)
    cost[to_b] = c.costs(to_b, right[to_b])
    partner = B + [None] * na
    absorbed = [v for v in match_left[na:] if v < nb]
    pair = partial(tuple.__new__, MatchPair)
    return [
        *map(pair, zip(A, map(partner.__getitem__, match_left[:na]), cost.tolist())),
        *map(pair, zip(repeat(None), map(B.__getitem__, absorbed), map(half_b.__getitem__, absorbed))),
    ]


def _bits(x: int) -> list[int]:
    """The positions of x's set bits, ascending, in time linear in x's length."""
    data = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), np.uint8)
    return np.unpackbits(data, bitorder="little").nonzero()[0].tolist()


def _bit_rows(within: np.ndarray) -> list[int]:
    """Each row of the boolean matrix within as an int, bit j for column j."""
    packed = np.packbits(within, axis=1, bitorder="little")
    k, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[i * k : i * k + k], "little") for i in range(len(packed))]


def _bit_hopcroft_karp(
    adj: list[tuple[int, ...]], n_right: int, shared: tuple[int, ...] = (), all_layers: bool = True
) -> tuple[list[int], int]:
    """`_hopcroft_karp` on rows of ints, bit v for right node v, whose scan order is ascending.

    A row's ints cover ascending, disjoint ranges of right nodes, and rows
    may share the ints in shared. Each step is a few operations on whole ints:
    the greedy pass takes the lowest bit of part & free, or a shared int's
    lowest free bit from the list of its bits, and a run of consecutive rows
    that are one tuple takes the free bits of its parts in one step, as many
    as it has rows; a breadth-first layer ORs its distinct ints less the
    nodes reached; the depth-first search from layer t - 1 takes the lowest
    bit of part & (free | at[t]) above the last it took, where at[t] holds
    the right nodes whose partner is at layer t.

    Returns match_left and, when a left node stays free, the right nodes the
    last breadth-first pass reached as an int: those alternating-reachable
    from the free left nodes. It is 0 when every left node is matched.
    """
    n_left = len(adj)
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    free = (1 << n_right) - 1
    rest = {id(part): _bits(part)[::-1] for part in shared}  # a shared int's bits, lowest last
    u = 0
    while u < n_left:
        row, end = adj[u], u + 1
        while end < n_left and adj[end] is row:
            end += 1
        if end - u > 1:
            # rows that share one tuple take, in turn, the free bits of its first part ascending, then the next's
            for part in row:
                x = part & free
                if not x:
                    continue
                taken = _bits(x)[: end - u]
                free ^= x & ((2 << taken[-1]) - 1)  # the bits of x up to the last one taken
                match_left[u : u + len(taken)] = taken
                for w, v in enumerate(taken, u):
                    match_right[v] = w
                u += len(taken)
                if u == end:
                    break
            u = end
            continue
        for part in row:
            bits = rest.get(id(part)) if rest else None
            while bits and match_right[bits[-1]] != -1:
                bits.pop()
            if bits is None:
                x = part & free
                v = (x & -x).bit_length() - 1  # -1 when x is 0
            else:
                v = bits[-1] if bits else -1
            if v != -1:
                match_left[u], match_right[v] = v, u
                free ^= 1 << v
                break
        u += 1
    while -1 in match_left:
        roots = layer = [u for u, v in enumerate(match_left) if v == -1]
        dist = [0 if v == -1 else math.inf for v in match_left]
        found, reached, at = False, 0, [0]
        while layer and (all_layers or not found):
            parts = list(chain.from_iterable(map(adj.__getitem__, layer)))
            new = reduce(or_, dict(zip(map(id, parts), parts)).values(), 0) & ~reached
            reached |= new
            found = found or new & free != 0
            new &= ~free
            at.append(new)
            layer = [match_right[v] for v in _bits(new)]
            for w in layer:
                dist[w] = len(at) - 1
        if not found:
            return match_left, reached
        at.append(0)
        for root in roots:
            stack = [(root, 0, -1)]  # stack[k]: a node at layer k, its row's part read, the last bit taken
            while stack:
                u, i, last = stack[-1]
                row, t = adj[u], dist[u] + 1
                reach = (free | at[t]) & -(1 << (last + 1))
                while i < len(row) and not row[i] & reach:
                    i += 1
                if i == len(row):
                    dist[u] = math.inf
                    stack.pop()
                    if stack:
                        at[t - 1] ^= 1 << stack[-1][2]  # u's partner
                    continue
                x = row[i] & reach
                v = (x & -x).bit_length() - 1
                stack[-1] = (u, i, v)
                if match_right[v] != -1:
                    stack.append((match_right[v], 0, -1))
                    continue
                free ^= 1 << v
                for k, (x_k, _, v_k) in enumerate(stack):  # flip the path
                    match_left[x_k], match_right[v_k] = v_k, x_k
                    at[k] |= 1 << v_k
                    at[k + 1] &= ~(1 << v_k)
                break
    return match_left, 0


class _Dense:
    """One class's finite points, with D held whole; each probe starts from an empty matching."""

    def __init__(self, A: list[PersistencePoint], B: list[PersistencePoint]):
        birth, death = _coords(A + B)
        a, b = slice(len(A)), slice(len(A), None)
        self.D = _linf(birth[a], death[a], birth[b], death[b])
        half = _halves(birth, death)
        self.half_a, self.half_b = half[a], half[b]

    def lower(self) -> float:
        """The largest cheapest way out of a single point: its nearest partner or the diagonal."""
        return max(
            np.minimum(self.half_a, self.D.min(axis=1, initial=math.inf)).max(initial=0.0),
            np.minimum(self.half_b, self.D.min(axis=0, initial=math.inf)).max(initial=0.0),
        )

    def probe(self, eps: float) -> float:
        """eps when it is feasible; otherwise the next candidate radius that can be, at most the optimum.

        A side's check that fails ends on a maximum matching whose last
        breadth-first pass reached, from the free far rows, the far rows Z_L
        and the columns Z_R: every edge of Z_L ends in Z_R, and Z_R's
        columns are matched to Z_L's other rows, so |Z_R| < |Z_L| (König's
        Hall violator). Below b, the smallest of Z_L's half-persistences and
        its entries outside Z_R's columns, every row of Z_L stays far and
        gains no column outside Z_R, so Hall's condition fails at every
        radius in [eps, b). b is a candidate and exceeds eps, since Z_L's
        rows are far at eps and their entries outside Z_R are above it.
        """
        for D, half in ((self.D, self.half_a), (self.D.T, self.half_b)):
            far = half > eps
            D, half = D[far], half[far]
            match_left, reached = _bit_hopcroft_karp(list(zip(_bit_rows(D <= eps))), D.shape[1], all_layers=False)
            if -1 in match_left:
                in_z = np.zeros(D.shape[1] + 1, bool)  # Z_R, then True for a free row's partner -1
                in_z[_bits(reached)] = in_z[-1] = True
                z_l = in_z[match_left]
                return min(D[z_l][:, ~in_z[:-1]].min(initial=math.inf), half[z_l].min())
        return eps

    def costs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """D at the pairs (A[u], B[v]) of the index arrays u and v."""
        return self.D[u, v]

    def rows(self, eps: float) -> tuple[list[int], int, int, list[float], list[float]]:
        """As `_Class.rows`, with each row, the near B points and the slots an int, bit j for node j."""
        (near_b,) = _bit_rows((self.half_b <= eps)[None])
        slots = ((1 << len(self.half_a)) - 1) << len(self.half_b)
        return _bit_rows(self.D <= eps), near_b, slots, self.half_a.tolist(), self.half_b.tolist()


def _radius(c: _Dense | _Class) -> float:
    """The smallest feasible candidate radius: the lower bound, then each failed probe's jump."""
    r = c.lower()
    while (bound := c.probe(r)) != r:
        r = bound
    return float(r)


def _finite_class_distance(
    A: list[PersistencePoint], B: list[PersistencePoint], report: bool
) -> tuple[float, list[MatchPair]]:
    """The class's distance, and its reported pairs when report is set."""
    if len(A) <= 1 and len(B) <= 1:
        return _closed_form(A, B)
    if len(A) * len(B) <= _DENSE_ENTRIES:
        c = _Dense(A, B)
    else:
        c = (_Line if len({p[0] for p in chain(A, B)}) == 1 else _Class)(A, B)
    eps = _radius(c)
    return eps, _slot_pairs(A, B, c, eps) if report else []


def _infinite_class_distance(
    A: list[PersistencePoint], B: list[PersistencePoint]
) -> tuple[float, list[MatchPair]]:
    """Pair one class's immortal points in birth order, the order `_by_class` hands them over in."""
    if len(A) != len(B):
        return math.inf, []
    pairs = [MatchPair(a, b, abs(a[0] - b[0])) for a, b in zip(A, B)]
    dist = max((p.cost for p in pairs), default=0.0)
    return dist, pairs


def _by_class(D: PersistenceDiagram) -> dict[TopologicalIndex, tuple[list, list]]:
    """Each index class's finite and immortal points, in diagram order."""
    groups: dict[TopologicalIndex, tuple[list, list]] = {}
    for p in D.points:
        (groups.get(p[2]) or groups.setdefault(p[2], ([], [])))[math.isinf(p[1])].append(p)
    return groups


def _classwise(D1: PersistenceDiagram, D2: PersistenceDiagram, report: bool) -> BottleneckResult:
    groups1, groups2 = _by_class(D1), _by_class(D2)
    distance = 0.0
    pairs: list[MatchPair] = []
    for k in sorted(groups1.keys() | groups2.keys()):
        a_fin, a_inf = groups1.get(k, ([], []))
        b_fin, b_inf = groups2.get(k, ([], []))
        d_inf, inf_pairs = _infinite_class_distance(a_inf, b_inf)
        if math.isinf(d_inf):
            return BottleneckResult(math.inf, ())
        d_fin, fin_pairs = _finite_class_distance(a_fin, b_fin, report)
        distance = max(distance, d_fin, d_inf)
        pairs.extend(fin_pairs)
        pairs.extend(inf_pairs)
    return BottleneckResult(distance, tuple(pairs) if report else ())


def bottleneck_matching(D1: PersistenceDiagram, D2: PersistenceDiagram) -> BottleneckResult:
    """Distance plus one optimal matching realizing it."""
    return _classwise(D1, D2, report=True)


def bottleneck_distance(D1: PersistenceDiagram, D2: PersistenceDiagram) -> float:
    """max over index classes of the exact class-wise bottleneck distance."""
    return _classwise(D1, D2, report=False).distance
