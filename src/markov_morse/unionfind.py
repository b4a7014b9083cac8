"""Disjoint-set (union-find) with path compression and union by size."""

from __future__ import annotations


class DisjointSet:
    """Partition of the integers 0..n-1 into mergeable groups."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # compress
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the groups of a and b; returns False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def link(self, root: int, child: int) -> None:
        """Hang root `child` under root `root`: unlike union, the caller picks the survivor."""
        self.parent[child] = root
        self.size[root] += self.size[child]

    def groups(self) -> list[list[int]]:
        """Members of each group, each list ascending, groups by smallest member."""
        buckets: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            buckets.setdefault(self.find(x), []).append(x)
        return sorted(buckets.values(), key=lambda g: g[0])
