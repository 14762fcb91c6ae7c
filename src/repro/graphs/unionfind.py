"""Disjoint-set union (union-find) used by the sequential reference algorithms.

Array-backed with union by size and path halving — near-inverse-Ackermann
amortized cost, adequate for ground-truth computations on graphs with
millions of edges.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint-set forest over elements ``0..n-1``."""

    __slots__ = ("parent", "size", "n_components")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_components = n

    def find(self, x: int) -> int:
        """Representative of ``x``'s set (with path halving)."""
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = int(p[x])
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def labels(self) -> np.ndarray:
        """Canonical label (root id) per element, fully path-compressed."""
        p = self.parent
        # Iterative full compression: repeatedly jump until fixpoint.
        while True:
            pp = p[p]
            if np.array_equal(pp, p):
                break
            p = pp
        self.parent = p
        return p.copy()
