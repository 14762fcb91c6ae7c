"""Incremental edge-list accumulation for graph construction.

Generators and examples often produce edges one batch at a time;
:class:`GraphBuilder` collects them cheaply (amortized appends into Python
lists of NumPy chunks) and materializes an immutable :class:`~repro.graphs.graph.Graph`
at the end, with deduplication handled by ``Graph.from_edges``.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates undirected edges and builds a :class:`Graph`.

    Parameters
    ----------
    n:
        Number of vertices of the graph under construction.
    weighted:
        If True, every added edge must carry a weight.
    """

    def __init__(self, n: int, weighted: bool = False) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.weighted = weighted
        self._us: list[np.ndarray] = []
        self._vs: list[np.ndarray] = []
        self._ws: list[np.ndarray] = []

    def add_edges(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Add a batch of undirected edges."""
        u = np.asarray(us, dtype=np.int64)
        v = np.asarray(vs, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("us and vs must have equal shapes")
        if self.weighted:
            if weights is None:
                raise ValueError("builder is weighted; weights required")
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != u.shape:
                raise ValueError("weights must match edges in length")
            self._ws.append(w)
        elif weights is not None:
            raise ValueError("builder is unweighted; do not pass weights")
        self._us.append(u)
        self._vs.append(v)

    def add_path(self, vertices: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Add a path through ``vertices`` in order."""
        vs = np.asarray(vertices, dtype=np.int64)
        if vs.size >= 2:
            self.add_edges(vs[:-1], vs[1:], weights)

    def build(self) -> Graph:
        """Materialize the immutable graph (deduplicating parallel edges)."""
        if self._us:
            u = np.concatenate(self._us)
            v = np.concatenate(self._vs)
            w = np.concatenate(self._ws) if self.weighted else None
        else:
            u = np.empty(0, dtype=np.int64)
            v = np.empty(0, dtype=np.int64)
            w = np.empty(0, dtype=np.float64) if self.weighted else None
        return Graph.from_edges(self.n, u, v, w)
