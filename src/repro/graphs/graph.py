"""Immutable CSR graph representation used throughout the repository.

Vertices are integers ``0..n-1`` (the paper assumes unique integer IDs from
``[n]``).  Edges are undirected and stored twice (once per direction) in
compressed-sparse-row form; every directed copy carries the index of its
undirected edge so algorithms can refer to edges canonically.

Design notes
------------
* All hot paths (sketch construction, partition grouping, flooding) iterate
  NumPy arrays, so the representation is arrays-first: ``indptr``,
  ``indices``, ``edge_ids``, ``weights`` — no per-vertex Python objects.
* Instances are immutable; "removing" edges for verification problems
  (Theorem 4) is done with boolean edge masks via :meth:`subgraph`, which
  avoids copying when possible (views per the HPC guide).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.validation import check_index

__all__ = ["Graph"]


@dataclass(frozen=True)
class Graph:
    """An undirected graph in CSR form.

    Attributes
    ----------
    n:
        Number of vertices.
    indptr:
        ``int64[n+1]``; neighbors of ``v`` live at ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int64[2m]``; concatenated adjacency lists.
    edge_ids:
        ``int64[2m]``; undirected edge index (in ``[0, m)``) for each
        directed copy.
    edges_u, edges_v:
        ``int64[m]``; canonical endpoints of each undirected edge with
        ``edges_u < edges_v``.
    weights:
        ``float64[m]``; undirected edge weights (all 1.0 if unweighted).
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray
    edges_u: np.ndarray
    edges_v: np.ndarray
    weights: np.ndarray
    _weighted: bool = field(default=False)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_edges(
        n: int,
        edges_u: np.ndarray,
        edges_v: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from endpoint arrays (deduplicated, canonicalized).

        Self-loops are rejected; parallel edges are merged (keeping the
        minimum weight, which is the only weight an MST can use).
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        u = np.asarray(edges_u, dtype=np.int64)
        v = np.asarray(edges_v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("edges_u and edges_v must be 1-D arrays of equal length")
        if u.size:
            if int(u.min(initial=0)) < 0 or int(v.min(initial=0)) < 0:
                raise ValueError("vertex ids must be non-negative")
            if int(u.max(initial=0)) >= n or int(v.max(initial=0)) >= n:
                raise ValueError("vertex ids must be < n")
            if np.any(u == v):
                raise ValueError("self-loops are not allowed")
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != u.shape:
                raise ValueError("weights must match edges in length")

        # Canonicalize so u < v, then dedup keeping minimum weight.
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        if lo.size:
            key = lo * np.int64(n) + hi
            # Ties broken by weight, min first; unweighted duplicates are
            # interchangeable, so a stable sort on the key alone suffices.
            order = np.argsort(key, kind="stable") if w is None else np.lexsort((w, key))
            key_sorted = key[order]
            keep = np.empty(key_sorted.size, dtype=bool)
            keep[0] = True
            np.not_equal(key_sorted[1:], key_sorted[:-1], out=keep[1:])
            # Distinct keys ascend, and key = lo * n + hi with hi < n, so
            # the kept edges are already in (lo, hi) order.
            sel = order[keep]
            lo, hi = lo[sel], hi[sel]
            if w is not None:
                w = w[sel]
        return Graph.from_canonical(n, lo, hi, w)

    @staticmethod
    def from_canonical(
        n: int,
        edges_u: np.ndarray,
        edges_v: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from *canonical* edge arrays, unchecked.

        Canonical means what :meth:`from_edges` produces: ``edges_u <
        edges_v``, sorted by ``(u, v)``, no duplicates.  Only the CSR index
        arrays are computed; the edge and weight arrays are kept as given
        (the corpus passes memory-mapped ones), so the O(m) payload is not
        copied.  ``weights=None`` means unweighted (all 1.0).
        """
        m = int(edges_u.size)
        # Sort the 2m directed copies by source vertex; the cumulative
        # degree array then delimits each adjacency list.
        deg = np.bincount(edges_u, minlength=n) + np.bincount(edges_v, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        ids = np.arange(m, dtype=np.int64)
        src = np.concatenate([edges_u, edges_v])
        dst = np.concatenate([edges_v, edges_u])
        deid = np.concatenate([ids, ids])
        order = np.argsort(src, kind="stable")
        return Graph(
            n=int(n),
            indptr=indptr,
            indices=dst[order],
            edge_ids=deid[order],
            edges_u=edges_u,
            edges_v=edges_v,
            weights=np.ones(m, dtype=np.float64) if weights is None else weights,
            _weighted=weights is not None,
        )

    # -- basic properties --------------------------------------------------

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.edges_u.size)

    @property
    def weighted(self) -> bool:
        """True if the graph was built with explicit weights."""
        return self._weighted

    def degree(self, v: int | None = None) -> np.ndarray | int:
        """Degree of ``v``, or the full degree array if ``v`` is None."""
        if v is None:
            return np.diff(self.indptr)
        check_index("v", v, self.n)
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the neighbor array of ``v``."""
        check_index("v", v, self.n)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def incident_edge_ids(self, v: int) -> np.ndarray:
        """Undirected edge ids incident to ``v`` (view)."""
        check_index("v", v, self.n)
        return self.edge_ids[self.indptr[v] : self.indptr[v + 1]]

    def find_edge_id(self, u: int, v: int) -> int:
        """Undirected edge id of ``{u, v}``; raises ``KeyError`` if absent."""
        check_index("u", u, self.n)
        check_index("v", v, self.n)
        nbrs = self.neighbors(u)
        hits = np.nonzero(nbrs == v)[0]
        if hits.size == 0:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        return int(self.incident_edge_ids(u)[hits[0]])

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, edge_mask: np.ndarray) -> "Graph":
        """Graph on the same vertex set keeping edges where ``edge_mask``.

        Used by the verification problems (Theorem 4): e.g. *cut
        verification* removes the cut edges and re-runs connectivity.
        """
        mask = np.asarray(edge_mask, dtype=bool)
        if mask.shape != (self.m,):
            raise ValueError(f"edge_mask must have shape ({self.m},), got {mask.shape}")
        return Graph.from_edges(
            self.n,
            self.edges_u[mask],
            self.edges_v[mask],
            self.weights[mask] if self._weighted else None,
        )

    def without_edge(self, eid: int) -> "Graph":
        """Graph with undirected edge ``eid`` removed."""
        check_index("eid", eid, self.m)
        mask = np.ones(self.m, dtype=bool)
        mask[eid] = False
        return self.subgraph(mask)

    def with_weights(self, weights: np.ndarray) -> "Graph":
        """Same topology with new edge weights."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.m,):
            raise ValueError(f"weights must have shape ({self.m},), got {w.shape}")
        return Graph(
            n=self.n,
            indptr=self.indptr,
            indices=self.indices,
            edge_ids=self.edge_ids,
            edges_u=self.edges_u,
            edges_v=self.edges_v,
            weights=w,
            _weighted=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self._weighted else "unweighted"
        return f"Graph(n={self.n}, m={self.m}, {kind})"
