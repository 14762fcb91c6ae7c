"""Workload generators for the experiments.

All generators are deterministic given a seed and return
:class:`~repro.graphs.graph.Graph` instances.  They cover the regimes the
paper's bounds stress:

* ``gnm_random`` / ``gnp_random`` — the generic sparse/dense inputs for
  Theorem 1/2 scaling sweeps.
* ``path_graph`` / ``grid2d`` / ``cycle_graph`` — high-diameter graphs on
  which flooding pays its Theta(D) term (Section 2 warm-up).
* ``star_graph`` — the adversarial input for the strict-output MST bound
  (Theorem 2b): one machine must learn the status of Omega(n) edges.
* ``powerlaw_preferential`` — skewed degrees (congestion stress, motivating
  the proxy technique).
* ``planted_components`` — graphs with a known number of connected
  components (connectivity ground truth, phase-count experiments).
* ``planted_cut_graph`` — two dense blobs joined by exactly ``c`` edges
  (min-cut approximation, Theorem 3).
* ``lower_bound_graph`` — the Figure-1 construction for the SCS lower
  bound (Theorem 5).
* ``diameter2_graph`` — diameter-2 instances; Theorem 5 holds even there.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.builder import GraphBuilder
from repro.graphs.graph import Graph
from repro.util.arrays import sorted_unique
from repro.util.rng import derive_seed

__all__ = [
    "barbell",
    "binary_tree",
    "complete_graph",
    "cycle_graph",
    "diameter2_graph",
    "disjoint_cliques",
    "disjoint_union",
    "expander_bridge",
    "gnm_random",
    "gnp_random",
    "grid2d",
    "lollipop",
    "lower_bound_graph",
    "path_graph",
    "planted_components",
    "planted_cut_graph",
    "powerlaw_preferential",
    "random_geometric",
    "random_spanning_tree",
    "star_graph",
    "star_of_paths",
    "with_random_weights",
    "with_unique_weights",
]


# --------------------------------------------------------------------------
# Deterministic structures
# --------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    """Path 0-1-2-...-(n-1); diameter n-1."""
    v = np.arange(n, dtype=np.int64)
    return Graph.from_edges(n, v[:-1], v[1:])


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    v = np.arange(n, dtype=np.int64)
    u = np.concatenate([v[:-1], [n - 1]])
    w = np.concatenate([v[1:], [0]])
    return Graph.from_edges(n, u, w)


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves (the Theorem 2b adversary)."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    leaves = np.arange(1, n, dtype=np.int64)
    return Graph.from_edges(n, np.zeros(n - 1, dtype=np.int64), leaves)


def complete_graph(n: int) -> Graph:
    """Complete graph K_n."""
    u, v = np.triu_indices(n, k=1)
    return Graph.from_edges(n, u.astype(np.int64), v.astype(np.int64))


def grid2d(rows: int, cols: int) -> Graph:
    """rows x cols grid; diameter rows + cols - 2."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows, cols >= 1")
    n = rows * cols
    idx = np.arange(n, dtype=np.int64).reshape(rows, cols)
    right_u = idx[:, :-1].ravel()
    right_v = idx[:, 1:].ravel()
    down_u = idx[:-1, :].ravel()
    down_v = idx[1:, :].ravel()
    return Graph.from_edges(
        n, np.concatenate([right_u, down_u]), np.concatenate([right_v, down_v])
    )


def binary_tree(n: int) -> Graph:
    """Complete-ish binary tree on n vertices (heap indexing)."""
    if n < 1:
        raise ValueError(f"tree needs n >= 1, got {n}")
    child = np.arange(1, n, dtype=np.int64)
    parent = (child - 1) // 2
    return Graph.from_edges(n, parent, child)


def barbell(clique_size: int, path_len: int) -> Graph:
    """Two K_c cliques joined by a path of ``path_len`` edges."""
    if clique_size < 2:
        raise ValueError("clique_size must be >= 2")
    n = 2 * clique_size + max(0, path_len - 1)
    b = GraphBuilder(n)
    cu, cv = np.triu_indices(clique_size, k=1)
    b.add_edges(cu.astype(np.int64), cv.astype(np.int64))
    off = clique_size + max(0, path_len - 1)
    b.add_edges(cu.astype(np.int64) + off, cv.astype(np.int64) + off)
    # Path from vertex (clique_size - 1) to vertex off.
    chain = np.concatenate(
        [
            [clique_size - 1],
            np.arange(clique_size, clique_size + max(0, path_len - 1), dtype=np.int64),
            [off],
        ]
    )
    b.add_path(chain)
    return b.build()


def lollipop(clique_size: int, path_len: int) -> Graph:
    """K_c with a path of ``path_len`` edges dangling off vertex c-1.

    The classic worst case for random-walk and flooding diameter terms:
    a dense body whose information must cross a long thin tail.
    """
    if clique_size < 2:
        raise ValueError("clique_size must be >= 2")
    if path_len < 1:
        raise ValueError("path_len must be >= 1")
    n = clique_size + path_len
    b = GraphBuilder(n)
    cu, cv = np.triu_indices(clique_size, k=1)
    b.add_edges(cu.astype(np.int64), cv.astype(np.int64))
    chain = np.concatenate(
        [[clique_size - 1], np.arange(clique_size, n, dtype=np.int64)]
    )
    b.add_path(chain)
    return b.build()


def star_of_paths(n_arms: int, arm_len: int) -> Graph:
    """A hub (vertex 0) with ``n_arms`` paths of ``arm_len`` edges each.

    Combines the star adversary (one machine must learn Omega(n) edge
    statuses for strict MST output) with high diameter: flooding pays
    Theta(arm_len), and the hub's home machine is a congestion hot spot.
    """
    if n_arms < 1 or arm_len < 1:
        raise ValueError("need n_arms >= 1 and arm_len >= 1")
    n = 1 + n_arms * arm_len
    b = GraphBuilder(n)
    for arm in range(n_arms):
        start = 1 + arm * arm_len
        chain = np.concatenate(
            [[0], np.arange(start, start + arm_len, dtype=np.int64)]
        )
        b.add_path(chain)
    return b.build()


def disjoint_cliques(n_cliques: int, clique_size: int) -> Graph:
    """``n_cliques`` disjoint K_c blocks — maximal component count at high density.

    Every component is as far from tree-like as possible, stressing the
    multi-part sketching and the per-component proxy trees; the component
    count is known exactly (ground truth for differential tests).
    """
    if n_cliques < 1:
        raise ValueError("n_cliques must be >= 1")
    if clique_size < 2:
        raise ValueError("clique_size must be >= 2")
    return disjoint_union([complete_graph(clique_size) for _ in range(n_cliques)])


def expander_bridge(n: int, degree: int = 6, seed: int = 0) -> Graph:
    """Two random expanders joined by a single bridge edge.

    Each half is a union of ``degree``/2 random Hamiltonian-ish cycles (a
    standard expander construction), so both halves have excellent
    conductance — but the global min cut is the one bridge edge, and any
    algorithm must notice it.  The worst case for sampling-based min-cut
    and for component-merging schedules (one merge is forced across a
    single edge while everything else finishes in a phase or two).
    """
    if n < 8:
        raise ValueError("n must be >= 8")
    half = n // 2
    rng = np.random.default_rng(derive_seed(seed, n, degree, 0xEB))
    layers = max(1, degree // 2)

    def half_graph(size: int) -> Graph:
        b = GraphBuilder(size)
        for _ in range(layers):
            perm = rng.permutation(size).astype(np.int64)
            b.add_edges(perm, np.roll(perm, -1))
        return b.build()

    left = half_graph(half)
    right = half_graph(n - half)
    b = GraphBuilder(n)
    b.add_edges(left.edges_u, left.edges_v)
    b.add_edges(right.edges_u + half, right.edges_v + half)
    b.add_edges(np.array([0], dtype=np.int64), np.array([half], dtype=np.int64))
    return b.build()


# --------------------------------------------------------------------------
# Random families
# --------------------------------------------------------------------------


def gnm_random(n: int, m: int, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, m): m distinct uniform edges (no self-loops).

    Oversamples and deduplicates; retries until m distinct edges are found
    (requires m <= n(n-1)/2).
    """
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"m={m} exceeds max {max_m} for n={n}")
    rng = np.random.default_rng(derive_seed(seed, n, m, 0xE5))
    keys: np.ndarray = np.empty(0, dtype=np.int64)
    need = m
    while need > 0:
        u = rng.integers(0, n, size=2 * need + 16, dtype=np.int64)
        v = rng.integers(0, n, size=2 * need + 16, dtype=np.int64)
        ok = u != v
        lo = np.minimum(u[ok], v[ok])
        hi = np.maximum(u[ok], v[ok])
        keys = sorted_unique(np.concatenate([keys, lo * np.int64(n) + hi]))
        need = m - keys.size
    if keys.size > m:
        keys = rng.permutation(keys)[:m]
    return Graph.from_edges(n, keys // n, keys % n)


def gnp_random(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p) via binomial edge count + gnm sampling."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0,1], got {p}")
    max_m = n * (n - 1) // 2
    rng = np.random.default_rng(derive_seed(seed, n, 0xB1))
    m = int(rng.binomial(max_m, p))
    return gnm_random(n, m, seed=derive_seed(seed, 1))


def random_geometric(n: int, radius: float, seed: int = 0) -> Graph:
    """Random geometric graph in the unit square (grid-bucketed O(n) expected)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(derive_seed(seed, n, 0x6E0))
    pts = rng.random((n, 2))
    cell = max(radius, 1e-9)
    gx = (pts[:, 0] / cell).astype(np.int64)
    gy = (pts[:, 1] / cell).astype(np.int64)
    ncells = int(np.ceil(1.0 / cell)) + 1
    cell_id = gx * ncells + gy
    order = np.argsort(cell_id, kind="stable")
    b = GraphBuilder(n)
    # Bucket by cell; compare points within each cell and neighbor cells.
    from collections import defaultdict

    buckets: dict[int, np.ndarray] = {}
    sorted_ids = cell_id[order]
    bounds = np.flatnonzero(np.diff(sorted_ids)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [n]])
    for s, e in zip(starts, ends):
        buckets[int(sorted_ids[s])] = order[s:e]
    r2 = radius * radius
    offsets = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    for cid, members in buckets.items():
        cx, cy = cid // ncells, cid % ncells
        for dx, dy in offsets:
            nid = (cx + dx) * ncells + (cy + dy)
            other = buckets.get(nid)
            if other is None or nid < cid:
                continue
            if nid == cid:
                a = members
                d2 = (
                    (pts[a, None, 0] - pts[None, a, 0]) ** 2
                    + (pts[a, None, 1] - pts[None, a, 1]) ** 2
                )
                iu, iv = np.nonzero(np.triu(d2 <= r2, k=1))
                if iu.size:
                    b.add_edges(a[iu], a[iv])
            else:
                a, c = members, other
                d2 = (
                    (pts[a, None, 0] - pts[None, c, 0]) ** 2
                    + (pts[a, None, 1] - pts[None, c, 1]) ** 2
                )
                iu, iv = np.nonzero(d2 <= r2)
                if iu.size:
                    b.add_edges(a[iu], c[iv])
    _ = defaultdict  # silence linters about unused import fallback
    return b.build()


def powerlaw_preferential(n: int, attach: int, seed: int = 0) -> Graph:
    """Preferential attachment (Barabasi-Albert style) with ``attach`` edges per new vertex.

    Implemented from scratch with the repeated-endpoint trick: sampling a
    uniform endpoint of an existing edge is proportional to degree.
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if n <= attach:
        raise ValueError("n must exceed attach")
    rng = np.random.default_rng(derive_seed(seed, n, attach, 0xBA))
    # Start from a star on attach+1 vertices to seed degrees.
    targets = list(range(attach))
    repeated: list[int] = list(range(attach))  # degree-proportional pool
    us: list[int] = []
    vs: list[int] = []
    for v in range(attach, n):
        chosen: set[int] = set()
        while len(chosen) < attach:
            if repeated and rng.random() < 0.9:
                cand = repeated[int(rng.integers(0, len(repeated)))]
            else:
                cand = int(rng.integers(0, v))
            if cand != v:
                chosen.add(cand)
        for t in chosen:
            us.append(v)
            vs.append(t)
            repeated.append(v)
            repeated.append(t)
    _ = targets
    return Graph.from_edges(n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64))


def random_spanning_tree(n: int, seed: int = 0) -> Graph:
    """Uniform-ish random tree: each vertex v >= 1 attaches to a random earlier vertex."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, n, 0x7EE))
    child = np.arange(1, n, dtype=np.int64)
    parent = (rng.random(n - 1) * child).astype(np.int64)
    return Graph.from_edges(n, parent, child)


def disjoint_union(graphs: list[Graph]) -> Graph:
    """Disjoint union with vertex renumbering by block offsets."""
    if not graphs:
        raise ValueError("need at least one graph")
    n_total = sum(g.n for g in graphs)
    b = GraphBuilder(n_total, weighted=any(g.weighted for g in graphs))
    off = 0
    for g in graphs:
        if g.m:
            if b.weighted:
                b.add_edges(g.edges_u + off, g.edges_v + off, g.weights)
            else:
                b.add_edges(g.edges_u + off, g.edges_v + off)
        off += g.n
    return b.build()


def planted_components(
    n: int, n_components: int, extra_edges_per_component: int = 2, seed: int = 0
) -> Graph:
    """Graph with exactly ``n_components`` connected components.

    Each component is a random tree plus a few extra random edges, so
    components are 'thick' enough to exercise multi-part sketching.
    """
    if n_components < 1 or n_components > n:
        raise ValueError("need 1 <= n_components <= n")
    sizes = np.full(n_components, n // n_components, dtype=np.int64)
    sizes[: n % n_components] += 1
    parts = []
    for i, s in enumerate(sizes):
        s = int(s)
        if s == 1:
            parts.append(Graph.from_edges(1, np.empty(0, np.int64), np.empty(0, np.int64)))
            continue
        t = random_spanning_tree(s, seed=derive_seed(seed, i, 0x17))
        extra = min(extra_edges_per_component, s * (s - 1) // 2 - (s - 1))
        if extra > 0:
            g = gnm_random(s, extra, seed=derive_seed(seed, i, 0x18))
            merged = GraphBuilder(s)
            merged.add_edges(t.edges_u, t.edges_v)
            if g.m:
                merged.add_edges(g.edges_u, g.edges_v)
            parts.append(merged.build())
        else:
            parts.append(t)
    return disjoint_union(parts)


def planted_cut_graph(
    n: int, cut_size: int, inner_degree: int = 8, seed: int = 0
) -> Graph:
    """Two equal random blobs joined by exactly ``cut_size`` edges.

    The planted cut is the *minimum* cut: every vertex is given internal
    degree at least ``cut_size + 2`` (and ``inner_degree`` on average), so
    no degree cut can undercut the planted one as long as
    ``inner_degree >= cut_size + 2`` and the blobs are large.  Used by the
    Theorem-3 experiments.
    """
    half = n // 2
    if half < cut_size + 4:
        raise ValueError("n too small for the requested cut size")

    def blob(size: int, tag: int) -> Graph:
        m_blob = min(size * inner_degree // 2, size * (size - 1) // 2)
        g = gnm_random(size, m_blob, seed=derive_seed(seed, tag, 0xA))
        t = random_spanning_tree(size, seed=derive_seed(seed, tag, 0xC))
        b = GraphBuilder(size)
        b.add_edges(g.edges_u, g.edges_v)
        b.add_edges(t.edges_u, t.edges_v)
        merged = b.build()
        # Enforce min internal degree > cut_size: pad low-degree vertices.
        rng = np.random.default_rng(derive_seed(seed, tag, 0xF))
        need = cut_size + 2
        deg = np.asarray(merged.degree()).copy()
        extra_u: list[int] = []
        extra_v: list[int] = []
        for v in np.nonzero(deg < need)[0]:
            while deg[v] < need:
                w = int(rng.integers(0, size))
                if w != v:
                    extra_u.append(int(v))
                    extra_v.append(w)
                    deg[v] += 1
                    deg[w] += 1
        if extra_u:
            b2 = GraphBuilder(size)
            b2.add_edges(merged.edges_u, merged.edges_v)
            b2.add_edges(np.array(extra_u, dtype=np.int64), np.array(extra_v, dtype=np.int64))
            merged = b2.build()
        return merged

    left = blob(half, 1)
    right = blob(n - half, 2)
    builder = GraphBuilder(n)
    builder.add_edges(left.edges_u, left.edges_v)
    builder.add_edges(right.edges_u + half, right.edges_v + half)
    rng = np.random.default_rng(derive_seed(seed, 0xE))
    seen: set[tuple[int, int]] = set()
    while len(seen) < cut_size:
        u = int(rng.integers(0, half))
        v = int(rng.integers(half, n))
        seen.add((u, v))
    cu = np.array([p[0] for p in seen], dtype=np.int64)
    cv = np.array([p[1] for p in seen], dtype=np.int64)
    builder.add_edges(cu, cv)
    return builder.build()


def diameter2_graph(n: int, seed: int = 0) -> Graph:
    """A connected diameter-2 graph: G(n, p) with p above the diameter-2 threshold.

    Theorem 5's lower bound holds even for diameter-2 graphs; this generator
    provides positive instances for sanity checks.
    """
    p = min(1.0, 2.2 * np.sqrt(np.log(max(n, 3)) / max(n, 3)))
    g = gnp_random(n, p, seed=seed)
    # Guarantee connectivity by overlaying a star at vertex 0 with a few hubs.
    b = GraphBuilder(n)
    if g.m:
        b.add_edges(g.edges_u, g.edges_v)
    hubs = np.arange(1, min(n, 4), dtype=np.int64)
    for h in hubs:
        others = np.setdiff1d(np.arange(n, dtype=np.int64), np.array([h]))
        b.add_edges(np.full(others.size, h, dtype=np.int64), others)
    return b.build()


def lower_bound_graph(
    x_bits: np.ndarray, y_bits: np.ndarray
) -> tuple[Graph, np.ndarray]:
    """The Figure-1 construction for the SCS lower bound (Theorem 5).

    Given disjointness inputs ``X, Y in {0,1}^b``, builds the graph ``G`` on
    ``n = 2b + 2`` vertices — special vertices ``s = 0``, ``t = 1``, plus
    ``u_i = 2 + i`` and ``v_i = 2 + b + i`` — with edges
    ``(s, t)``, ``(u_i, v_i)``, ``(s, u_i)``, ``(v_i, t)`` for all i.

    Returns ``(G, h_mask)`` where ``h_mask[eid]`` marks the edges of the
    subgraph ``H``: all ``(u_i, v_i)`` and ``(s, t)`` edges always, plus
    ``(s, u_i)`` iff ``X[i] = 0`` and ``(v_i, t)`` iff ``Y[i] = 0``.
    ``H`` is a spanning connected subgraph of ``G`` iff X and Y are disjoint.
    """
    x = np.asarray(x_bits, dtype=np.int64)
    y = np.asarray(y_bits, dtype=np.int64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x_bits and y_bits must be 1-D of equal length")
    if x.size and (x.min() < 0 or x.max() > 1 or y.min() < 0 or y.max() > 1):
        raise ValueError("bit vectors must be 0/1")
    b = x.size
    n = 2 * b + 2
    s, t = 0, 1
    u = 2 + np.arange(b, dtype=np.int64)
    v = 2 + b + np.arange(b, dtype=np.int64)
    eu = np.concatenate([[s], u, np.full(b, s, dtype=np.int64), v])
    ev = np.concatenate([[t], v, u, np.full(b, t, dtype=np.int64)])
    in_h = np.concatenate(
        [
            np.array([True]),  # (s, t)
            np.ones(b, dtype=bool),  # (u_i, v_i)
            x == 0,  # (s, u_i)
            y == 0,  # (v_i, t)
        ]
    )
    g = Graph.from_edges(n, eu, ev)
    # Map the construction order onto the graph's canonical edge order.
    key_built = np.minimum(eu, ev) * np.int64(n) + np.maximum(eu, ev)
    key_canon = g.edges_u * np.int64(n) + g.edges_v
    order = np.argsort(key_built)
    canon_order = np.argsort(key_canon)
    h_mask = np.empty(g.m, dtype=bool)
    h_mask[canon_order] = in_h[order]
    return g, h_mask


# --------------------------------------------------------------------------
# Weights
# --------------------------------------------------------------------------


def with_random_weights(g: Graph, seed: int = 0, low: float = 0.0, high: float = 1.0) -> Graph:
    """Attach i.i.d. uniform weights in ``[low, high)``."""
    rng = np.random.default_rng(derive_seed(seed, g.n, g.m, 0x3F))
    return g.with_weights(low + (high - low) * rng.random(g.m))


def with_unique_weights(g: Graph, seed: int = 0) -> Graph:
    """Attach distinct weights (a random permutation of 1..m).

    Unique weights make the MST unique, which lets tests compare the
    distributed MST edge set exactly against the Kruskal reference.
    """
    rng = np.random.default_rng(derive_seed(seed, g.n, g.m, 0x5A))
    return g.with_weights(rng.permutation(g.m).astype(np.float64) + 1.0)
