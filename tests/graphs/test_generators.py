"""Tests for repro.graphs.generators: structure and determinism of workloads."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.corpus.families import sized_graph
from repro.graphs import generators as gen
from repro.graphs import reference as ref


class TestDeterministicStructures:
    def test_path(self):
        g = gen.path_graph(10)
        assert g.m == 9
        assert ref.diameter(g) == 9

    def test_cycle(self):
        g = gen.cycle_graph(8)
        assert g.m == 8
        assert np.all(g.degree() == 2)

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            gen.cycle_graph(2)

    def test_star(self):
        g = gen.star_graph(9)
        assert g.m == 8
        assert g.degree(0) == 8

    def test_complete(self):
        g = gen.complete_graph(6)
        assert g.m == 15
        assert ref.diameter(g) == 1

    def test_grid(self):
        g = gen.grid2d(4, 5)
        assert g.n == 20
        assert g.m == 4 * 4 + 3 * 5
        assert ref.diameter(g) == 7

    def test_binary_tree(self):
        g = gen.binary_tree(15)
        assert g.m == 14
        assert not ref.has_cycle(g)

    def test_barbell(self):
        g = gen.barbell(5, 4)
        assert ref.is_connected(g)
        assert ref.diameter(g) >= 4


class TestRandomFamilies:
    def test_gnm_exact_m(self):
        g = gen.gnm_random(50, 200, seed=1)
        assert g.n == 50 and g.m == 200

    def test_gnm_deterministic(self):
        a = gen.gnm_random(40, 100, seed=5)
        b = gen.gnm_random(40, 100, seed=5)
        assert np.array_equal(a.edges_u, b.edges_u)
        assert np.array_equal(a.edges_v, b.edges_v)

    def test_gnm_seed_sensitivity(self):
        a = gen.gnm_random(40, 100, seed=5)
        b = gen.gnm_random(40, 100, seed=6)
        assert not (
            np.array_equal(a.edges_u, b.edges_u) and np.array_equal(a.edges_v, b.edges_v)
        )

    def test_gnm_rejects_overfull(self):
        with pytest.raises(ValueError):
            gen.gnm_random(5, 11, seed=0)

    def test_gnm_complete(self):
        g = gen.gnm_random(6, 15, seed=0)
        assert g.m == 15

    def test_gnp_bounds(self):
        g = gen.gnp_random(60, 0.1, seed=3)
        assert 0 <= g.m <= 60 * 59 // 2
        assert gen.gnp_random(20, 0.0, seed=1).m == 0

    def test_random_geometric_symmetry(self):
        g = gen.random_geometric(80, 0.25, seed=2)
        # Dense enough radius must produce some edges.
        assert g.m > 0

    def test_powerlaw_has_hubs(self):
        g = gen.powerlaw_preferential(300, 2, seed=4)
        deg = np.asarray(g.degree())
        assert deg.max() >= 5 * np.median(deg)

    def test_random_spanning_tree(self):
        g = gen.random_spanning_tree(50, seed=7)
        assert g.m == 49
        assert ref.is_connected(g)
        assert not ref.has_cycle(g)


class TestCompositeFamilies:
    def test_planted_components_exact(self):
        for c in (1, 3, 10):
            g = gen.planted_components(120, c, seed=9)
            assert ref.count_components(g) == c

    def test_disjoint_union_offsets(self):
        g = gen.disjoint_union([gen.path_graph(3), gen.path_graph(4)])
        assert g.n == 7 and g.m == 5
        assert ref.count_components(g) == 2

    def test_planted_cut_graph(self):
        g = gen.planted_cut_graph(120, cut_size=3, inner_degree=10, seed=5)
        assert ref.is_connected(g)
        cut = ref.stoer_wagner_mincut(g)
        assert cut == 3.0

    def test_diameter2(self):
        g = gen.diameter2_graph(60, seed=8)
        assert ref.is_connected(g)
        assert ref.diameter(g) <= 2


class TestLowerBoundGraph:
    def test_structure(self):
        b = 5
        x = np.zeros(b, dtype=np.int64)
        y = np.zeros(b, dtype=np.int64)
        g, h = gen.lower_bound_graph(x, y)
        assert g.n == 2 * b + 2
        assert g.m == 3 * b + 1
        assert h.all()  # all-zero inputs keep every edge in H

    def test_scs_iff_disjoint(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = 6
            x = (rng.random(b) < 0.4).astype(np.int64)
            y = (rng.random(b) < 0.4).astype(np.int64)
            g, h = gen.lower_bound_graph(x, y)
            disjoint = not np.any((x == 1) & (y == 1))
            assert ref.is_connected(g.subgraph(h)) == disjoint

    def test_constant_diameter(self):
        # Theorem 5 advertises "diameter 2"; the literal Figure-1 edge set
        # gives diameter 3 (u_i - s - t - v_j), still constant — the claim
        # the bound needs.  Recorded in EXPERIMENTS.md.
        x = np.ones(4, dtype=np.int64)
        y = np.ones(4, dtype=np.int64)
        g, _ = gen.lower_bound_graph(x, y)
        assert ref.diameter(g) <= 3

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            gen.lower_bound_graph(np.array([0, 2]), np.array([0, 0]))


class TestWeights:
    def test_random_weights_range(self):
        g = gen.with_random_weights(gen.gnm_random(30, 60, seed=1), seed=1, low=2.0, high=3.0)
        assert g.weighted
        assert g.weights.min() >= 2.0 and g.weights.max() < 3.0

    def test_unique_weights_distinct(self):
        g = gen.with_unique_weights(gen.gnm_random(30, 60, seed=1), seed=1)
        assert np.unique(g.weights).size == g.m


#: SHA-256 over the CSR arrays (name, dtype, bytes) of every sizeable
#: family built by ``sized_graph`` at each n, seed and weight setting below,
#: in that nesting order.  Graph bytes are corpus content addresses, so a
#: generator or ``Graph.from_edges`` speed-up must leave this unchanged.
SIZED_FAMILIES = (
    "barbell", "complete", "cycle", "diameter2", "disjoint_cliques",
    "expander_bridge", "geometric", "gnm", "gnp", "grid", "lollipop", "path",
    "planted_components", "planted_cut", "powerlaw", "random_tree", "star",
    "star_of_paths", "tree",
)  # fmt: skip
SIZED_FAMILY_CSR_SHA256 = "0df7a2161ea0246b65de1504452fcdac14ec7cf2b70f1f581daeb65ff2944be1"


def test_sized_family_graph_bytes_are_pinned():
    h = hashlib.sha256()
    for family in SIZED_FAMILIES:
        for n in (16, 64, 137, 500):
            for seed in (0, 3, 11):
                for weighted in (False, True):
                    g = sized_graph(family, n, seed, weighted=weighted)
                    for name in ("indptr", "indices", "edge_ids", "edges_u", "edges_v", "weights"):
                        a = np.ascontiguousarray(getattr(g, name))
                        h.update(name.encode())
                        h.update(str(a.dtype).encode())
                        h.update(a.tobytes())
    assert h.hexdigest() == SIZED_FAMILY_CSR_SHA256
