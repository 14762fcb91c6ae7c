"""Tests for repro.graphs.reference against brute force and networkx."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs import reference as ref
from repro.graphs.graph import Graph


def to_nx(g: Graph) -> nx.Graph:
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    for u, v, w in zip(g.edges_u.tolist(), g.edges_v.tolist(), g.weights.tolist()):
        gx.add_edge(u, v, weight=w)
    return gx


class TestConnectivity:
    def test_components_match_networkx(self):
        g = gen.planted_components(100, 4, seed=3)
        labels = ref.connected_components(g)
        for comp in nx.connected_components(to_nx(g)):
            comp = sorted(comp)
            assert np.unique(labels[comp]).size == 1
            assert labels[comp[0]] == comp[0]  # canonical = min id

    def test_count_components(self):
        assert ref.count_components(gen.planted_components(90, 6, seed=1)) == 6

    def test_st_connected(self):
        g = gen.disjoint_union([gen.path_graph(5), gen.path_graph(5)])
        assert ref.st_connected(g, 0, 4)
        assert not ref.st_connected(g, 0, 7)


class TestBFS:
    def test_distances_on_path(self):
        g = gen.path_graph(6)
        d = ref.bfs_distances(g, 0)
        assert np.array_equal(d, [0, 1, 2, 3, 4, 5])

    def test_unreachable(self):
        g = gen.disjoint_union([gen.path_graph(3), gen.path_graph(3)])
        d = ref.bfs_distances(g, 0)
        assert np.all(d[3:] == -1)

    def test_diameter_matches_networkx(self):
        g = gen.gnm_random(40, 120, seed=2)
        if ref.is_connected(g):
            assert ref.diameter(g) == nx.diameter(to_nx(g))

    def test_diameter_rejects_disconnected(self):
        g = gen.disjoint_union([gen.path_graph(2), gen.path_graph(2)])
        with pytest.raises(ValueError):
            ref.diameter(g)

    def test_gather_neighbors(self):
        g = gen.cycle_graph(6)
        nbrs = ref.gather_neighbors(g, np.array([0, 3]))
        assert sorted(nbrs.tolist()) == sorted([1, 5, 2, 4])


class TestCyclesAndBipartite:
    def test_tree_has_no_cycle(self):
        assert not ref.has_cycle(gen.binary_tree(20))

    def test_cycle_detected(self):
        assert ref.has_cycle(gen.cycle_graph(5))

    def test_even_cycle_bipartite(self):
        assert ref.is_bipartite(gen.cycle_graph(8))
        assert not ref.is_bipartite(gen.cycle_graph(9))

    def test_bipartite_matches_networkx(self):
        for seed in range(5):
            g = gen.gnm_random(30, 45, seed=seed)
            assert ref.is_bipartite(g) == nx.is_bipartite(to_nx(g))

    def test_edge_on_all_paths(self):
        g = gen.path_graph(5)
        eid = g.find_edge_id(2, 3)
        assert ref.edge_on_all_paths(g, eid, 0, 4)
        c = gen.cycle_graph(5)
        eid = c.find_edge_id(0, 1)
        assert not ref.edge_on_all_paths(c, eid, 0, 1)


class TestMST:
    def test_kruskal_matches_networkx(self):
        g = gen.with_unique_weights(gen.gnm_random(50, 180, seed=4), seed=4)
        ours = ref.mst_weight(g, ref.kruskal_mst(g))
        theirs = sum(d["weight"] for _, _, d in nx.minimum_spanning_edges(to_nx(g)))
        assert ours == pytest.approx(theirs)

    def test_prim_equals_kruskal(self):
        g = gen.with_unique_weights(gen.gnm_random(60, 200, seed=5), seed=5)
        assert np.array_equal(ref.kruskal_mst(g), ref.prim_mst(g))

    def test_forest_on_disconnected(self):
        g = gen.with_unique_weights(gen.planted_components(60, 3, seed=6), seed=6)
        msf = ref.kruskal_mst(g)
        assert msf.size == g.n - 3

    def test_mst_size(self):
        g = gen.with_unique_weights(gen.gnm_random(40, 120, seed=7), seed=7)
        assert ref.kruskal_mst(g).size == g.n - ref.count_components(g)


class TestMinCut:
    def test_stoer_wagner_matches_networkx(self):
        g = gen.gnm_random(25, 70, seed=8)
        if ref.is_connected(g):
            ours = ref.stoer_wagner_mincut(g)
            theirs, _ = nx.stoer_wagner(to_nx(g))
            assert ours == pytest.approx(theirs)

    def test_planted_cut_value(self):
        g = gen.planted_cut_graph(60, cut_size=2, inner_degree=8, seed=9)
        assert ref.stoer_wagner_mincut(g) == 2.0

    def test_rejects_single_vertex(self):
        g = Graph.from_edges(1, np.empty(0, np.int64), np.empty(0, np.int64))
        with pytest.raises(ValueError):
            ref.stoer_wagner_mincut(g)


@given(
    n=st.integers(min_value=2, max_value=25),
    m_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=40, deadline=None)
def test_property_components_match_networkx(n, m_frac, seed):
    m = int(m_frac * n * (n - 1) // 2)
    g = gen.gnm_random(n, m, seed=seed)
    assert ref.count_components(g) == nx.number_connected_components(to_nx(g))
