"""Tests for repro.graphs.graph: CSR invariants, dedup, subgraphs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph


def triangle() -> Graph:
    return Graph.from_edges(3, np.array([0, 1, 2]), np.array([1, 2, 0]))


class TestConstruction:
    def test_basic_counts(self):
        g = triangle()
        assert g.n == 3 and g.m == 3
        assert np.array_equal(g.degree(), [2, 2, 2])

    def test_canonical_endpoints_sorted(self):
        g = Graph.from_edges(4, np.array([3, 2]), np.array([1, 0]))
        assert np.all(g.edges_u < g.edges_v)
        # Edge order is deterministic: sorted by (u, v).
        assert np.array_equal(g.edges_u, [0, 1])
        assert np.array_equal(g.edges_v, [2, 3])

    def test_parallel_edges_merged_min_weight(self):
        g = Graph.from_edges(
            2, np.array([0, 1, 0]), np.array([1, 0, 1]), np.array([5.0, 2.0, 9.0])
        )
        assert g.m == 1
        assert g.weights[0] == 2.0

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loops"):
            Graph.from_edges(2, np.array([1]), np.array([1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, np.array([0]), np.array([2]))
        with pytest.raises(ValueError):
            Graph.from_edges(2, np.array([-1]), np.array([0]))

    def test_empty_graph(self):
        g = Graph.from_edges(5, np.empty(0, np.int64), np.empty(0, np.int64))
        assert g.n == 5 and g.m == 0
        assert g.degree(3) == 0

    def test_unweighted_defaults_to_ones(self):
        g = triangle()
        assert not g.weighted
        assert np.all(g.weights == 1.0)


class TestCSRInvariants:
    def test_indptr_monotone_and_total(self):
        g = triangle()
        assert np.all(np.diff(g.indptr) >= 0)
        assert g.indptr[-1] == 2 * g.m

    def test_neighbor_symmetry(self):
        g = Graph.from_edges(5, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 4]))
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u in g.neighbors(int(v))

    def test_edge_ids_consistent(self):
        g = triangle()
        for v in range(g.n):
            for nbr, eid in zip(g.neighbors(v), g.incident_edge_ids(v)):
                assert {int(g.edges_u[eid]), int(g.edges_v[eid])} == {v, int(nbr)}


class TestQueries:
    def test_find_edge_id_roundtrip(self):
        g = triangle()
        eid = g.find_edge_id(2, 0)
        assert (g.edges_u[eid], g.edges_v[eid]) == (0, 2)

    def test_find_edge_id_symmetric_and_no_self_loops(self):
        g = triangle()
        assert g.find_edge_id(0, 1) == g.find_edge_id(1, 0)
        with pytest.raises(KeyError):
            g.find_edge_id(0, 0)

    def test_edge_arrays_list_each_edge_once(self):
        g = triangle()
        edges = list(zip(g.edges_u.tolist(), g.edges_v.tolist(), g.weights.tolist()))
        assert edges == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]

    def test_find_edge_id_missing(self):
        g = Graph.from_edges(4, np.array([0]), np.array([1]))
        with pytest.raises(KeyError):
            g.find_edge_id(2, 3)


class TestDerived:
    def test_subgraph_keeps_masked(self):
        g = triangle()
        mask = np.array([True, False, True])
        sub = g.subgraph(mask)
        assert sub.m == 2 and sub.n == 3

    def test_subgraph_wrong_shape(self):
        with pytest.raises(ValueError):
            triangle().subgraph(np.array([True]))

    def test_without_edge(self):
        g = triangle()
        eid = g.find_edge_id(0, 1)
        sub = g.without_edge(eid)
        assert sub.m == 2
        with pytest.raises(KeyError):
            sub.find_edge_id(0, 1)

    def test_with_weights(self):
        g = triangle()
        w = np.array([3.0, 1.0, 2.0])
        gw = g.with_weights(w)
        assert gw.weighted
        assert np.array_equal(gw.weights, w)
        assert gw.m == g.m


@given(
    n=st.integers(min_value=2, max_value=30),
    edges=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)), min_size=0, max_size=120
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_csr_consistency(n, edges):
    """CSR structure matches the deduplicated edge list for arbitrary inputs."""
    pairs = [(u % n, v % n) for u, v in edges if (u % n) != (v % n)]
    us = np.array([p[0] for p in pairs], dtype=np.int64)
    vs = np.array([p[1] for p in pairs], dtype=np.int64)
    g = Graph.from_edges(n, us, vs)
    want = {(min(u, v), max(u, v)) for u, v in pairs}
    got = set(zip(g.edges_u.tolist(), g.edges_v.tolist()))
    assert got == want
    # Degrees count incident undirected edges.
    deg = np.zeros(n, dtype=np.int64)
    for u, v in want:
        deg[u] += 1
        deg[v] += 1
    assert np.array_equal(g.degree(), deg)
