"""Integration tests for the Theorem-1 connectivity algorithm."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import KMachineCluster
from repro.core.connectivity import (
    connected_components_distributed,
    count_components_distributed,
)
from repro.graphs import generators as gen
from repro.graphs import reference as ref
from repro.runtime import SketchConfig


def run(g, k=8, seed=5, **kw):
    cl = KMachineCluster.create(g, k=k, seed=seed)
    return cl, connected_components_distributed(cl, seed=seed, **kw)


class TestCorrectness:
    @pytest.mark.parametrize(
        "g",
        [
            gen.gnm_random(200, 600, seed=1),
            gen.planted_components(180, 6, seed=2),
            gen.path_graph(150),
            gen.cycle_graph(100),
            gen.star_graph(120),
            gen.grid2d(12, 12),
            gen.powerlaw_preferential(150, 2, seed=3),
            gen.binary_tree(100),
        ],
        ids=["gnm", "planted", "path", "cycle", "star", "grid", "powerlaw", "tree"],
    )
    def test_labels_match_reference(self, g):
        _, res = run(g)
        assert res.converged
        assert np.array_equal(res.canonical(), ref.connected_components(g))

    def test_edgeless_graph(self):
        g = gen.disjoint_union([gen.path_graph(1) for _ in range(6)])
        _, res = run(g, k=4)
        assert res.converged
        assert res.n_components == 6
        assert res.phases == 1  # immediately detects no outgoing edges

    def test_two_vertices_one_edge(self):
        g = gen.path_graph(2)
        _, res = run(g, k=2)
        assert res.n_components == 1

    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    def test_various_k(self, k):
        g = gen.gnm_random(150, 500, seed=4)
        _, res = run(g, k=k)
        assert np.array_equal(res.canonical(), ref.connected_components(g))

    def test_polynomial_hash_family(self):
        g = gen.gnm_random(100, 300, seed=5)
        _, res = run(g, sketch=SketchConfig(hash_family="polynomial"))
        assert np.array_equal(res.canonical(), ref.connected_components(g))


class TestSpanningForest:
    def test_forest_edges_are_graph_edges(self, small_connected_graph):
        g = small_connected_graph
        _, res = run(g)
        for u, v in zip(res.forest_u, res.forest_v):
            g.find_edge_id(int(u), int(v))  # KeyError if not an edge

    def test_forest_size_and_acyclicity(self):
        g = gen.planted_components(160, 4, seed=6)
        _, res = run(g)
        # Spanning forest: exactly n - cc edges, and they form no cycle.
        assert res.forest_u.size == g.n - res.n_components
        from repro.graphs.unionfind import UnionFind

        uf = UnionFind(g.n)
        for u, v in zip(res.forest_u, res.forest_v):
            assert uf.union(int(u), int(v)), "cycle in spanning forest"

    def test_forest_spans_components(self):
        g = gen.gnm_random(120, 400, seed=7)
        _, res = run(g)
        from repro.graphs.graph import Graph

        f = Graph.from_edges(g.n, res.forest_u, res.forest_v)
        assert np.array_equal(ref.connected_components(f), ref.connected_components(g))

    def test_relaxed_output_owner_machines_valid(self, cluster8):
        res = connected_components_distributed(cluster8, seed=1)
        assert res.forest_machine.min(initial=0) >= 0
        assert res.forest_machine.max(initial=0) < cluster8.k


class TestComplexityShape:
    def test_phase_count_lemma7(self):
        # Lemma 7: at most 12 log2 n phases (we expect far fewer).
        for seed in range(5):
            g = gen.gnm_random(256, 1024, seed=seed)
            _, res = run(g, seed=seed)
            assert res.phases <= 12 * math.log2(256)
            assert res.phases <= 2 * math.log2(256)  # typical: ~log2 n

    def test_rounds_decrease_with_k(self):
        g = gen.gnm_random(2048, 8192, seed=8)
        rounds = []
        for k in (2, 4, 8):
            _, res = run(g, k=k, seed=8)
            rounds.append(res.rounds)
        assert rounds[0] > rounds[1] > rounds[2]
        # Superlinear speedup: 4x machines -> much better than 2x.
        assert rounds[0] / rounds[2] > 4

    def test_rounds_grow_with_n(self):
        r = []
        for n in (256, 1024, 4096):
            g = gen.gnm_random(n, 3 * n, seed=9)
            _, res = run(g, k=4, seed=9)
            r.append(res.rounds)
        assert r[0] < r[1] < r[2]

    def test_phase_stats_populated(self, cluster8):
        res = connected_components_distributed(cluster8, seed=2)
        assert len(res.phase_stats) == res.phases
        assert all(s.rounds > 0 for s in res.phase_stats)
        # Components must be non-increasing across phases.
        comps = [s.components_start for s in res.phase_stats]
        assert all(a >= b for a, b in zip(comps, comps[1:]))

    def test_max_phases_budget_respected(self):
        g = gen.gnm_random(200, 600, seed=10)
        cl = KMachineCluster.create(g, k=4, seed=10)
        res = connected_components_distributed(cl, seed=10, max_phases=1)
        assert res.phases == 1
        # One phase cannot finish a 200-vertex component: not converged.
        assert not res.converged

    def test_zero_phase_budget_reports_initial_components(self):
        # Degenerate direct-library call: no phase ever runs, so every
        # vertex is still its own component and the count must say so.
        g = gen.gnm_random(50, 150, seed=3)
        cl = KMachineCluster.create(g, k=4, seed=3)
        res = connected_components_distributed(cl, seed=3, max_phases=0)
        assert res.phases == 0
        assert not res.converged
        assert res.n_components == 50


class TestCountProtocol:
    def test_count_matches(self):
        g = gen.planted_components(140, 5, seed=11)
        cl = KMachineCluster.create(g, k=4, seed=11)
        count, res = count_components_distributed(cl, seed=11)
        assert count == 5
        assert res.rounds == cl.ledger.total_rounds


@given(
    n=st.integers(min_value=8, max_value=120),
    density=st.floats(min_value=0.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=1000),
    k=st.sampled_from([2, 4, 8]),
)
@settings(max_examples=15, deadline=None)
def test_property_matches_reference_on_random_graphs(n, density, seed, k):
    m = min(int(density * n), n * (n - 1) // 2)
    g = gen.gnm_random(n, m, seed=seed)
    cl = KMachineCluster.create(g, k=k, seed=seed)
    res = connected_components_distributed(cl, seed=seed)
    assert res.converged
    assert np.array_equal(res.canonical(), ref.connected_components(g))
