"""Edge cases and failure injection across the core algorithms.

The w.h.p. guarantees of the paper degrade gracefully, not catastrophically:
a failed sketch sample delays a merge by one phase; tiny clusters, huge
clusters, minimal bandwidth, and degenerate graphs must all stay correct.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClusterTopology, KMachineCluster
from repro.core import (
    component_sizes_distributed,
    connected_components_distributed,
    minimum_spanning_tree_distributed,
)
from repro.graphs import Graph
from repro.graphs import generators as gen
from repro.graphs import reference as ref
from repro.runtime import SketchConfig


class TestDegenerateGraphs:
    def test_single_vertex(self):
        g = gen.disjoint_union([gen.path_graph(1)])
        cl = KMachineCluster.create(g, k=2, seed=1)
        res = connected_components_distributed(cl, seed=1)
        assert res.n_components == 1
        assert res.converged
        assert res.forest_u.size == 0

    def test_no_edges_many_vertices(self):
        g = gen.disjoint_union([gen.path_graph(1) for _ in range(40)])
        cl = KMachineCluster.create(g, k=8, seed=2)
        res = connected_components_distributed(cl, seed=2)
        assert res.n_components == 40
        assert res.phases == 1

    def test_single_edge(self):
        g = gen.path_graph(2)
        cl = KMachineCluster.create(g, k=4, seed=3)
        res = minimum_spanning_tree_distributed(cl, seed=3)
        assert res.n_edges == 1

    def test_two_cliques_no_bridge(self):
        g = gen.disjoint_union([gen.complete_graph(20), gen.complete_graph(20)])
        cl = KMachineCluster.create(g, k=4, seed=4)
        res = connected_components_distributed(cl, seed=4)
        assert res.n_components == 2


class TestExtremeClusterShapes:
    def test_k_equals_n(self):
        # Congested-clique regime: one vertex per machine (on average).
        g = gen.gnm_random(32, 96, seed=5)
        cl = KMachineCluster.create(g, k=32, seed=5)
        res = connected_components_distributed(cl, seed=5)
        assert np.array_equal(res.canonical(), ref.connected_components(g))

    def test_k_exceeds_n(self):
        g = gen.gnm_random(16, 40, seed=6)
        cl = KMachineCluster.create(g, k=64, seed=6)
        res = connected_components_distributed(cl, seed=6)
        assert np.array_equal(res.canonical(), ref.connected_components(g))

    def test_k2_minimum(self):
        g = gen.gnm_random(120, 400, seed=7)
        cl = KMachineCluster.create(g, k=2, seed=7)
        res = connected_components_distributed(cl, seed=7)
        assert np.array_equal(res.canonical(), ref.connected_components(g))

    def test_one_bit_bandwidth(self):
        # Pathological bandwidth: correctness unaffected, rounds explode.
        g = gen.gnm_random(60, 150, seed=8)
        topo = ClusterTopology(k=4, bandwidth_bits=1)
        cl = KMachineCluster.create(g, k=4, seed=8, topology=topo)
        res = connected_components_distributed(cl, seed=8)
        assert np.array_equal(res.canonical(), ref.connected_components(g))
        assert res.rounds > 10_000


class TestSketchFailureInjection:
    def test_single_repetition_still_converges(self):
        # With repetitions=1 each sampling attempt fails with constant
        # probability; Lemma 7's analysis tolerates non-participating
        # components, so convergence just takes extra phases.
        g = gen.gnm_random(150, 500, seed=9)
        cl = KMachineCluster.create(g, k=4, seed=9)
        res = connected_components_distributed(cl, seed=9, sketch=SketchConfig(repetitions=1))
        assert res.converged
        assert np.array_equal(res.canonical(), ref.connected_components(g))

    def test_more_repetitions_never_hurt_phases(self):
        g = gen.gnm_random(200, 700, seed=10)
        phases = []
        for reps in (1, 6):
            cl = KMachineCluster.create(g, k=4, seed=10)
            res = connected_components_distributed(
                cl, seed=10, sketch=SketchConfig(repetitions=reps)
            )
            phases.append(res.phases)
        assert phases[1] <= phases[0] + 2  # 6 reps should not be worse

    def test_mst_budget_one_still_spans(self):
        g = gen.with_unique_weights(gen.gnm_random(80, 250, seed=11), seed=11)
        cl = KMachineCluster.create(g, k=4, seed=11)
        res = minimum_spanning_tree_distributed(cl, seed=11, strict_elimination_budget=1)
        assert res.n_edges == g.n - 1
        assert not res.certified


class TestComponentSizes:
    def test_sizes_match_reference(self):
        g = gen.planted_components(130, 4, seed=12)
        cl = KMachineCluster.create(g, k=4, seed=12)
        sizes, res = component_sizes_distributed(cl, seed=12)
        truth = ref.connected_components(g)
        want = {
            int(lab): int((truth == lab).sum()) for lab in np.unique(truth)
        }
        # Map algorithm labels to canonical labels for comparison.
        canon = res.canonical()
        got = {}
        for lab, sz in sizes.items():
            canon_lab = int(canon[np.nonzero(res.labels == lab)[0][0]])
            got[canon_lab] = sz
        assert got == want

    def test_sizes_sum_to_n(self):
        g = gen.gnm_random(150, 200, seed=13)
        cl = KMachineCluster.create(g, k=4, seed=13)
        sizes, _ = component_sizes_distributed(cl, seed=13)
        assert sum(sizes.values()) == g.n

    def test_charges_extra_rounds(self):
        g = gen.gnm_random(100, 300, seed=14)
        cl = KMachineCluster.create(g, k=4, seed=14)
        _, res = component_sizes_distributed(cl, seed=14)
        assert res.rounds == cl.ledger.total_rounds
        prefixes = {s.label.split(":", 1)[0] for s in cl.ledger.steps}
        assert "sizes" in prefixes


class TestSpanningForest:
    def test_forest_graph_matches_components(self):
        g = gen.planted_components(140, 3, seed=15)
        cl = KMachineCluster.create(g, k=4, seed=15)
        res = connected_components_distributed(cl, seed=15)
        f = Graph.from_edges(g.n, res.forest_u, res.forest_v)
        assert f.m == g.n - 3
        assert np.array_equal(
            ref.connected_components(f), ref.connected_components(g)
        )
        assert not ref.has_cycle(f)
