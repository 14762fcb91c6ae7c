"""Tests for the Theorem-4 verification problems against sequential truth."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.cluster.cluster import KMachineCluster
from repro.core import verify
from repro.graphs import generators as gen
from repro.graphs import reference as ref


def cluster_for(g, k=4, seed=3):
    return KMachineCluster.create(g, k=k, seed=seed)


class TestSCS:
    def test_positive_and_negative(self):
        g = gen.gnm_random(80, 300, seed=1)
        kr = ref.kruskal_mst(g)
        span_mask = np.zeros(g.m, dtype=bool)
        span_mask[kr] = True
        assert verify.spanning_connected_subgraph(cluster_for(g), span_mask, seed=1).answer
        # Drop one forest edge: no longer spanning connected.
        broken = span_mask.copy()
        broken[kr[0]] = False
        assert not verify.spanning_connected_subgraph(cluster_for(g), broken, seed=1).answer

    def test_mask_shape_checked(self):
        g = gen.gnm_random(30, 60, seed=2)
        with pytest.raises(ValueError):
            verify.spanning_connected_subgraph(cluster_for(g), np.ones(3, dtype=bool))


class TestSpanningTree:
    def test_true_spanning_tree(self):
        g = gen.gnm_random(80, 300, seed=20)
        kr = ref.kruskal_mst(g)
        if kr.size != g.n - 1:
            pytest.skip("base graph disconnected for this seed")
        mask = np.zeros(g.m, dtype=bool)
        mask[kr] = True
        assert verify.spanning_tree_verification(cluster_for(g), mask, seed=20).answer

    def test_spanning_but_not_tree(self):
        # Spanning connected subgraph with an extra edge: not a tree.
        g = gen.cycle_graph(40)
        mask = np.ones(g.m, dtype=bool)
        res = verify.spanning_tree_verification(cluster_for(g), mask, seed=21)
        assert not res.answer
        assert res.detail["n_components"] == 1  # connected, just not acyclic

    def test_tree_but_not_spanning(self):
        # Right edge count, wrong structure: a tree plus an isolated part.
        g = gen.disjoint_union([gen.path_graph(20), gen.cycle_graph(20)])
        mask = np.zeros(g.m, dtype=bool)
        mask[: g.n - 1] = True  # n-1 edges but cannot span both components
        assert not verify.spanning_tree_verification(cluster_for(g), mask, seed=22).answer

    def test_mask_shape_checked(self):
        g = gen.gnm_random(30, 60, seed=23)
        with pytest.raises(ValueError):
            verify.spanning_tree_verification(cluster_for(g), np.ones(2, dtype=bool))


class TestCuts:
    def test_cut_verification(self):
        g = gen.barbell(6, 3)
        # The middle path edges form a cut.
        bridge_mask = np.zeros(g.m, dtype=bool)
        for eid in range(g.m):
            if ref.edge_on_all_paths(g, eid, 0, g.n - 1):
                bridge_mask[eid] = True
        assert verify.cut_verification(cluster_for(g), bridge_mask, seed=3).answer
        # A single clique edge is not a cut.
        non_cut = np.zeros(g.m, dtype=bool)
        non_cut[g.find_edge_id(0, 1)] = True
        assert not verify.cut_verification(cluster_for(g), non_cut, seed=3).answer

    def test_st_cut(self):
        g = gen.path_graph(10)
        mask = np.zeros(g.m, dtype=bool)
        mask[g.find_edge_id(4, 5)] = True
        assert verify.st_cut_verification(cluster_for(g), mask, 0, 9, seed=4).answer
        assert not verify.st_cut_verification(cluster_for(g), mask, 0, 3, seed=4).answer


class TestConnectivityQueries:
    def test_st_connectivity(self):
        g = gen.disjoint_union([gen.path_graph(6), gen.path_graph(6)])
        assert verify.st_connectivity(cluster_for(g), 0, 5, seed=5).answer
        assert not verify.st_connectivity(cluster_for(g), 0, 6, seed=5).answer

    def test_edge_on_all_paths(self):
        g = gen.path_graph(8)
        assert verify.edge_on_all_paths(cluster_for(g), 3, 4, 0, 7, seed=6).answer
        c = gen.cycle_graph(8)
        assert not verify.edge_on_all_paths(cluster_for(c), 3, 4, 0, 7, seed=6).answer

    def test_edge_on_all_paths_missing_edge(self):
        g = gen.path_graph(8)
        with pytest.raises(KeyError):
            verify.edge_on_all_paths(cluster_for(g), 0, 7, 0, 7, seed=6)


class TestCycles:
    def test_cycle_containment(self):
        assert verify.cycle_containment(cluster_for(gen.cycle_graph(12)), seed=7).answer
        assert not verify.cycle_containment(cluster_for(gen.binary_tree(12)), seed=7).answer

    def test_e_cycle_containment(self):
        c = gen.cycle_graph(10)
        assert verify.e_cycle_containment(cluster_for(c), 0, 1, seed=8).answer
        t = gen.binary_tree(10)
        assert not verify.e_cycle_containment(cluster_for(t), 0, 1, seed=8).answer


class TestBipartiteness:
    @pytest.mark.parametrize(
        "g,want",
        [
            (gen.cycle_graph(10), True),
            (gen.cycle_graph(11), False),
            (gen.binary_tree(20), True),
            (gen.complete_graph(5), False),
            (gen.grid2d(5, 5), True),
        ],
        ids=["even-cycle", "odd-cycle", "tree", "K5", "grid"],
    )
    def test_known_cases(self, g, want):
        assert verify.bipartiteness(cluster_for(g), seed=9).answer == want

    def test_disconnected_bipartite(self):
        g = gen.disjoint_union([gen.cycle_graph(4), gen.cycle_graph(6)])
        assert verify.bipartiteness(cluster_for(g), seed=10).answer

    def test_matches_reference_on_random(self):
        for seed in range(4):
            g = gen.gnm_random(40, 70, seed=seed)
            got = verify.bipartiteness(cluster_for(g, seed=seed), seed=seed).answer
            assert got == ref.is_bipartite(g)


class TestAccounting:
    def test_all_problems_charge_rounds(self):
        g = gen.gnm_random(60, 200, seed=11)
        checks = [
            lambda: verify.spanning_connected_subgraph(
                cluster_for(g), np.ones(g.m, dtype=bool), seed=11
            ),
            lambda: verify.cut_verification(cluster_for(g), np.ones(g.m, dtype=bool), seed=11),
            lambda: verify.st_connectivity(cluster_for(g), 0, 1, seed=11),
            lambda: verify.cycle_containment(cluster_for(g), seed=11),
            lambda: verify.bipartiteness(cluster_for(g), seed=11),
        ]
        for check in checks:
            assert check().rounds > 0



@pytest.mark.parametrize(
    "problem, builds", [("st_connectivity", 0), ("cycle_containment", 0), ("bipartiteness", 1)]
)
def test_problems_on_g_reuse_the_input_incidences(problem, builds):
    # A problem on G itself runs on the input cluster; only a derived graph,
    # here the bipartite double cover, builds incidence arrays.
    g = gen.gnm_random(300, 900, seed=3)
    cl = cluster_for(g)
    run = {
        "st_connectivity": lambda: verify.st_connectivity(cl, 0, 1, seed=3),
        "cycle_containment": lambda: verify.cycle_containment(cl, seed=3),
        "bipartiteness": lambda: verify.bipartiteness(cl, seed=3),
    }[problem]
    distribute = KMachineCluster._distribute
    with mock.patch.object(KMachineCluster, "_distribute", wraps=distribute) as spy:
        res = run()
    assert spy.call_count == builds
    assert [call.args[0].n for call in spy.call_args_list] == [2 * g.n] * builds
    assert res.rounds > 0
