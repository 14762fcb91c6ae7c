"""Integration tests for the Theorem-2 MST algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import KMachineCluster
from repro.core.mst import minimum_spanning_tree_distributed
from repro.graphs import generators as gen
from repro.graphs import reference as ref
from repro.runtime import ClusterConfig, RunConfig, Session


def run(g, k=8, seed=5, **kw):
    cl = KMachineCluster.create(g, k=k, seed=seed)
    return cl, minimum_spanning_tree_distributed(cl, seed=seed, **kw)


def edge_set(us, vs):
    return set(zip(np.minimum(us, vs).tolist(), np.maximum(us, vs).tolist()))


class TestCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_mst_on_unique_weights(self, seed):
        g = gen.with_unique_weights(gen.gnm_random(120, 420, seed=seed), seed=seed)
        _, res = run(g, seed=seed)
        assert res.certified
        kr = ref.kruskal_mst(g)
        assert edge_set(res.edges_u, res.edges_v) == edge_set(g.edges_u[kr], g.edges_v[kr])
        assert res.total_weight == pytest.approx(ref.mst_weight(g, kr))

    def test_forest_on_disconnected(self):
        g = gen.with_unique_weights(gen.planted_components(100, 4, seed=4), seed=4)
        _, res = run(g, seed=4)
        kr = ref.kruskal_mst(g)
        assert res.n_edges == kr.size == g.n - 4
        assert res.total_weight == pytest.approx(ref.mst_weight(g, kr))

    def test_tree_input_returns_all_edges(self):
        g = gen.with_unique_weights(gen.random_spanning_tree(80, seed=5), seed=5)
        _, res = run(g, seed=5)
        assert res.n_edges == 79
        assert edge_set(res.edges_u, res.edges_v) == edge_set(g.edges_u, g.edges_v)

    def test_duplicate_weights_still_spanning(self):
        # Without unique weights the MST may be non-unique; the output must
        # still be a minimum-weight spanning forest.
        g = gen.gnm_random(90, 300, seed=6).with_weights(
            np.ones(300, dtype=np.float64)
        )
        _, res = run(g, seed=6)
        assert res.n_edges == g.n - 1
        assert res.total_weight == pytest.approx(float(g.n - 1))

    @pytest.mark.parametrize("k", [2, 4, 16])
    def test_various_k(self, k):
        g = gen.with_unique_weights(gen.gnm_random(100, 350, seed=7), seed=7)
        _, res = run(g, k=k, seed=7)
        kr = ref.kruskal_mst(g)
        assert res.total_weight == pytest.approx(ref.mst_weight(g, kr))


class TestOutputModes:
    def test_strict_costs_more_on_star(self):
        # Theorem 2(b): the strict output criterion forces Omega~(n/k) —
        # on a star, the centre's home machine must learn every edge.
        g = gen.with_unique_weights(gen.star_graph(2000), seed=8)
        _, relaxed = run(g, k=8, seed=8, output="relaxed")
        _, strict = run(g, k=8, seed=8, output="strict")
        assert strict.rounds > relaxed.rounds
        assert strict.total_weight == pytest.approx(relaxed.total_weight)

    def test_invalid_output_mode(self):
        g = gen.with_unique_weights(gen.path_graph(10), seed=9)
        cl = KMachineCluster.create(g, k=2, seed=9)
        with pytest.raises(ValueError, match="output"):
            minimum_spanning_tree_distributed(cl, output="both")

    def test_owner_machines_valid(self):
        g = gen.with_unique_weights(gen.gnm_random(80, 240, seed=10), seed=10)
        cl, res = run(g, seed=10)
        assert res.owner_machine.min(initial=0) >= 0
        assert res.owner_machine.max(initial=0) < cl.k


class TestEliminationLoop:
    def test_fixed_budget_mode_uncertified(self):
        g = gen.with_unique_weights(gen.gnm_random(100, 400, seed=11), seed=11)
        _, res = run(g, seed=11, strict_elimination_budget=2)
        # With only 2 elimination iterations per phase the MWOE is not
        # certified, but the result must still be a spanning tree.
        assert res.n_edges == g.n - 1
        kr = ref.kruskal_mst(g)
        assert res.total_weight >= ref.mst_weight(g, kr) - 1e-9

    def test_elimination_iterations_logarithmic(self):
        g = gen.with_unique_weights(gen.gnm_random(300, 1500, seed=12), seed=12)
        _, res = run(g, seed=12)
        worst = max(s.elimination_iterations for s in res.phase_stats)
        assert worst <= 4 * np.log2(300) + 8

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        # A budget below 1 would run no elimination call at all, select
        # nothing and report an edgeless forest as converged and certified.
        g = gen.with_unique_weights(gen.gnm_random(200, 600, seed=14), seed=14)
        cl = KMachineCluster.create(g, k=4, seed=14)
        with pytest.raises(ValueError, match="strict_elimination_budget"):
            minimum_spanning_tree_distributed(cl, strict_elimination_budget=budget)
        config = RunConfig(cluster=ClusterConfig(k=4), params={"strict_elimination_budget": budget})
        with pytest.raises(ValueError, match="strict_elimination_budget"):
            Session(g, config=config).run("mst")

    def test_phase_stats_certified_counts(self):
        g = gen.with_unique_weights(gen.gnm_random(100, 300, seed=13), seed=13)
        _, res = run(g, seed=13)
        for s in res.phase_stats:
            assert s.mwoe_uncertified == 0  # fixpoint mode certifies everything


@given(
    n=st.integers(min_value=10, max_value=80),
    extra=st.integers(min_value=0, max_value=120),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=10, deadline=None)
def test_property_mst_weight_matches_kruskal(n, extra, seed):
    m = min(n - 1 + extra, n * (n - 1) // 2)
    base = gen.gnm_random(n, m, seed=seed)
    g = gen.with_unique_weights(base, seed=seed)
    cl = KMachineCluster.create(g, k=4, seed=seed)
    res = minimum_spanning_tree_distributed(cl, seed=seed)
    kr = ref.kruskal_mst(g)
    assert res.total_weight == pytest.approx(ref.mst_weight(g, kr))
