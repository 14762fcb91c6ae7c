"""Tests for the no-sketch Boruvka baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.boruvka_nosketch import boruvka_nosketch
from repro.cluster.cluster import KMachineCluster
from repro.core.labels import canonical_labels
from repro.graphs import generators as gen
from repro.graphs import reference as ref


class TestCorrectness:
    def test_connectivity_matches(self, small_connected_graph):
        cl = KMachineCluster.create(small_connected_graph, k=4, seed=1)
        res = boruvka_nosketch(cl, seed=1)
        assert np.array_equal(
            canonical_labels(res.labels), ref.connected_components(small_connected_graph)
        )

    def test_msf_weight_exact(self, small_weighted_graph):
        # Without sampling error, the baseline's MWOEs are exact: the
        # selected edges form the (unique) MSF.
        g = small_weighted_graph
        cl = KMachineCluster.create(g, k=4, seed=2)
        res = boruvka_nosketch(cl, seed=2)
        assert res.total_weight == pytest.approx(ref.mst_weight(g, ref.kruskal_mst(g)))
        # Exactly the sum of the returned edges' weights, in their order.
        ids = [g.find_edge_id(int(u), int(v)) for u, v in zip(res.edges_u, res.edges_v)]
        assert res.total_weight == float(g.weights[ids].sum())

    def test_disconnected(self):
        g = gen.planted_components(100, 5, seed=3)
        cl = KMachineCluster.create(g, k=4, seed=3)
        res = boruvka_nosketch(cl, seed=3)
        assert res.n_components == 5
        assert res.edges_u.size == g.n - 5

    def test_phases_logarithmic(self):
        g = gen.gnm_random(500, 1500, seed=4)
        cl = KMachineCluster.create(g, k=4, seed=4)
        res = boruvka_nosketch(cl, seed=4)
        assert res.phases <= 2 * np.log2(500) + 2


class TestCostStructure:
    def test_message_volume_scales_with_m(self):
        # The baseline's defining cost: Theta(m) sync messages per phase.
        n = 300
        sparse = gen.gnm_random(n, 2 * n, seed=5)
        dense = gen.gnm_random(n, 20 * n, seed=5)
        bits = []
        for g in (sparse, dense):
            cl = KMachineCluster.create(g, k=4, seed=5)
            bits.append(boruvka_nosketch(cl, seed=5).total_bits)
        assert bits[1] > 4 * bits[0]

    def test_announcement_step_present(self):
        g = gen.gnm_random(200, 600, seed=6)
        cl = KMachineCluster.create(g, k=4, seed=6)
        boruvka_nosketch(cl, seed=6)
        prefixes = {s.label.split(":", 1)[0] for s in cl.ledger.steps}
        assert "nosketch-announce" in prefixes
        assert "nosketch-sync" in prefixes
