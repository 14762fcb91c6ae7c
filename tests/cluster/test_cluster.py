"""Tests for the KMachineCluster façade: incidence arrays, derived clusters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import KMachineCluster
from repro.cluster.partition import VertexPartition
from repro.graphs import generators as gen
from repro.graphs.graph import Graph


class TestCreate:
    def test_incidence_arrays_shape(self, small_connected_graph):
        cl = KMachineCluster.create(small_connected_graph, k=4, seed=1)
        assert cl.n_incidences == 2 * cl.m
        assert cl.inc_owner.size == cl.inc_other.size == cl.inc_slot.size

    def test_incidence_machine_matches_partition(self, small_connected_graph):
        cl = KMachineCluster.create(small_connected_graph, k=4, seed=1)
        assert np.array_equal(cl.inc_machine, cl.partition.home[cl.inc_owner])

    def test_every_edge_twice(self, small_connected_graph):
        cl = KMachineCluster.create(small_connected_graph, k=4, seed=1)
        counts = np.bincount(cl.inc_edge, minlength=cl.m)
        assert np.all(counts == 2)

    def test_signs_cancel_per_edge(self, small_connected_graph):
        cl = KMachineCluster.create(small_connected_graph, k=4, seed=1)
        sums = np.zeros(cl.m, dtype=np.int64)
        np.add.at(sums, cl.inc_edge, cl.inc_sign)
        assert np.all(sums == 0)

    def test_partition_mismatch_rejected(self, small_connected_graph):
        p = VertexPartition(k=3, home=np.zeros(5, dtype=np.int64), seed=0)
        with pytest.raises(ValueError):
            KMachineCluster.create(small_connected_graph, k=3, seed=1, partition=p)

    def test_inc_weight_view(self, small_weighted_graph):
        cl = KMachineCluster.create(small_weighted_graph, k=4, seed=2)
        assert np.array_equal(cl.inc_weight, small_weighted_graph.weights[cl.inc_edge])
        ids = np.array([5, 0, cl.n_incidences - 1, 5], dtype=np.int64)
        assert np.array_equal(cl.inc_weight_of(ids), cl.inc_weight[ids])


class TestDerived:
    def test_with_graph_same_partition_topology(self, small_connected_graph):
        cl = KMachineCluster.create(small_connected_graph, k=4, seed=1)
        sub = cl.with_graph(small_connected_graph.subgraph(np.zeros(cl.m, dtype=bool)))
        assert sub.partition is cl.partition
        assert sub.topology is cl.topology
        assert sub.m == 0

    def test_with_graph_charges_the_parent_ledger(self, small_connected_graph):
        cl = KMachineCluster.create(small_connected_graph, k=4, seed=1)
        sub = cl.with_graph(small_connected_graph)
        assert sub.ledger is cl.ledger
        sub.ledger.charge_rounds("sub", 3)
        assert cl.ledger.total_rounds == 3

    def test_with_graph_on_another_vertex_set(self, small_connected_graph):
        cl = KMachineCluster.create(small_connected_graph, k=4, seed=1)
        g = small_connected_graph
        double = Graph.from_edges(2 * g.n, g.edges_u, g.edges_v + g.n)
        home = np.concatenate([cl.partition.home, cl.partition.home])
        both = VertexPartition(k=4, home=home, seed=cl.partition.seed)
        sub = cl.with_graph(double, both)
        assert sub.n == 2 * cl.n and sub.ledger is cl.ledger
        assert np.array_equal(sub.inc_machine, home[sub.inc_owner])
        fresh = KMachineCluster.create(double, 4, 1, partition=both, topology=cl.topology)
        for name in ("inc_owner", "inc_other", "inc_machine", "inc_slot", "inc_sign", "inc_edge"):
            assert np.array_equal(getattr(sub, name), getattr(fresh, name))

    def test_with_graph_rejects_different_n(self, small_connected_graph):
        cl = KMachineCluster.create(small_connected_graph, k=4, seed=1)
        with pytest.raises(ValueError):
            cl.with_graph(gen.path_graph(cl.n + 1))

    def test_reset_ledger(self, cluster8):
        cluster8.ledger.charge_rounds("x", 5)
        cluster8.reset_ledger()
        assert cluster8.ledger.total_rounds == 0

    def test_explicit_topology(self, small_connected_graph):
        from repro.cluster.topology import ClusterTopology

        topo = ClusterTopology(k=4, bandwidth_bits=12345)
        cl = KMachineCluster.create(small_connected_graph, k=4, seed=1, topology=topo)
        assert cl.topology.bandwidth_bits == 12345

    def test_topology_k_mismatch(self, small_connected_graph):
        from repro.cluster.topology import ClusterTopology

        with pytest.raises(ValueError):
            KMachineCluster.create(
                small_connected_graph,
                k=4,
                seed=1,
                topology=ClusterTopology(k=8, bandwidth_bits=100),
            )
