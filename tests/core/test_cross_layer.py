"""Cross-layer consistency checks spanning verify/core/cluster plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import KMachineCluster
from repro.core import connected_components_distributed, verify
from repro.graphs import generators as gen
from repro.graphs import reference as ref
from repro.runtime import SketchConfig


class TestKwargsPassthrough:
    def test_verify_accepts_sketch_options(self):
        # The verification wrappers forward algorithm kwargs unchanged.
        g = gen.gnm_random(60, 200, seed=1)
        cl = KMachineCluster.create(g, k=4, seed=1)
        res = verify.st_connectivity(
            cl, 0, 1, seed=1, sketch=SketchConfig(repetitions=4, hash_family="polynomial")
        )
        assert res.answer == ref.st_connected(g, 0, 1)

    def test_mincut_passthrough(self):
        from repro.core import mincut_approx_distributed

        g = gen.planted_cut_graph(80, cut_size=2, inner_degree=8, seed=2)
        cl = KMachineCluster.create(g, k=4, seed=2)
        res = mincut_approx_distributed(cl, seed=2, sketch=SketchConfig(repetitions=4))
        assert res.estimate > 0


class TestLedgerConsistency:
    def test_rounds_equal_sum_of_steps(self, cluster8):
        res = connected_components_distributed(cluster8, seed=3)
        assert res.rounds == sum(s.rounds for s in cluster8.ledger.steps)

    def test_sent_equals_received_globally(self, cluster8):
        connected_components_distributed(cluster8, seed=4)
        assert cluster8.ledger.sent_bits.sum() == cluster8.ledger.received_bits.sum()
        assert cluster8.ledger.sent_bits.sum() == cluster8.ledger.load_total.sum()

    def test_phase_rounds_partition_total(self, cluster8):
        res = connected_components_distributed(cluster8, seed=5)
        assert sum(s.rounds for s in res.phase_stats) == res.rounds

    def test_cut_bits_bounded_by_total(self, cluster8):
        connected_components_distributed(cluster8, seed=6)
        total = cluster8.ledger.total_bits
        cut = cluster8.ledger.cut_bits(np.array([0, 1, 2, 3]))
        assert 0 <= cut <= total


class TestVerifyDoesNotMutateInputCluster:
    def test_graph_unchanged(self):
        g = gen.gnm_random(50, 150, seed=7)
        cl = KMachineCluster.create(g, k=4, seed=7)
        m_before = cl.m
        edges_before = cl.graph.edges_u.copy()
        verify.cut_verification(cl, np.ones(cl.m, dtype=bool), seed=7)
        assert cl.m == m_before
        assert np.array_equal(cl.graph.edges_u, edges_before)

    def test_rounds_accumulate_across_queries(self):
        g = gen.gnm_random(50, 150, seed=8)
        cl = KMachineCluster.create(g, k=4, seed=8)
        r1 = verify.st_connectivity(cl, 0, 1, seed=8).rounds
        r2 = verify.st_connectivity(cl, 1, 2, seed=9).rounds
        assert cl.ledger.total_rounds == r1 + r2


class TestHashFamilyAgreement:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_families_agree_on_components(self, seed):
        g = gen.planted_components(120, 3, seed=seed)
        results = []
        for family in ("prf", "polynomial"):
            cl = KMachineCluster.create(g, k=4, seed=seed)
            res = connected_components_distributed(
                cl, seed=seed, sketch=SketchConfig(hash_family=family)
            )
            results.append(res.canonical())
        assert np.array_equal(results[0], results[1])
