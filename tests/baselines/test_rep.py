"""Tests for the REP-model algorithms (Section 1.3)."""

from __future__ import annotations

import pytest

from repro.baselines.rep import rep_connectivity, rep_mst
from repro.cluster.cluster import KMachineCluster
from repro.cluster.partition import PartitionConfig
from repro.graphs import generators as gen
from repro.graphs import reference as ref
from repro.runtime import ChurnPlan, ClusterConfig, FaultPlan, RunConfig, get_algorithm
from repro.runtime.config import ConfigError
from repro.scenarios.churn import ChurnEvent


def _cluster(g, seed):
    return KMachineCluster.create(g, k=4, seed=seed)


class TestREPConnectivity:
    def test_component_count(self):
        g = gen.planted_components(150, 4, seed=1)
        res = rep_connectivity(_cluster(g, 1), seed=1)
        assert res.n_components == 4

    def test_filter_keeps_at_most_forest_per_machine(self):
        g = gen.gnm_random(200, 3000, seed=2)
        res = rep_connectivity(_cluster(g, 2), seed=2)
        # Each machine keeps <= n-1 edges: total <= k(n-1).
        assert res.filtered_edges <= 4 * 199
        assert res.filtered_edges < g.m

    def test_charges_the_callers_ledger(self):
        g = gen.gnm_random(120, 400, seed=6)
        cluster = _cluster(g, 6)
        cluster.ledger.charge_rounds("earlier", 7)
        res = rep_connectivity(cluster, seed=6)
        # The reroute and the RVP run land on the caller's ledger, after
        # its history; ``rounds`` counts only REP's own steps.
        assert cluster.ledger.steps[1].label == "rep:reroute"
        assert res.rounds == cluster.ledger.total_rounds - 7
        assert res.rounds > res.reroute_rounds >= 1

    def test_ignores_the_callers_vertex_partition(self):
        g = gen.gnm_random(120, 400, seed=7)
        a, b = KMachineCluster.create(g, k=4, seed=1), KMachineCluster.create(g, k=4, seed=2)
        assert rep_connectivity(a, seed=7).n_components == rep_connectivity(b, seed=7).n_components
        assert a.ledger.steps == b.ledger.steps


class TestREPMST:
    def test_weight_matches_kruskal(self):
        g = gen.with_unique_weights(gen.gnm_random(150, 600, seed=3), seed=3)
        res = rep_mst(_cluster(g, 3), seed=3)
        assert res.total_weight == pytest.approx(ref.mst_weight(g, ref.kruskal_mst(g)))

    def test_rejects_unweighted(self):
        cluster = _cluster(gen.gnm_random(50, 100, seed=4), 4)
        with pytest.raises(ValueError, match="weighted"):
            rep_mst(cluster, seed=4)
        assert cluster.ledger.steps == []

    def test_reroute_charged(self):
        g = gen.with_unique_weights(gen.gnm_random(150, 600, seed=5), seed=5)
        res = rep_mst(_cluster(g, 5), seed=5)
        assert res.reroute_rounds >= 1
        assert res.rounds >= res.reroute_rounds


_CHURN = ChurnPlan(events=(ChurnEvent(2, "reshuffle"),))


@pytest.mark.parametrize(
    "cluster_config, churn, match",
    [
        (ClusterConfig(k=4, partition_seed=9), None, "partition_seed"),
        (ClusterConfig(k=4, partition=PartitionConfig(scheme="powerlaw")), None, "schemes"),
        (ClusterConfig(k=4), _CHURN, "churn"),
    ],
    ids=["partition_seed", "scheme", "churn"],
)
def test_registry_rejections_charge_nothing(cluster_config, churn, match):
    cluster = _cluster(gen.gnm_random(80, 240, seed=8), 8)
    config = RunConfig(seed=8, cluster=cluster_config, churn=churn, faults=FaultPlan(drop_prob=0.1))
    with pytest.raises(ConfigError, match=match):
        get_algorithm("rep").run(cluster, config)
    assert cluster.ledger.steps == []
    assert cluster.ledger.fault_model is None and cluster.ledger.epoch_model is None
