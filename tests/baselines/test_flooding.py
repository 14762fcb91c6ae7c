"""Tests for the flooding baseline: correctness and Theta(n/k + D) shape."""

from __future__ import annotations

import numpy as np

from repro.baselines.flooding import flooding_connectivity
from repro.cluster.cluster import KMachineCluster
from repro.cluster.partition import PartitionConfig, VertexPartition
from repro.cluster.topology import ClusterTopology
from repro.core.labels import canonical_labels
from repro.graphs import generators as gen
from repro.graphs import reference as ref
from repro.scenarios.churn import ChurnEvent, ChurnPlan, EpochModel
from repro.scenarios.faults import FaultModel, FaultPlan


class TestCorrectness:
    def test_matches_reference(self, small_connected_graph):
        cl = KMachineCluster.create(small_connected_graph, k=4, seed=1)
        res = flooding_connectivity(cl)
        assert np.array_equal(
            canonical_labels(res.labels), ref.connected_components(small_connected_graph)
        )

    def test_disconnected(self):
        g = gen.planted_components(120, 4, seed=2)
        cl = KMachineCluster.create(g, k=4, seed=2)
        res = flooding_connectivity(cl)
        assert res.n_components == 4

    def test_cc_rounds_equals_diameter_bound(self):
        g = gen.path_graph(50)
        cl = KMachineCluster.create(g, k=4, seed=3)
        res = flooding_connectivity(cl)
        # Label 0 travels the whole path: exactly n-1 propagation rounds
        # (+1 to detect quiescence).
        assert 49 <= res.cc_rounds <= 51

    def test_max_cc_rounds_cutoff(self):
        g = gen.path_graph(100)
        cl = KMachineCluster.create(g, k=4, seed=4)
        res = flooding_connectivity(cl, max_cc_rounds=5)
        assert res.cc_rounds == 5
        assert res.n_components > 1  # not yet converged


class TestShape:
    def test_diameter_term_dominates_on_paths(self):
        # Theta(n/k + D): on a path D = n-1, so doubling k barely helps.
        g = gen.path_graph(400)
        r = []
        for k in (4, 16):
            cl = KMachineCluster.create(g, k=k, seed=5)
            r.append(flooding_connectivity(cl).rounds)
        assert r[1] > 0.8 * r[0]  # nearly no speedup from 4x machines

    def test_volume_term_on_low_diameter(self):
        # On a low-diameter dense graph the n/k volume term shows: more
        # machines reduce rounds.
        g = gen.gnm_random(1000, 20_000, seed=6)
        r = []
        for k in (2, 8):
            cl = KMachineCluster.create(g, k=k, seed=6)
            r.append(flooding_connectivity(cl).rounds)
        assert r[1] < r[0]

    def test_volume_term_scales_inverse_k_squared(self):
        # Volume-dominated regime: each link carries ~2m/k^2 label messages
        # per CC round, so 4x machines cut rounds by far more than 4x.
        g = gen.gnm_random(1000, 100_000, seed=7)
        r = []
        for k in (4, 16):
            cl = KMachineCluster.create(
                g, k=k, seed=7, topology=ClusterTopology(k=k, bandwidth_bits=1000)
            )
            r.append(flooding_connectivity(cl).rounds)
        assert r[0] > 10 * r[1]

    def test_degree_term_scales_inverse_k(self):
        # Star: every leaf's message converges on the center's home machine
        # over k-1 links, so doubling k roughly halves the rounds.
        g = gen.star_graph(2000)
        r = []
        for k in (8, 16):
            cl = KMachineCluster.create(
                g, k=k, seed=7, topology=ClusterTopology(k=k, bandwidth_bits=100)
            )
            r.append(flooding_connectivity(cl).rounds)
        assert r[0] > 1.7 * r[1]


class TestConvertedSchedule:
    """The streamed loop charges one bulk step per CC round on the ledger."""

    def test_ledger_holds_one_step_per_cc_round(self):
        g = gen.gnm_random(60, 150, seed=1)
        cl = KMachineCluster.create(g, k=4, seed=1)
        res = flooding_connectivity(cl)
        assert res.rounds == cl.ledger.total_rounds >= res.cc_rounds
        assert res.total_bits == cl.ledger.total_bits > 0
        assert [s.label for s in cl.ledger.steps] == [
            f"flooding:cc-round-{r}" for r in range(res.cc_rounds)
        ]

    def test_all_local_cc_round_still_costs_one(self):
        g = gen.path_graph(10)
        home = np.zeros(g.n, dtype=np.int64)  # everything on machine 0
        cl = KMachineCluster.create(
            g, k=2, seed=1, partition=VertexPartition(k=2, home=home, seed=0)
        )
        res = flooding_connectivity(cl)
        assert res.total_bits == 0
        assert res.rounds == res.cc_rounds > 1
        syncs = [s for s in cl.ledger.steps if s.label.endswith(":sync")]
        assert len(syncs) == res.cc_rounds
        assert all(s.rounds == 1 for s in syncs)


class TestConvertedScheduleUnderScenarios:
    """Each CC round's messages are real traffic on the simulated platform.

    They pay an attached fault or epoch model exactly like the sketch
    algorithms' bulk steps (DESIGN.md §7.1); only the one-round sync floor
    of an all-local CC round, a cited constant, stays clean.
    """

    @staticmethod
    def _cluster():
        g = gen.gnm_random(80, 240, seed=2)
        return g, KMachineCluster.create(g, k=4, seed=2)

    @staticmethod
    def _faults():
        return FaultModel(FaultPlan(drop_prob=0.3), run_seed=2)

    def test_fault_overhead_is_paid(self):
        _, clean_cl = self._cluster()
        clean = flooding_connectivity(clean_cl)
        _, cl = self._cluster()
        cl.ledger.attach_faults(self._faults())
        faulted = flooding_connectivity(cl)
        assert faulted.cc_rounds == clean.cc_rounds
        assert faulted.rounds > clean.rounds
        assert sum(s.fault_rounds for s in cl.ledger.steps) == faulted.rounds - clean.rounds
        assert "faults" in cl.ledger.totals()

    def test_fault_overhead_is_deterministic(self):
        totals = []
        for _ in range(2):
            _, cl = self._cluster()
            cl.ledger.attach_faults(self._faults())
            flooding_connectivity(cl)
            totals.append(cl.ledger.totals())
        assert totals[0] == totals[1]

    def test_sync_floor_stays_clean(self):
        # Every vertex on machine 0: no CC round sends across a link, so
        # each costs only its charge_rounds sync floor, which the fault
        # model does not touch.
        g = gen.path_graph(10)
        home = np.zeros(g.n, dtype=np.int64)
        cl = KMachineCluster.create(
            g, k=2, seed=1, partition=VertexPartition(k=2, home=home, seed=0)
        )
        cl.ledger.attach_faults(
            FaultModel(FaultPlan(drop_prob=0.5, bandwidth_factor=0.5), run_seed=7)
        )
        res = flooding_connectivity(cl)
        assert res.cc_rounds > 1
        assert res.rounds == res.cc_rounds
        assert all(s.fault_rounds == 0 for s in cl.ledger.steps)

    def test_epoch_migration_is_paid(self):
        g, cl = self._cluster()
        plan = ChurnPlan(events=(ChurnEvent(1, "reshuffle"),))
        cl.ledger.attach_epochs(EpochModel(plan, g, cl.partition, PartitionConfig()))
        flooding_connectivity(cl)
        epochs = cl.ledger.totals()["epochs"]
        assert epochs["n_epochs"] == 2
        assert epochs["migration_rounds"] > 0
        assert any(s.label == "epoch:migrate:reshuffle" for s in cl.ledger.steps)
