"""Tests for the gather-at-referee baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.referee import _charge_leader_election, referee_connectivity
from repro.cluster.cluster import KMachineCluster
from repro.cluster.engine import Envelope, SyncEngine
from repro.cluster.ledger import RoundLedger
from repro.cluster.topology import ClusterTopology
from repro.core.labels import canonical_labels
from repro.graphs import generators as gen
from repro.graphs import reference as ref
from repro.util.rng import SeedStream, derive_seed


def test_exact_answer(small_disconnected_graph):
    cl = KMachineCluster.create(small_disconnected_graph, k=4, seed=1)
    res = referee_connectivity(cl)
    assert res.n_components == 5
    assert np.array_equal(
        canonical_labels(res.labels), ref.connected_components(small_disconnected_graph)
    )


def test_rounds_scale_with_m_over_k():
    n = 400
    sparse = gen.gnm_random(n, 2 * n, seed=2)
    dense = gen.gnm_random(n, 40 * n, seed=2)
    r = []
    for g in (sparse, dense):
        cl = KMachineCluster.create(g, k=4, seed=2)
        r.append(referee_connectivity(cl).rounds)
    assert r[1] > 5 * r[0]  # ~20x more edges -> proportionally more rounds


def test_more_machines_help_linearly():
    g = gen.gnm_random(500, 10_000, seed=3)
    r = []
    for k in (2, 8):
        cl = KMachineCluster.create(g, k=k, seed=3)
        r.append(referee_connectivity(cl).rounds)
    # Referee receives over k-1 links: 4x machines ~ several-x fewer rounds,
    # but never better than linear-in-k.
    assert 2 < r[0] / r[1] < 12


def test_referee_receives_everything():
    g = gen.gnm_random(200, 800, seed=4)
    cl = KMachineCluster.create(g, k=4, seed=4)
    referee_connectivity(cl, referee=2)
    # All traffic converges on machine 2 (minus its own local edges).
    assert cl.ledger.received_bits[2] > 0
    assert cl.ledger.received_bits[0] == 0


class _ElectionProgram:
    """Exact mailbox election: broadcast a 64-bit draw; max (draw, id) wins."""

    def __init__(self, k, seed):
        self.k = k
        self.seed = seed
        self.draws = {}
        self.leader = None

    def on_round(self, machine, round_no, inbox):
        outs = []
        if round_no == 1:
            draw = SeedStream(derive_seed(self.seed, machine)).next_u64()
            self.draws[machine] = draw
            outs = [Envelope(machine, dst, 64, draw) for dst in range(self.k) if dst != machine]
        for env in inbox:
            self.draws[env.src] = env.payload
        if len(self.draws) == self.k:
            self.leader = max(self.draws, key=lambda m: (self.draws[m], m))
        return outs

    def is_done(self, machine):
        return self.leader is not None


def _election_ledger(k):
    return RoundLedger(ClusterTopology(k=k, bandwidth_bits=1024))


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("k", [2, 3, 8, 16])
def test_bulk_election_matches_an_exact_mailbox_run(k, seed):
    ledger = _election_ledger(k)
    leader = _charge_leader_election(ledger, seed)
    programs = [_ElectionProgram(k, seed) for _ in range(k)]
    result = SyncEngine(ledger.topology).run(programs)
    assert result.terminated
    assert {p.leader for p in programs} == {leader}
    assert ledger.total_rounds == 1
    assert ledger.total_bits == result.delivered_bits == k * (k - 1) * 64


def test_election_leader_varies_with_the_seed():
    leaders = {_charge_leader_election(_election_ledger(8), seed) for seed in range(20)}
    assert len(leaders) > 1


@pytest.mark.parametrize("k", [2, 3, 8, 16])
def test_election_is_one_round_and_elects_the_referee(k):
    g = gen.gnm_random(200, 800, seed=4)
    cl = KMachineCluster.create(g, k=k, seed=4)
    referee_connectivity(cl)
    election = cl.ledger.steps[0]
    assert election.label == "leader-election"
    assert election.rounds == 1  # O(1), whatever k
    assert election.total_bits == k * (k - 1) * 64
    # The gather lands on the elected machine and nowhere else.
    leader = _charge_leader_election(_election_ledger(k), cl.partition.seed)
    others = [m for m in range(k) if m != leader]
    assert cl.ledger.received_bits[others].tolist() == [(k - 1) * 64] * (k - 1)
    assert cl.ledger.received_bits[leader] > (k - 1) * 64


def test_election_is_deterministic_given_the_seed():
    assert _charge_leader_election(_election_ledger(8), 1) == _charge_leader_election(
        _election_ledger(8), 1
    )
    g = gen.gnm_random(200, 800, seed=4)
    totals = []
    for _ in range(2):
        cl = KMachineCluster.create(g, k=8, seed=4)
        referee_connectivity(cl)
        totals.append((cl.ledger.totals(), cl.ledger.received_bits.tolist()))
    assert totals[0] == totals[1]
