"""Gather-at-referee — the Theta~(m/k) baseline (Section 2 warm-up).

"The easiest way to solve any problem in our model": elect a referee in
O(1) rounds [24], ship every edge to it, solve locally.  The referee has
only k-1 incident links, so receiving Theta(m log n) bits takes
Omega~(m/k) rounds — the naive bound both the flooding and the sketch-based
algorithms improve on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.cluster.ledger import RoundLedger
from repro.graphs import reference as ref
from repro.util.bits import bits_for_id
from repro.util.rng import SeedStream, derive_seed

__all__ = ["RefereeResult", "referee_connectivity"]


@dataclass(frozen=True)
class RefereeResult:
    """Output of the referee baseline."""

    labels: np.ndarray
    n_components: int
    rounds: int
    total_bits: int


def _charge_leader_election(ledger: RoundLedger, seed: int) -> int:
    """Elect the referee in one all-to-all exchange; return its machine.

    The textbook instantiation of [24] on a complete network: every
    machine draws a random 64-bit ID and broadcasts it, and the largest
    (draw, machine) wins.  The exchange is charged as one bulk step;
    the election is error-free given distinct draws.
    """
    k = ledger.topology.k
    step = CommStep(ledger, "leader-election")
    for src in range(k):
        dsts = np.setdiff1d(np.arange(k, dtype=np.int64), np.array([src]))
        step.add(src, dsts, 64)
    step.deliver()
    draws = [SeedStream(derive_seed(seed, m)).next_u64() for m in range(k)]
    return max(range(k), key=lambda m: (draws[m], m))


def referee_connectivity(cluster: KMachineCluster, referee: int | None = None) -> RefereeResult:
    """Gather all edges at the referee; solve locally; charge the ledger.

    The referee defaults to the O(1)-round randomized election of [24]
    (:func:`_charge_leader_election`); each edge is then shipped once,
    by the home machine of its smaller endpoint, as (u, v[, w]).
    """
    rounds_before, bits_before = cluster.ledger.total_rounds, cluster.ledger.total_bits
    if referee is None:
        referee = _charge_leader_election(cluster.ledger, seed=cluster.partition.seed)
    else:
        cluster.ledger.charge_rounds("referee:designated", 0)
    g = cluster.graph
    edge_bits = 2 * bits_for_id(max(g.n, 2)) + (64 if g.weighted else 0)
    src = cluster.partition.home[g.edges_u]
    step = CommStep(cluster.ledger, "referee:gather")
    step.add(src, referee, edge_bits)
    step.deliver()
    labels = ref.connected_components(g)
    return RefereeResult(
        labels=labels,
        n_components=int(np.unique(labels).size),
        rounds=cluster.ledger.total_rounds - rounds_before,
        total_bits=cluster.ledger.total_bits - bits_before,
    )
