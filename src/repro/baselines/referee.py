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
from repro.graphs import reference as ref
from repro.util.bits import bits_for_id

__all__ = ["RefereeResult", "referee_connectivity"]


@dataclass(frozen=True)
class RefereeResult:
    """Output of the referee baseline."""

    labels: np.ndarray
    n_components: int
    rounds: int
    total_bits: int


def referee_connectivity(cluster: KMachineCluster, referee: int | None = None) -> RefereeResult:
    """Gather all edges at the referee; solve locally; charge the ledger.

    The referee defaults to the O(1)-round randomized election of [24]
    (see :mod:`repro.protocols.leader`); each edge is then shipped once,
    by the home machine of its smaller endpoint, as (u, v[, w]).
    """
    from repro.protocols.leader import charge_leader_election

    rounds_before, bits_before = cluster.ledger.total_rounds, cluster.ledger.total_bits
    if referee is None:
        referee, _ = charge_leader_election(cluster.ledger, seed=cluster.partition.seed)
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
