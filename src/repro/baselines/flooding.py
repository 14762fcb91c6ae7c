"""Flooding connectivity — the Theta(n/k + D) baseline (Section 2 warm-up).

Every vertex repeatedly floods the smallest component label it has seen;
after D_c rounds (the component's diameter) all labels agree.  This is the
congested-clique algorithm implemented in Giraph variants [43]; converted
to the k-machine model (each CC round's vertex messages become machine
traffic) it costs Theta(n/k + D) rounds by the Conversion Theorem — the
bound the paper's algorithm beats on high-diameter graphs.

The converted schedule is charged in a streamed loop: each CC round's
vertex messages become home(src) -> home(dst) traffic in one bulk step on
the cluster ledger (machine-local messages are free).  This omits the
Conversion Theorem's random-rerouting constants, so it can only
under-estimate the baseline.  The traffic is real on the simulated
platform and pays an attached fault or epoch model like any bulk step; an
all-local CC round still costs one synchronous round, a cited constant
charged with ``charge_rounds`` that stays clean (DESIGN.md §7.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.util.bits import bits_for_id

__all__ = ["FloodingResult", "flooding_connectivity"]


@dataclass(frozen=True)
class FloodingResult:
    """Output of the flooding baseline."""

    labels: np.ndarray
    n_components: int
    rounds: int
    cc_rounds: int
    total_bits: int


def flooding_connectivity(cluster: KMachineCluster, max_cc_rounds: int | None = None) -> FloodingResult:
    """Run label flooding; charge the cluster ledger; return the result.

    Per CC round, every vertex whose label changed in the previous round
    sends the new label to all neighbors — the standard "think like a
    vertex" implementation, with messages across machine boundaries charged
    at ``ceil(log2 n)`` bits each.
    """
    n = cluster.n
    labels = np.arange(n, dtype=np.int64)
    changed = np.ones(n, dtype=bool)
    label_bits = bits_for_id(max(n, 2))
    inc_owner = cluster.inc_owner
    inc_other = cluster.inc_other
    src_m = cluster.inc_machine
    dst_m = cluster.partition.home[inc_other]
    budget = max_cc_rounds if max_cc_rounds is not None else n + 1
    cc_rounds = 0
    rounds_before, bits_before = cluster.ledger.total_rounds, cluster.ledger.total_bits
    for r in range(budget):
        sel = changed[inc_owner]
        if not sel.any():
            break
        cc_rounds = r + 1
        step = CommStep(cluster.ledger, f"flooding:cc-round-{r}")
        step.add(src_m[sel], dst_m[sel], label_bits)
        rounds = step.deliver()
        if rounds == 0:
            # All traffic was machine-local this round; the CC round still
            # consumes one synchronous k-machine round.
            cluster.ledger.charge_rounds(f"flooding:cc-round-{r}:sync", 1)
        # Local min-label update (free computation).
        proposals = labels[inc_owner[sel]]
        new_labels = labels.copy()
        np.minimum.at(new_labels, inc_other[sel], proposals)
        changed = new_labels < labels
        labels = new_labels
    return FloodingResult(
        labels=labels,
        n_components=int(np.unique(labels).size),
        rounds=cluster.ledger.total_rounds - rounds_before,
        cc_rounds=cc_rounds,
        total_bits=cluster.ledger.total_bits - bits_before,
    )
