"""Boruvka without sketches or proxies — the O~(n/k) GHS-style baseline.

Section 1.2 and Section 2 attribute the Omega~(n/k) behaviour of classical
approaches (GHS [14] under the Conversion Theorem) to two costs the
sketch-based algorithm avoids:

1. **edge-status checking** — without sketches, finding an outgoing edge
   requires knowing, per incident edge, whether its other endpoint is in
   the same component, so label changes must be pushed across *every*
   cross-machine edge each phase (Theta(m) messages);
2. **leader-centric aggregation and announcement** — without random
   proxies and part-level relabel broadcasts, merges are coordinated at
   the home machine of each component's leader vertex, and merge results
   are announced to all machines (a machine cannot know which other
   machines hold parts of its component without the proxy machinery).

The per-phase announcement alone moves Theta(C log n) bits out of the
leaders' machines over k-1 links each — Theta~(n/k) rounds in the first
phase — which is exactly the barrier the paper breaks.  DRR ranks are kept
(shared randomness) so that this baseline isolates the sketch+proxy
contribution, not the DRR contribution (see ``bench_ablation_drr`` for
that one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.core.drr import build_drr_forest
from repro.core.labels import PartIndex, initial_labels
from repro.core.outgoing import OutgoingSelection
from repro.cluster.shared_random import SharedRandomness
from repro.util.bits import bits_for_id

__all__ = ["NoSketchResult", "boruvka_nosketch"]


@dataclass(frozen=True)
class NoSketchResult:
    """Output of the no-sketch Boruvka baseline."""

    labels: np.ndarray
    n_components: int
    rounds: int
    phases: int
    total_bits: int
    edges_u: np.ndarray
    edges_v: np.ndarray
    total_weight: float


def boruvka_nosketch(
    cluster: KMachineCluster, seed: int = 0, max_phases: int | None = None
) -> NoSketchResult:
    """Run no-sketch Boruvka (connectivity + MSF); charge the cluster ledger.

    On weighted graphs the selected edges form a minimum spanning forest
    (each component picks its true MWOE — no sampling error); on unweighted
    graphs any outgoing edge is picked.  Either way the communication
    pattern, not the answer, is the point of this baseline.
    """
    n, k = cluster.n, cluster.k
    labels = initial_labels(n)
    shared = SharedRandomness(master_seed=seed, n=n, k=k)
    label_bits = bits_for_id(max(n, 2))
    edge_bits = 2 * label_bits + 64
    inc_owner, inc_other = cluster.inc_owner, cluster.inc_other
    src_m = cluster.inc_machine
    dst_m = cluster.partition.home[inc_other]
    cross = src_m != dst_m
    changed = np.ones(n, dtype=bool)
    budget = max_phases if max_phases is not None else n
    rounds_before, bits_before = cluster.ledger.total_rounds, cluster.ledger.total_bits
    out_u: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    out_w: list[np.ndarray] = []
    phases = 0
    for phase in range(1, budget + 1):
        phases = phase
        # 1. Edge-status sync: every changed vertex pushes its new label
        # across every incident edge (the Theta(m) cost sketches avoid).
        # Incidences are stored in both directions, so after the push each
        # owner's machine holds the current label of every neighbor.
        sel = changed[inc_owner]
        if sel.any():
            step = CommStep(cluster.ledger, f"nosketch-sync:phase-{phase}")
            step.add(src_m[sel & cross], dst_m[sel & cross], label_bits)
            step.deliver()
        owner_view = labels[inc_other]  # the post-sync local view
        # 2. Per (machine, component) part: local MWOE among outgoing edges.
        parts = PartIndex.build(labels, cluster.partition)
        inc_part = parts.part_of_vertex[inc_owner]
        outgoing = owner_view != labels[inc_owner]
        if not outgoing.any():
            break
        # Select min-weight outgoing incidence per part (stable lexsort).
        cand = np.nonzero(outgoing)[0]
        order = np.lexsort((cluster.inc_weight_of(cand), inc_part[cand]))
        cand_sorted = cand[order]
        part_sorted = inc_part[cand_sorted]
        first = np.ones(cand_sorted.size, dtype=bool)
        first[1:] = part_sorted[1:] != part_sorted[:-1]
        best_inc = cand_sorted[first]  # one incidence per part with outgoing
        best_part = inc_part[best_inc]
        # 3. Candidates to the leader's home machine (leader = label vertex).
        leader_home = cluster.partition.home[parts.part_label[best_part]]
        step = CommStep(cluster.ledger, f"nosketch-candidates:phase-{phase}")
        step.add(parts.part_machine[best_part], leader_home, edge_bits)
        step.deliver()
        # Leader-side global MWOE per component.
        comp_of_best = parts.comp_of_part[best_part]
        c = parts.n_components
        order2 = np.lexsort((cluster.inc_weight_of(best_inc), comp_of_best))
        bi = best_inc[order2]
        bc = comp_of_best[order2]
        first2 = np.ones(bi.size, dtype=bool)
        first2[1:] = bc[1:] != bc[:-1]
        mwoe_inc = bi[first2]
        mwoe_comp = bc[first2]
        found = np.zeros(c, dtype=bool)
        found[mwoe_comp] = True
        internal = np.full(c, -1, dtype=np.int64)
        foreign = np.full(c, -1, dtype=np.int64)
        nbr = np.full(c, -1, dtype=np.int64)
        internal[mwoe_comp] = inc_owner[mwoe_inc]
        foreign[mwoe_comp] = inc_other[mwoe_inc]
        nbr[mwoe_comp] = labels[inc_other[mwoe_inc]]
        weight = np.full(c, np.nan, dtype=np.float64)
        weight[mwoe_comp] = cluster.inc_weight_of(mwoe_inc)
        selection = OutgoingSelection(
            comp_proxy=cluster.partition.home[parts.comp_labels],  # leader homes
            found=found,
            internal_vertex=internal,
            foreign_vertex=foreign,
            neighbor_label=nbr,
            edge_weight=weight,
        )
        forest = build_drr_forest(parts, selection, shared.rank_stream(phase))
        kids = np.nonzero(forest.parent >= 0)[0]
        if kids.size == 0:
            break
        out_u.append(internal[kids])
        out_v.append(foreign[kids])
        out_w.append(weight[kids])
        # 4. Merge announcement: each merging leader broadcasts
        # (old_label -> new_label) to ALL machines — the Theta~(n/k) step.
        ann = CommStep(cluster.ledger, f"nosketch-announce:phase-{phase}")
        leader_homes = cluster.partition.home[parts.comp_labels[kids]]
        for mid in range(k):
            ann.add(leader_homes, mid, 2 * label_bits)
        ann.deliver()
        # Apply the merges locally on every machine (every machine holds
        # the full table): each vertex takes its tree root's label.
        new_labels = forest.comp_labels[forest.root[parts.comp_of_vertex]]
        changed = new_labels != labels
        labels = new_labels
    eu = np.concatenate(out_u) if out_u else np.empty(0, dtype=np.int64)
    ev = np.concatenate(out_v) if out_v else np.empty(0, dtype=np.int64)
    ew = np.concatenate(out_w) if out_w else np.empty(0, dtype=np.float64)
    return NoSketchResult(
        labels=labels,
        n_components=int(np.unique(labels).size),
        rounds=cluster.ledger.total_rounds - rounds_before,
        phases=phases,
        total_bits=cluster.ledger.total_bits - bits_before,
        edges_u=eu,
        edges_v=ev,
        total_weight=float(ew.sum()),
    )
