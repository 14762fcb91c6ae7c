"""Distributed Random Ranking: forest construction and level-wise merging.

Section 2.5: after every component has sampled one outgoing edge, merging
naively along all edges could chain Theta(n) components in a path.  DRR [8]
instead has every component draw a random rank; a component attaches to its
sampled neighbor iff the neighbor's rank is *higher*, so parent pointers
strictly increase in rank — the result is a forest whose trees have depth
O(log n) w.h.p. (Lemma 6, Figure 2).

Merging proceeds level-wise from the leaves (Lemma 5): in each iteration
every current leaf relabels all of its vertices to its parent's label,
using a fresh proxy hash h_{j, rho} per iteration so the Lemma-1 balance
argument applies independently each time.  The simulation tracks that
merge at part granularity and writes the vertex labels once per phase
(:func:`merge_forest`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.cluster.shared_random import SharedRandomness
from repro.core.labels import PartIndex
from repro.core.outgoing import OutgoingSelection
from repro.core.proxy import proxy_of_labels
from repro.util.arrays import sorted_unique
from repro.util.bits import bits_for_id
from repro.util.rng import SeedStream

__all__ = ["DRRForest", "MergeOutcome", "build_drr_forest", "charge_forest_build", "merge_forest"]


@dataclass(frozen=True)
class DRRForest:
    """The DRR forest over the current components (arrays indexed by component).

    Attributes
    ----------
    comp_labels:
        ``int64[C]``; the components' labels (sorted, as in PartIndex).
    ranks:
        ``uint64[C]``; the random ranks (shared PRF of the label).
    parent:
        ``int64[C]``; component index of the parent, -1 for roots.
    parent_label:
        ``int64[C]``; the parent's label (-1 for roots).
    depth:
        ``int64[C]``; distance to the root of each tree.
    root:
        ``int64[C]``; component index of each tree's root.
    """

    comp_labels: np.ndarray
    ranks: np.ndarray
    parent: np.ndarray
    parent_label: np.ndarray
    depth: np.ndarray
    root: np.ndarray

    @property
    def n_components(self) -> int:
        """Number of components (forest nodes)."""
        return int(self.comp_labels.size)

    @property
    def max_depth(self) -> int:
        """Deepest node — the Lemma-6 quantity, O(log n) w.h.p."""
        return int(self.depth.max(initial=0))

    @property
    def n_children(self) -> np.ndarray:
        """Number of children per component."""
        valid = self.parent[self.parent >= 0]
        return np.bincount(valid, minlength=self.n_components).astype(np.int64)


def build_drr_forest(
    parts: PartIndex, selection: OutgoingSelection, rank_stream: SeedStream
) -> DRRForest:
    """Construct the forest from the sampled outgoing edges.

    Component C becomes a child of the component C' on the other side of
    its sampled edge iff rank(C') > rank(C) (ties broken by label, a
    negligible-probability event with 64-bit ranks).  Components without a
    sampled edge are isolated roots.

    Ranks are a shared PRF of the component label, so both sides of every
    comparison are computable at C's proxy without extra communication.
    """
    c = parts.n_components
    labels = parts.comp_labels
    ranks = rank_stream.keyed_u64(labels.astype(np.uint64))
    parent = np.full(c, -1, dtype=np.int64)
    parent_label = np.full(c, -1, dtype=np.int64)
    sel = np.nonzero(selection.found)[0]
    if sel.size:
        nbr_label = selection.neighbor_label[sel]
        nbr_rank = rank_stream.keyed_u64(nbr_label.astype(np.uint64))
        own_rank = ranks[sel]
        attach = (nbr_rank > own_rank) | ((nbr_rank == own_rank) & (nbr_label > labels[sel]))
        kids = sel[attach]
        if kids.size:
            parent_label[kids] = selection.neighbor_label[kids]
            parent[kids] = parts.comp_index_of_labels(parent_label[kids])
    root, depth = _roots_and_depths(parent)
    return DRRForest(
        comp_labels=labels,
        ranks=ranks,
        parent=parent,
        parent_label=parent_label,
        depth=depth,
        root=root,
    )


def _roots_and_depths(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every node's tree root and its distance to it, by pointer jumping.

    Each node keeps an ancestor pointer and the hop count to it; a pass
    replaces both with the ancestor's, doubling every pointer's reach, so
    a forest of depth d takes about log2(d) + 1 passes.  Parents have
    strictly higher (rank, label), so the pointers form no cycle.
    """
    anc = np.where(parent >= 0, parent, np.arange(parent.size, dtype=np.int64))
    depth = (parent >= 0).astype(np.int64)
    while True:
        nxt = anc[anc]
        if np.array_equal(nxt, anc):
            return anc, depth
        depth += depth[anc]
        anc = nxt


def charge_forest_build(
    cluster: KMachineCluster, selection: OutgoingSelection, forest: DRRForest, phase: int
) -> int:
    """Charge the Lemma-4 traffic: child proxies contact parent proxies.

    Each non-root component's proxy sends one O(log n)-bit message to its
    parent's proxy (announcing itself as a child) and receives a reply —
    O(n) messages total over the component graph, delivered in O~(n/k^2)
    rounds via the proxy balance argument.
    """
    kids = np.nonzero(forest.parent >= 0)[0]
    if kids.size == 0:
        return 0
    child_proxy = selection.comp_proxy[kids]
    parent_proxy = selection.comp_proxy[forest.parent[kids]]
    bits = 2 * bits_for_id(max(cluster.n, 2)) + 64  # child label + parent label + rank
    fwd = CommStep(cluster.ledger, f"drr-build:phase-{phase}")
    fwd.add(child_proxy, parent_proxy, bits)
    rounds = fwd.deliver()
    back = CommStep(cluster.ledger, f"drr-build-reply:phase-{phase}")
    back.add(parent_proxy, child_proxy, bits)
    rounds += back.deliver()
    return rounds


@dataclass(frozen=True)
class MergeOutcome:
    """Result of merging one phase's DRR forest.

    ``n_components`` counts the components after the merge: one per tree
    root, since every tree collapses into its root.
    """

    labels: np.ndarray
    iterations: int
    rounds: int
    n_components: int


def merge_forest(
    cluster: KMachineCluster,
    shared: SharedRandomness,
    parts: PartIndex,
    forest: DRRForest,
    phase: int,
    first_iteration: int = 1,
) -> MergeOutcome:
    """Level-wise merging (Lemma 5): leaves relabel into parents, bottom-up.

    Every iteration rho: (i) a fresh proxy hash h_{phase, rho} is derived
    (its dissemination is part of the per-phase shared-randomness charge);
    (ii) each current leaf's proxy broadcasts the parent label to the
    machines hosting the leaf's parts; (iii) those machines relabel their
    local vertices.  The loop runs ``max_depth`` times — O(log n) w.h.p.
    by Lemma 6.

    ``parts`` is the part structure the forest was built from.  The merge
    is simulated at part granularity, and every charge equals the one a
    per-iteration relabeling of all n vertices makes:

    * A current leaf's component is the leaf plus every descendant merged
      into it so far, so its parts are the distinct machines among the
      phase parts it has absorbed: one message per distinct
      (leaf, machine), sent from the leaf's proxy.
    * Proxies are a PRF of the label and a leaf still carries its own
      label, so only the leaves' proxies are evaluated.
    * A merged leaf's parts pass to its parent; parts that reach a root
      are final and leave the working set.
    * The relabeling ends with every vertex holding its tree root's label,
      so the labels are written once, after the last iteration.
    """
    n, k = cluster.n, cluster.k
    parent = forest.parent
    children = forest.n_children
    label_bits = bits_for_id(max(n, 2))
    # Parts still to be relabeled, as (holding forest node, machine) pairs;
    # a pair repeats once merges bring two of its parts to one node.
    pending = parent[parts.comp_of_part] >= 0
    holder = parts.comp_of_part[pending]
    machine = parts.part_machine[pending]
    is_leaf = np.zeros(forest.n_components, dtype=bool)
    leaves = np.nonzero((parent >= 0) & (children == 0))[0]
    iteration = first_iteration
    total_rounds = 0
    while leaves.size:
        stream = shared.proxy_stream(phase, iteration)
        leaf_proxy = proxy_of_labels(stream, forest.comp_labels[leaves], k)
        is_leaf[leaves] = True
        at_leaf = is_leaf[holder]
        is_leaf[leaves] = False
        key = sorted_unique(holder[at_leaf] * np.int64(k) + machine[at_leaf])
        leaf, leaf_machine = np.divmod(key, k)
        step = CommStep(cluster.ledger, f"merge-relabel:phase-{phase}-it-{iteration}")
        step.add(leaf_proxy[np.searchsorted(leaves, leaf)], leaf_machine, label_bits)
        total_rounds += step.deliver()
        up = parent[leaf]
        moving = parent[up] >= 0
        holder = np.concatenate([holder[~at_leaf], up[moving]])
        machine = np.concatenate([machine[~at_leaf], leaf_machine[moving]])
        # A parent becomes a leaf once its last child has merged.
        np.subtract.at(children, parent[leaves], 1)
        nxt = sorted_unique(parent[leaves])
        leaves = nxt[(children[nxt] == 0) & (parent[nxt] >= 0)]
        iteration += 1
    return MergeOutcome(
        labels=forest.comp_labels[forest.root[parts.comp_of_vertex]],
        iterations=iteration - first_iteration,
        rounds=total_rounds,
        n_components=int(np.count_nonzero(parent < 0)),
    )
