"""The O~(n/k^2)-round connectivity algorithm (Theorem 1).

Boruvka-style phase structure (Section 2.1):

    repeat O(log n) times:
      1. distribute per-phase shared randomness from M1        (Sec. 2.2)
      2. every component samples one outgoing edge via linear
         sketches combined at random proxy machines            (Sec. 2.3-2.4)
      3. build the DRR forest over components and merge each
         tree level-wise, relabeling vertices                  (Sec. 2.5)
    until no component has an outgoing edge.

The run terminates after at most ``12 log2 n`` phases w.h.p. (Lemma 7);
each phase costs O~(n/k^2) rounds (Lemmas 1-6), all of which is *measured*
by the cluster's :class:`~repro.cluster.ledger.RoundLedger` rather than
asserted.

The sampled outgoing edges of non-root components form a spanning forest
of G; they are retained with their owning proxy machine, satisfying the
relaxed output criterion of Theorem 2(a) ("each edge is output by at least
one machine").

The phase loop is :func:`boruvka_phases`; Theorem 2's MST
(:mod:`repro.core.mst`) runs the same loop with its own step 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.cluster.shared_random import SharedRandomness
from repro.core.drr import build_drr_forest, charge_forest_build, merge_forest
from repro.core.labels import PartIndex, canonical_labels, initial_labels
from repro.core.outgoing import OutgoingSelection, cut_incidences, select_outgoing_edges
from repro.core.proxy import proxy_of_labels
from repro.runtime.config import SketchConfig, resolve_sketch
from repro.util.bits import bits_for_id

__all__ = [
    "ConnectivityResult",
    "PhaseStats",
    "boruvka_phases",
    "component_sizes_distributed",
    "connected_components_distributed",
    "count_components_distributed",
]


@dataclass(frozen=True)
class PhaseStats:
    """Diagnostics of one Boruvka phase (feeds the Lemma-6/7 experiments)."""

    phase: int
    components_start: int
    components_end: int
    edges_sampled: int
    drr_max_depth: int
    merge_iterations: int
    rounds: int


@dataclass
class ConnectivityResult:
    """Output of a distributed connectivity run.

    Attributes
    ----------
    labels:
        ``int64[n]``; final component label per vertex (two vertices share
        a label iff they are connected, w.h.p.).
    n_components:
        Number of distinct labels.
    rounds:
        Total simulated k-machine rounds.
    phases:
        Boruvka phases executed.
    converged:
        True if the algorithm reached the no-outgoing-edge fixpoint within
        the phase budget.
    forest_u / forest_v:
        Endpoints of the spanning-forest edges collected from merges.
    forest_machine:
        ``int64[F]``; the machine (component proxy) that output each
        forest edge — the relaxed output criterion.
    phase_stats:
        Per-phase diagnostics.
    """

    labels: np.ndarray
    n_components: int
    rounds: int
    phases: int
    converged: bool
    forest_u: np.ndarray
    forest_v: np.ndarray
    forest_machine: np.ndarray
    phase_stats: list[PhaseStats] = field(default_factory=list)

    def canonical(self) -> np.ndarray:
        """Labels normalized to min-vertex-id per component (for comparisons)."""
        return canonical_labels(self.labels)

    def spanning_forest(self):
        """The collected merge edges as a :class:`~repro.graphs.graph.Graph`.

        The forest spans every component (same component structure as the
        input graph) and is cycle-free — the Theorem 2(a) output object.
        """
        from repro.graphs.graph import Graph

        return Graph.from_edges(self.labels.size, self.forest_u, self.forest_v)


def _charge_termination_check(cluster: KMachineCluster, phase: int) -> int:
    """All machines report a local 1-bit 'any component sampled an edge?'
    flag to M1, which broadcasts the verdict — O(1) rounds.

    Proxy machines hold the per-component outcomes, so the OR-aggregation
    is local before the k-1 single-bit messages are sent.
    """
    k = cluster.k
    up = CommStep(cluster.ledger, f"termination:phase-{phase}")
    others = np.arange(1, k, dtype=np.int64)
    up.add(others, 0, 1)
    rounds = up.deliver()
    down = CommStep(cluster.ledger, f"termination-bcast:phase-{phase}")
    down.add(0, others, 1)
    return rounds + down.deliver()


def connected_components_distributed(
    cluster: KMachineCluster,
    seed: int = 0,
    *,
    repetitions: int | None = None,
    hash_family: str | None = None,
    sketch: SketchConfig | None = None,
    max_phases: int | None = None,
    charge_shared_randomness: bool = True,
) -> ConnectivityResult:
    """Run the Theorem-1 algorithm on ``cluster``; charges its ledger.

    This is the implementation behind the ``"connectivity"`` registry entry
    (see :mod:`repro.runtime`); prefer ``Session.run("connectivity", ...)``
    for new code — it adds config provenance and the RunReport envelope.

    Parameters
    ----------
    cluster:
        The distributed input (graph + partition + topology + ledger).
    seed:
        Master seed of M1's shared randomness.
    repetitions / hash_family / sketch:
        Sketch parameters, either as explicit kwargs or one
        :class:`~repro.runtime.config.SketchConfig` (explicit kwargs win);
        ``'polynomial'`` gives the provable Theta(log n)-wise independent
        construction, ``'prf'`` the fast path (ablation-verified, see
        DESIGN.md).
    max_phases:
        Phase budget; defaults to the Lemma-7 bound ``ceil(12 log2 n)``.
    charge_shared_randomness:
        Charge the per-phase Section-2.2 dissemination (disable only in
        ablations isolating other cost terms).
    """
    repetitions, hash_family = resolve_sketch(sketch, repetitions, hash_family)
    shared = SharedRandomness(master_seed=seed, n=cluster.n, k=cluster.k)

    def select(phase, labels, parts, cut):
        # Each component samples one outgoing edge; a zero sketch everywhere
        # means no outgoing edge remains.
        selection = select_outgoing_edges(
            cluster,
            shared,
            labels,
            phase,
            parts=parts,
            live=cut,
            repetitions=repetitions,
            hash_family=hash_family,
        )
        _charge_termination_check(cluster, phase)
        return selection, bool(selection.sketch_nonzero.any())

    return boruvka_phases(
        cluster,
        shared,
        select,
        max_phases=max_phases,
        charge_shared_randomness=charge_shared_randomness,
    )


def boruvka_phases(
    cluster: KMachineCluster,
    shared: SharedRandomness,
    select: Callable[..., tuple[OutgoingSelection, bool]],
    *,
    max_phases: int | None,
    charge_shared_randomness: bool,
    merge_from: int = 1,
    on_forest: Callable[..., None] | None = None,
) -> ConnectivityResult:
    """The Boruvka phase loop shared by Theorems 1 and 2 (Section 2.1).

    Section 3.1 builds the MST by changing only the edge each component
    selects, so the rest lives here: the phase budget, the shared-randomness
    charge, the part structure and cut-incidence index, the stop-or-retry
    decision, the DRR build, charge and merge, and the forest edges.

    ``select(phase, labels, parts, cut)`` returns one selection over the
    components of ``parts`` and whether any outgoing edge remains.
    ``on_forest(phase, selection, kids)`` sees the merge edges (those of the
    non-root components ``kids``) before the merge, whose iterations are
    numbered from ``merge_from``.  The step order is behaviour: fault draws
    and churn events key on the bulk-step index.
    """
    n = cluster.n
    labels = initial_labels(n)
    budget = max_phases if max_phases is not None else max(1, math.ceil(12 * math.log2(max(n, 2))))
    stats: list[PhaseStats] = []
    forest_u: list[np.ndarray] = []
    forest_v: list[np.ndarray] = []
    forest_m: list[np.ndarray] = []
    converged = False
    # Retry phases leave the labels untouched, so the part structure is
    # provably identical to the previous phase's; it is rebuilt, and the
    # cut-incidence index contracted, only after a merge actually changed
    # the labels (DESIGN.md §9).
    parts: PartIndex | None = None
    cut: np.ndarray | None = None
    # Initial labels are the vertex ids, so the pre-loop component count
    # is exactly n (keeps a max_phases=0 call honest without an upfront
    # np.unique pass).
    n_components = int(labels.size)
    for phase in range(1, budget + 1):
        rounds_before = cluster.ledger.total_rounds
        if charge_shared_randomness:
            shared.charge_phase_distribution(cluster.ledger, phase)
        if parts is None:
            parts = PartIndex.build(labels, cluster.partition)
            cut = cut_incidences(cluster, labels, cut)
            n_components = parts.n_components
        components_start = n_components
        selection, any_outgoing = select(phase, labels, parts, cut)
        drr_max_depth = merge_iterations = 0
        if selection.found.any():
            forest = build_drr_forest(parts, selection, shared.rank_stream(phase))
            charge_forest_build(cluster, selection, forest, phase)
            # Record the merge edges (non-root components' selected edges):
            # the proxies already hold them, giving the relaxed output
            # criterion.
            kids = np.nonzero(forest.parent >= 0)[0]
            if kids.size:
                forest_u.append(selection.internal_vertex[kids])
                forest_v.append(selection.foreign_vertex[kids])
                forest_m.append(selection.comp_proxy[kids])
                if on_forest is not None:
                    on_forest(phase, selection, kids)
            merge = merge_forest(cluster, shared, parts, forest, phase, first_iteration=merge_from)
            labels, n_components = merge.labels, merge.n_components
            drr_max_depth, merge_iterations = forest.max_depth, merge.iterations
            parts = None  # labels changed: rebuild the part structure next phase
        else:
            # Nothing was selected.  With no outgoing edge left (w.h.p.) the
            # labels are final; otherwise every sample failed and the phase
            # is retried with fresh randomness.  ``any_outgoing`` is
            # deliberately not ``found.any()``: recovery can fail on a
            # nonzero sketch (the l0-sampler's constant failure probability
            # per repetition).
            converged = not any_outgoing
        stats.append(
            PhaseStats(
                phase=phase,
                components_start=components_start,
                components_end=n_components,
                edges_sampled=int(selection.found.sum()),
                drr_max_depth=drr_max_depth,
                merge_iterations=merge_iterations,
                rounds=cluster.ledger.total_rounds - rounds_before,
            )
        )
        if converged:
            break
    fu = np.concatenate(forest_u) if forest_u else np.empty(0, dtype=np.int64)
    fv = np.concatenate(forest_v) if forest_v else np.empty(0, dtype=np.int64)
    fm = np.concatenate(forest_m) if forest_m else np.empty(0, dtype=np.int64)
    return ConnectivityResult(
        labels=labels,
        n_components=n_components,
        rounds=cluster.ledger.total_rounds,
        phases=len(stats),
        converged=converged,
        forest_u=fu,
        forest_v=fv,
        forest_machine=fm,
        phase_stats=stats,
    )


def component_sizes_distributed(
    cluster: KMachineCluster, seed: int = 0, **kwargs: object
) -> tuple[dict[int, int], ConnectivityResult]:
    """Component sizes via the proxy-aggregation pattern of Section 2.6.

    After connectivity stabilizes, each machine sends, per component part
    it hosts, the part's vertex count to the component's proxy
    (O~(n/k^2) rounds by Lemma 1); proxies sum the counts and forward one
    (label, size) pair each to M1.  Returns ``{label: size}`` plus the
    underlying connectivity result.
    """
    result = connected_components_distributed(cluster, seed, **kwargs)  # type: ignore[arg-type]
    shared = SharedRandomness(master_seed=seed, n=cluster.n, k=cluster.k)
    parts = PartIndex.build(result.labels, cluster.partition)
    stream = shared.proxy_stream(0, 1)
    comp_proxy = proxy_of_labels(stream, parts.comp_labels, cluster.k)
    count_bits = bits_for_id(max(cluster.n, 2))
    up = CommStep(cluster.ledger, "sizes:part-to-proxy")
    up.add(parts.part_machine, comp_proxy[parts.comp_of_part], 2 * count_bits)
    up.deliver()
    fwd = CommStep(cluster.ledger, "sizes:proxy-to-m1")
    fwd.add(comp_proxy, 0, 2 * count_bits)
    fwd.deliver()
    sizes = np.bincount(parts.comp_of_vertex, minlength=parts.n_components)
    result.rounds = cluster.ledger.total_rounds
    return {
        int(lab): int(sz) for lab, sz in zip(parts.comp_labels, sizes)
    }, result


def count_components_distributed(
    cluster: KMachineCluster, seed: int = 0, **kwargs: object
) -> tuple[int, ConnectivityResult]:
    """The Section-2.6 component-counting protocol on top of connectivity.

    After the labels stabilize, every machine sends "YES" to the proxy of
    each label it hosts; proxies forward the distinct labels they heard to
    machine M1, which outputs the count.  Both steps are charged.
    """
    result = connected_components_distributed(cluster, seed, **kwargs)  # type: ignore[arg-type]
    shared = SharedRandomness(master_seed=seed, n=cluster.n, k=cluster.k)
    parts = PartIndex.build(result.labels, cluster.partition)
    stream = shared.proxy_stream(0, 0)
    comp_proxy = proxy_of_labels(stream, parts.comp_labels, cluster.k)
    label_bits = bits_for_id(max(cluster.n, 2))
    yes = CommStep(cluster.ledger, "count:yes-to-proxy")
    yes.add(parts.part_machine, comp_proxy[parts.comp_of_part], label_bits)
    yes.deliver()
    fwd = CommStep(cluster.ledger, "count:proxy-to-m1")
    fwd.add(comp_proxy, 0, label_bits)
    fwd.deliver()
    result.rounds = cluster.ledger.total_rounds
    return result.n_components, result
