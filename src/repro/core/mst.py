"""Distributed MST via sketch-based Boruvka with edge elimination (Theorem 2).

Section 3.1: the connectivity procedure is modified so that the edge each
component selects is its *minimum-weight outgoing edge* (MWOE) w.h.p.  Per
phase, each component C runs an elimination loop:

    e_0 <- random outgoing edge (unrestricted sketch)
    repeat:
        proxy broadcasts w(e_t) to C's parts;
        parts re-sketch with all slots of weight >= w(e_t) zeroed out;
        proxy samples e_{t+1} among strictly lighter outgoing edges
    until the restricted sketch is the zero vector
      -> e_t is exactly the MWOE.

The paper runs a fixed t = Theta(log n) iterations and gets the MWOE
w.h.p.; we iterate to the verified zero-sketch fixpoint by default (each
iteration halves the candidate's weight-rank in expectation, so the loop
length is Theta(log n) w.h.p. — same bound, but the outcome is certified).
A fixed-budget mode (``strict_elimination_budget``) reproduces the paper's
variant for the ablation ``bench_ablation_elimination``.

Output criteria (both provided, per Theorem 2):

* **relaxed** — each MST edge is known to the proxy machine that selected
  it: no extra communication, O~(n/k^2) rounds total.
* **strict** — each MST edge is additionally announced to the home
  machines of both endpoints: on skewed graphs (e.g. stars) some machine
  must receive Omega(n) bits, costing Theta~(n/k) rounds — the Theorem
  2(b) separation measured by ``bench_mst``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.cluster.shared_random import SharedRandomness
from repro.core.drr import build_drr_forest, charge_forest_build, merge_forest
from repro.core.labels import PartIndex, initial_labels
from repro.core.outgoing import OutgoingSelection, cut_incidences, select_outgoing_edges
from repro.core.proxy import proxies_to_parts
from repro.runtime.config import SketchConfig, resolve_sketch
from repro.util.bits import bits_for_id
from repro.util.rng import derive_seed

__all__ = ["MSTResult", "MSTPhaseStats", "minimum_spanning_tree_distributed"]


@dataclass(frozen=True)
class MSTPhaseStats:
    """Diagnostics of one MST phase."""

    phase: int
    components_start: int
    components_end: int
    elimination_iterations: int
    mwoe_certified: int
    mwoe_uncertified: int
    rounds: int


@dataclass
class MSTResult:
    """Output of a distributed MST run.

    Attributes
    ----------
    edges_u / edges_v / edge_weights:
        The spanning-forest edges (MST edges w.h.p.; exact when every
        phase certified its MWOEs — see ``certified``).
    owner_machine:
        The proxy machine that output each edge (relaxed criterion).
    total_weight:
        Sum of the selected edge weights.
    rounds / phases / converged:
        Run metrics (rounds includes strict-output announcements if any).
    certified:
        True if every selected edge was certified as an exact MWOE by the
        zero-sketch test (guaranteed MST when edge weights are unique).
    labels:
        Final component labels (for forests on disconnected inputs).
    """

    edges_u: np.ndarray
    edges_v: np.ndarray
    edge_weights: np.ndarray
    owner_machine: np.ndarray
    total_weight: float
    rounds: int
    phases: int
    converged: bool
    certified: bool
    labels: np.ndarray
    phase_stats: list[MSTPhaseStats] = field(default_factory=list)

    @property
    def n_edges(self) -> int:
        """Number of selected spanning-forest edges."""
        return int(self.edges_u.size)


def minimum_spanning_tree_distributed(
    cluster: KMachineCluster,
    seed: int = 0,
    *,
    repetitions: int | None = None,
    hash_family: str | None = None,
    sketch: SketchConfig | None = None,
    max_phases: int | None = None,
    strict_elimination_budget: int | None = None,
    output: str = "relaxed",
    charge_shared_randomness: bool = True,
) -> MSTResult:
    """Run the Theorem-2 MST algorithm on ``cluster``; charges its ledger.

    This is the implementation behind the ``"mst"`` registry entry (see
    :mod:`repro.runtime`); prefer ``Session.run("mst", ...)`` for new code.
    Sketch parameters follow the same explicit-kwargs-over-``sketch``
    precedence as :func:`~repro.core.connectivity.connected_components_distributed`.

    Parameters
    ----------
    output:
        ``'relaxed'`` (Theorem 2a) or ``'strict'`` (Theorem 2b, edges
        announced to both endpoint home machines).
    strict_elimination_budget:
        If set, run exactly this many elimination iterations per phase (the
        paper's fixed t = Theta(log n)); otherwise iterate to the certified
        zero-sketch fixpoint (with a 4 log2 n + 8 safety cap).
    """
    if output not in ("relaxed", "strict"):
        raise ValueError(f"output must be 'relaxed' or 'strict', got {output!r}")
    repetitions, hash_family = resolve_sketch(sketch, repetitions, hash_family)
    n, k = cluster.n, cluster.k
    shared = SharedRandomness(master_seed=seed, n=n, k=k)
    labels = initial_labels(n)
    budget = max_phases if max_phases is not None else max(1, math.ceil(12 * math.log2(max(n, 2))))
    elim_cap = (
        strict_elimination_budget
        if strict_elimination_budget is not None
        else 4 * max(1, math.ceil(math.log2(max(n, 2)))) + 8
    )
    stats: list[MSTPhaseStats] = []
    out_u: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    out_w: list[np.ndarray] = []
    out_m: list[np.ndarray] = []
    converged = False
    certified = True
    phases = 0
    id_bits = bits_for_id(max(n, 2))
    # As in connectivity: retry phases (no merge) keep the labels, so the
    # part structure and the cut-incidence index carry over unchanged.
    parts = None
    cut = None
    for phase in range(1, budget + 1):
        phases = phase
        rounds_before = cluster.ledger.total_rounds
        if charge_shared_randomness:
            shared.charge_phase_distribution(cluster.ledger, phase)
        if parts is None:
            parts = PartIndex.build(labels, cluster.partition)
            cut = cut_incidences(cluster, labels, cut)
        c = parts.n_components
        bound = np.full(c, np.inf, dtype=np.float64)
        best_slot = np.full(c, -1, dtype=np.int64)
        best_internal = np.full(c, -1, dtype=np.int64)
        best_foreign = np.full(c, -1, dtype=np.int64)
        best_label = np.full(c, -1, dtype=np.int64)
        best_weight = np.full(c, np.nan, dtype=np.float64)
        have_cand = np.zeros(c, dtype=bool)
        cert = np.zeros(c, dtype=bool)
        active = np.ones(c, dtype=bool)
        any_outgoing = False  # did any component's unrestricted sketch exist?
        last_proxy = None
        iterations = 0
        for t in range(elim_cap):
            iterations = t + 1
            selection = select_outgoing_edges(
                cluster,
                shared,
                labels,
                phase,
                iteration=t,
                sketch_seed=derive_seed(shared.sketch_seed(phase), t),
                parts=parts,
                live=cut,
                repetitions=repetitions,
                hash_family=hash_family,
                weight_bound_per_comp=np.where(active, bound, 0.0),
                want_weights=True,
            )
            last_proxy = selection.comp_proxy
            if t == 0:
                # The unrestricted (bound = inf) sketches tell whether any
                # outgoing edge exists at all — the true termination signal
                # (sampling failures are retried, not treated as absence).
                any_outgoing = bool(selection.sketch_nonzero.any())
            # Components whose restricted sketch vanished: current candidate
            # is certified as the exact MWOE (or no outgoing edge exists).
            done_now = active & ~selection.sketch_nonzero
            cert[done_now & have_cand] = True
            active &= ~done_now
            # Components that sampled a strictly lighter edge: adopt it.
            upd = active & selection.found
            if upd.any():
                idx = np.nonzero(upd)[0]
                best_slot[idx] = selection.slot[idx]
                best_internal[idx] = selection.internal_vertex[idx]
                best_foreign[idx] = selection.foreign_vertex[idx]
                best_label[idx] = selection.neighbor_label[idx]
                best_weight[idx] = selection.edge_weight[idx]
                bound[idx] = selection.edge_weight[idx]
                have_cand[idx] = True
                # The proxy broadcasts the new threshold w(e_t) to the
                # component's parts (Section 3.1).
                part_upd = np.nonzero(upd[parts.comp_of_part])[0]
                proxies_to_parts(
                    cluster,
                    f"mwoe-threshold:phase-{phase}-it-{t}",
                    parts.part_machine[part_upd],
                    selection.comp_proxy[parts.comp_of_part[part_upd]],
                    64 + id_bits,
                )
            if not active.any():
                break
        if active.any():
            # Fixed-budget mode (or cap hit): surviving candidates are the
            # paper's w.h.p.-MWOE edges, but uncertified.
            certified = certified and not (active & have_cand).any()
        if not have_cand.any():
            stats.append(
                MSTPhaseStats(
                    phase=phase,
                    components_start=c,
                    components_end=c,
                    elimination_iterations=iterations,
                    mwoe_certified=int(cert.sum()),
                    mwoe_uncertified=0,
                    rounds=cluster.ledger.total_rounds - rounds_before,
                )
            )
            if not any_outgoing:
                converged = True  # zero sketches everywhere: forest is final
                break
            continue  # outgoing edges exist but sampling failed; retry phase
        merged_selection = OutgoingSelection(
            parts=parts,
            comp_proxy=last_proxy,
            sketch_nonzero=have_cand.copy(),
            found=have_cand.copy(),
            slot=best_slot,
            internal_vertex=best_internal,
            foreign_vertex=best_foreign,
            neighbor_label=best_label,
            edge_weight=best_weight,
        )
        forest = build_drr_forest(parts, merged_selection, shared.rank_stream(phase))
        charge_forest_build(cluster, merged_selection, forest, phase)
        kids = np.nonzero(forest.parent >= 0)[0]
        if kids.size:
            ku = best_internal[kids]
            kv = best_foreign[kids]
            out_u.append(ku)
            out_v.append(kv)
            out_w.append(best_weight[kids])
            out_m.append(last_proxy[kids])
            if output == "strict":
                # Theorem 2(b): announce each selected edge to the home
                # machines of both endpoints.
                bits = 2 * id_bits + 64
                step = CommStep(cluster.ledger, f"strict-output:phase-{phase}")
                step.add(last_proxy[kids], cluster.partition.home[ku], bits)
                step.add(last_proxy[kids], cluster.partition.home[kv], bits)
                step.deliver()
        merge = merge_forest(cluster, shared, parts, forest, phase, first_iteration=elim_cap + 1)
        labels = merge.labels
        parts = None  # labels changed: rebuild the part structure next phase
        stats.append(
            MSTPhaseStats(
                phase=phase,
                components_start=c,
                components_end=merge.n_components,
                elimination_iterations=iterations,
                mwoe_certified=int(cert.sum()),
                mwoe_uncertified=int((have_cand & ~cert).sum()),
                rounds=cluster.ledger.total_rounds - rounds_before,
            )
        )
    eu = np.concatenate(out_u) if out_u else np.empty(0, dtype=np.int64)
    ev = np.concatenate(out_v) if out_v else np.empty(0, dtype=np.int64)
    ew = np.concatenate(out_w) if out_w else np.empty(0, dtype=np.float64)
    em = np.concatenate(out_m) if out_m else np.empty(0, dtype=np.int64)
    return MSTResult(
        edges_u=eu,
        edges_v=ev,
        edge_weights=ew,
        owner_machine=em,
        total_weight=float(ew.sum()),
        rounds=cluster.ledger.total_rounds,
        phases=phases,
        converged=converged,
        certified=certified,
        labels=labels,
        phase_stats=stats,
    )
