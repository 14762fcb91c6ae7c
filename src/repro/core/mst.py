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
from repro.core.connectivity import boruvka_phases
# perf/trace.py wraps these names here too; the driver calls the connectivity copies.
from repro.core.drr import build_drr_forest, charge_forest_build, merge_forest  # noqa: F401
from repro.core.outgoing import OutgoingSelection, select_outgoing_edges
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
    labels / n_components:
        Final component labels (for forests on disconnected inputs) and
        their number.
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
    n_components: int
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
    if strict_elimination_budget is not None and (
        not isinstance(strict_elimination_budget, int) or strict_elimination_budget < 1
    ):
        raise ValueError(
            "strict_elimination_budget must be a positive int or None, "
            f"got {strict_elimination_budget!r}"
        )
    repetitions, hash_family = resolve_sketch(sketch, repetitions, hash_family)
    n, k = cluster.n, cluster.k
    shared = SharedRandomness(master_seed=seed, n=n, k=k)
    elim_cap = (
        strict_elimination_budget
        if strict_elimination_budget is not None
        else 4 * max(1, math.ceil(math.log2(max(n, 2)))) + 8
    )
    # Per phase: the elimination_iterations, mwoe_certified and
    # mwoe_uncertified fields of its MSTPhaseStats.
    elimination: list[tuple[int, int, int]] = []
    out_w: list[np.ndarray] = []
    id_bits = bits_for_id(max(n, 2))

    def select(phase, labels, parts, cut):
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
        for t in range(elim_cap):
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
        # Candidates still active when the budget ran out (fixed-budget
        # mode, or the cap hit) are the paper's w.h.p.-MWOE edges, but
        # uncertified.
        elimination.append((t + 1, int(cert.sum()), int((have_cand & ~cert).sum())))
        mwoe = OutgoingSelection(
            parts=parts,
            comp_proxy=selection.comp_proxy,
            sketch_nonzero=have_cand,
            found=have_cand,
            slot=best_slot,
            internal_vertex=best_internal,
            foreign_vertex=best_foreign,
            neighbor_label=best_label,
            edge_weight=best_weight,
        )
        return mwoe, any_outgoing

    def on_forest(phase, mwoe, kids):
        out_w.append(mwoe.edge_weight[kids])
        if output == "strict":
            # Theorem 2(b): announce each selected edge to the home
            # machines of both endpoints.
            home = cluster.partition.home
            bits = 2 * id_bits + 64
            step = CommStep(cluster.ledger, f"strict-output:phase-{phase}")
            step.add(mwoe.comp_proxy[kids], home[mwoe.internal_vertex[kids]], bits)
            step.add(mwoe.comp_proxy[kids], home[mwoe.foreign_vertex[kids]], bits)
            step.deliver()

    res = boruvka_phases(
        cluster,
        shared,
        select,
        max_phases=max_phases,
        charge_shared_randomness=charge_shared_randomness,
        merge_from=elim_cap + 1,
        on_forest=on_forest,
    )
    stats = [
        MSTPhaseStats(s.phase, s.components_start, s.components_end, *counts, s.rounds)
        for s, counts in zip(res.phase_stats, elimination)
    ]
    ew = np.concatenate(out_w) if out_w else np.empty(0, dtype=np.float64)
    return MSTResult(
        edges_u=res.forest_u,
        edges_v=res.forest_v,
        edge_weights=ew,
        owner_machine=res.forest_machine,
        total_weight=float(ew.sum()),
        rounds=res.rounds,
        phases=res.phases,
        converged=res.converged,
        certified=not any(s.mwoe_uncertified for s in stats),
        labels=res.labels,
        n_components=res.n_components,
        phase_stats=stats,
    )
