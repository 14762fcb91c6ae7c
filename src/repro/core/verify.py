"""Graph verification problems in O~(n/k^2) rounds (Theorem 4).

Section 3.3 reduces eight verification problems to connectivity; every
function here runs the Theorem-1 algorithm on a derived instance and
charges all communication to the input cluster's ledger.  The derived
instances are constructed with machine-local information only:

* subgraph masks — each machine knows which of its edges belong to the
  queried subgraph H (that is how the input is specified);
* the bipartite double cover — each machine builds both copies of its own
  vertices (the reduction of [2], Section 3.3);
* edge/vertex removals — local masks.

Every function returns a :class:`VerificationResult` with the boolean
answer and the rounds consumed.

All functions forward their ``**kw`` to the connectivity core, so they
take its ``sketch=SketchConfig(...)`` and ``max_phases`` arguments.  The
input-free problems (bipartiteness, cycle containment, s-t connectivity)
are also runnable through the ``"verify"`` registry entry of
:mod:`repro.runtime` via ``params={"problem": ...}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.cluster.partition import VertexPartition
from repro.core.connectivity import connected_components_distributed
from repro.graphs.graph import Graph
from repro.util.bits import bits_for_count, bits_for_id
from repro.util.rng import derive_seed

__all__ = [
    "VerificationResult",
    "bipartiteness",
    "cut_verification",
    "cycle_containment",
    "e_cycle_containment",
    "edge_on_all_paths",
    "spanning_connected_subgraph",
    "spanning_tree_verification",
    "st_connectivity",
    "st_cut_verification",
]


@dataclass(frozen=True)
class VerificationResult:
    """Answer plus accounting for one verification query."""

    answer: bool
    rounds: int
    detail: dict = field(default_factory=dict)


def _run_connectivity(instance: KMachineCluster, seed: int, tag: int, **kw: object):
    """Connectivity on the input cluster or a derived instance of it.

    A derived instance (:meth:`KMachineCluster.with_graph`) charges the
    input's ledger; a problem on G itself runs on the input cluster, whose
    incidence arrays already exist.
    """
    return connected_components_distributed(instance, seed=derive_seed(seed, tag), **kw)  # type: ignore[arg-type]


def _charge_pair_check(cluster: KMachineCluster, s: int, t: int) -> int:
    """home(s) ships label(s) to home(t) for the comparison — O(1) rounds."""
    step = CommStep(cluster.ledger, "verify:pair-check")
    step.add(
        int(cluster.partition.home[s]),
        int(cluster.partition.home[t]),
        bits_for_id(max(cluster.n, 2)),
    )
    return step.deliver()


def _charge_count_aggregation(cluster: KMachineCluster, maximum: int) -> int:
    """Every machine reports one local count to M1 — O(1) rounds."""
    k = cluster.k
    step = CommStep(cluster.ledger, "verify:count-aggregate")
    others = np.setdiff1d(np.arange(k, dtype=np.int64), np.array([0]))
    step.add(others, 0, bits_for_count(max(maximum, 1)))
    return step.deliver()


def spanning_connected_subgraph(
    cluster: KMachineCluster, h_mask: np.ndarray, seed: int = 0, **kw: object
) -> VerificationResult:
    """Is the subgraph H (given as an edge mask over G) spanning and connected?

    H contains all vertices by definition; it is an SCS iff it has exactly
    one connected component.
    """
    h = np.asarray(h_mask, dtype=bool)
    if h.shape != (cluster.m,):
        raise ValueError("h_mask must have one entry per edge of G")
    before = cluster.ledger.total_rounds
    res = _run_connectivity(cluster.with_graph(cluster.graph.subgraph(h)), seed, 0x5C5, **kw)
    return VerificationResult(
        answer=res.n_components == 1,
        rounds=cluster.ledger.total_rounds - before,
        detail={"n_components": res.n_components},
    )


def spanning_tree_verification(
    cluster: KMachineCluster, h_mask: np.ndarray, seed: int = 0, **kw: object
) -> VerificationResult:
    """Is the subgraph H a spanning *tree* of G?

    ST verification (the problem Klauck et al. solve in O~(n/k) and whose
    relaxed-output variant this paper accelerates): H is a spanning tree
    iff it is a spanning connected subgraph with exactly n - 1 edges.  The
    edge count is aggregated at M1 (each machine counts the H-edges whose
    smaller endpoint it homes), O(1) extra rounds.
    """
    h = np.asarray(h_mask, dtype=bool)
    if h.shape != (cluster.m,):
        raise ValueError("h_mask must have one entry per edge of G")
    before = cluster.ledger.total_rounds
    res = _run_connectivity(cluster.with_graph(cluster.graph.subgraph(h)), seed, 0x57E, **kw)
    _charge_count_aggregation(cluster, cluster.m)
    n_edges = int(h.sum())
    answer = res.n_components == 1 and n_edges == cluster.n - 1
    return VerificationResult(
        answer=answer,
        rounds=cluster.ledger.total_rounds - before,
        detail={"n_components": res.n_components, "h_edges": n_edges},
    )


def cut_verification(
    cluster: KMachineCluster, cut_mask: np.ndarray, seed: int = 0, **kw: object
) -> VerificationResult:
    """Is the given edge set a cut of G?  (Remove it; check disconnection.)"""
    cmask = np.asarray(cut_mask, dtype=bool)
    if cmask.shape != (cluster.m,):
        raise ValueError("cut_mask must have one entry per edge of G")
    before = cluster.ledger.total_rounds
    res = _run_connectivity(cluster.with_graph(cluster.graph.subgraph(~cmask)), seed, 0xC07, **kw)
    return VerificationResult(
        answer=res.n_components > 1,
        rounds=cluster.ledger.total_rounds - before,
        detail={"n_components": res.n_components},
    )


def st_connectivity(
    cluster: KMachineCluster, s: int, t: int, seed: int = 0, **kw: object
) -> VerificationResult:
    """Are s and t in the same connected component of G?"""
    before = cluster.ledger.total_rounds
    res = _run_connectivity(cluster, seed, 0x57C, **kw)
    _charge_pair_check(cluster, s, t)
    return VerificationResult(
        answer=bool(res.labels[s] == res.labels[t]),
        rounds=cluster.ledger.total_rounds - before,
        detail={"n_components": res.n_components},
    )


def edge_on_all_paths(
    cluster: KMachineCluster, u: int, v: int, s: int, t: int, seed: int = 0, **kw: object
) -> VerificationResult:
    """Does the edge {u, v} lie on every s-t path?

    Per Section 3.3: yes iff s and t are disconnected in G minus {u, v}
    (meaningful when s and t are connected in G).
    """
    eid = cluster.graph.find_edge_id(u, v)
    before = cluster.ledger.total_rounds
    res = _run_connectivity(cluster.with_graph(cluster.graph.without_edge(eid)), seed, 0xEA9, **kw)
    _charge_pair_check(cluster, s, t)
    return VerificationResult(
        answer=bool(res.labels[s] != res.labels[t]),
        rounds=cluster.ledger.total_rounds - before,
    )


def st_cut_verification(
    cluster: KMachineCluster, cut_mask: np.ndarray, s: int, t: int, seed: int = 0, **kw: object
) -> VerificationResult:
    """Is the given edge set an s-t cut?  (Remove it; check s-t disconnection.)"""
    cmask = np.asarray(cut_mask, dtype=bool)
    if cmask.shape != (cluster.m,):
        raise ValueError("cut_mask must have one entry per edge of G")
    before = cluster.ledger.total_rounds
    res = _run_connectivity(cluster.with_graph(cluster.graph.subgraph(~cmask)), seed, 0x57C07, **kw)
    _charge_pair_check(cluster, s, t)
    return VerificationResult(
        answer=bool(res.labels[s] != res.labels[t]),
        rounds=cluster.ledger.total_rounds - before,
    )


def cycle_containment(cluster: KMachineCluster, seed: int = 0, **kw: object) -> VerificationResult:
    """Does G contain any cycle?  (m > n - #components.)

    The edge count is aggregated at M1: each machine counts the edges whose
    smaller endpoint it homes (no double counting), O(1) rounds.
    """
    before = cluster.ledger.total_rounds
    res = _run_connectivity(cluster, seed, 0xCC1, **kw)
    _charge_count_aggregation(cluster, cluster.m)
    answer = cluster.m > cluster.n - res.n_components
    return VerificationResult(
        answer=answer,
        rounds=cluster.ledger.total_rounds - before,
        detail={"n_components": res.n_components, "m": cluster.m},
    )


def e_cycle_containment(
    cluster: KMachineCluster, u: int, v: int, seed: int = 0, **kw: object
) -> VerificationResult:
    """Does the edge {u, v} lie on some cycle?  (u, v connected in G - e.)"""
    eid = cluster.graph.find_edge_id(u, v)
    before = cluster.ledger.total_rounds
    res = _run_connectivity(cluster.with_graph(cluster.graph.without_edge(eid)), seed, 0xEC7, **kw)
    _charge_pair_check(cluster, u, v)
    return VerificationResult(
        answer=bool(res.labels[u] == res.labels[v]),
        rounds=cluster.ledger.total_rounds - before,
    )


def bipartiteness(cluster: KMachineCluster, seed: int = 0, **kw: object) -> VerificationResult:
    """Is G bipartite?  Via the double-cover reduction of [2] (Section 3.3).

    The double cover D(G) has vertices {v, v'} and edges (u, v'), (v, u')
    per edge {u, v} of G; G is bipartite iff cc(D(G)) = 2 * cc(G).  Both
    copies of a vertex live on its home machine, so D(G) is constructed
    with zero communication, and its connectivity run charges the input
    cluster's ledger like every other derived instance.
    """
    before = cluster.ledger.total_rounds
    g = cluster.graph
    n = g.n
    d_u = np.concatenate([g.edges_u, g.edges_v])
    d_v = np.concatenate([g.edges_v + n, g.edges_u + n])
    double = Graph.from_edges(2 * n, d_u, d_v)
    home = cluster.partition.home
    both = VertexPartition(
        k=cluster.k, home=np.concatenate([home, home]), seed=cluster.partition.seed
    )
    res_d = _run_connectivity(cluster.with_graph(double, both), seed, 0xB1B, **kw)
    res_g = _run_connectivity(cluster, seed, 0xB1C, **kw)
    _charge_count_aggregation(cluster, 2 * n)
    answer = res_d.n_components == 2 * res_g.n_components
    return VerificationResult(
        answer=answer,
        rounds=cluster.ledger.total_rounds - before,
        detail={"cc_double": res_d.n_components, "cc_g": res_g.n_components},
    )
