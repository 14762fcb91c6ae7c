"""Random edge partition (REP) model algorithms — Section 1.3 / footnote 5.

In the REP model edges (not vertices) are scattered uniformly over the k
machines, and the tight complexity for connectivity/MST is Theta~(n/k)
(lower bound via Woodruff-Zhang [47]).  The paper's footnote-5 upper bound:

1. **filter** — every machine applies the MST cycle property to its own
   edges (local Kruskal), keeping at most n-1 of them;
2. **reroute** — convert to an RVP: hash vertices to machines and ship
   every surviving edge to both endpoints' home machines —
   O(n) messages per machine over k-1 links: O~(n/k) rounds;
3. run the RVP algorithm (O~(n/k^2), dominated by step 2).

Both functions take the caller's :class:`KMachineCluster` for its graph,
its k machines and links, and its ledger; the RVP of step 2 is a derived
instance (:meth:`~repro.cluster.cluster.KMachineCluster.with_graph`), so
every step charges the caller's ledger and any fault model attached to it.

``bench_rep_vs_rvp`` contrasts the measured Theta~(n/k) here with the
Theta~(n/k^2) of the RVP-native algorithm — the paper's point that the
partition model changes the achievable complexity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.cluster.partition import random_edge_partition, random_vertex_partition
from repro.core.connectivity import connected_components_distributed
from repro.core.mst import minimum_spanning_tree_distributed
from repro.graphs.graph import Graph
from repro.graphs.unionfind import UnionFind
from repro.util.bits import bits_for_id
from repro.util.rng import derive_seed

__all__ = ["REPResult", "rep_connectivity", "rep_mst"]


@dataclass(frozen=True)
class REPResult:
    """Output of a REP-model run; ``rounds`` is the cost it charged the caller's ledger."""

    n_components: int
    total_weight: float
    rounds: int
    reroute_rounds: int
    filtered_edges: int


def _filter_local_edges(g: Graph, edge_machine: np.ndarray, k: int) -> np.ndarray:
    """Per machine, keep a max-weight-filtered spanning forest of local edges.

    The MST cycle property: the heaviest edge on any cycle is not in the
    MST, so running Kruskal on each machine's local edge set keeps every
    edge that could possibly be in the global MST (and, a fortiori,
    preserves connectivity).  Returns the kept-edge mask.
    """
    keep = np.zeros(g.m, dtype=bool)
    order = np.argsort(g.weights, kind="stable")
    for machine in range(k):
        uf = UnionFind(g.n)
        local = order[edge_machine[order] == machine]
        for eid in local:
            if uf.union(int(g.edges_u[eid]), int(g.edges_v[eid])):
                keep[eid] = True
    return keep


def _charge_reroute(
    cluster: KMachineCluster, g: Graph, keep: np.ndarray, edge_machine: np.ndarray
) -> int:
    """Ship every kept edge from its REP machine to both endpoint homes."""
    edge_bits = 2 * bits_for_id(max(g.n, 2)) + (64 if g.weighted else 0)
    sel = np.nonzero(keep)[0]
    step = CommStep(cluster.ledger, "rep:reroute")
    step.add(edge_machine[sel], cluster.partition.home[g.edges_u[sel]], edge_bits)
    step.add(edge_machine[sel], cluster.partition.home[g.edges_v[sel]], edge_bits)
    return step.deliver()


def _filter_and_reroute(
    cluster: KMachineCluster, seed: int, tag: int
) -> tuple[KMachineCluster, int, int]:
    """Steps 1 and 2 on ``cluster``'s edges and machines.

    The edges are scattered by the hash ``(seed, tag)`` and the survivors
    rerouted onto the RVP hashed by ``(seed, tag + 1)``; ``cluster``'s own
    vertex partition is not used.  Returns the RVP instance, which charges
    ``cluster``'s ledger, the reroute rounds and the kept-edge count.
    """
    g, k = cluster.graph, cluster.k
    edge_machine = random_edge_partition(g.m, k, derive_seed(seed, tag))
    keep = _filter_local_edges(g, edge_machine, k)
    rvp = cluster.with_graph(
        g.subgraph(keep), random_vertex_partition(g.n, k, derive_seed(seed, tag + 1))
    )
    return rvp, _charge_reroute(rvp, g, keep, edge_machine), int(keep.sum())


def rep_connectivity(cluster: KMachineCluster, seed: int = 0, **kw: object) -> REPResult:
    """Connectivity under the REP model: filter -> reroute -> RVP algorithm."""
    before = cluster.ledger.total_rounds
    rvp, reroute_rounds, kept = _filter_and_reroute(cluster, seed, 0xE0)
    res = connected_components_distributed(rvp, seed=derive_seed(seed, 0xE2), **kw)  # type: ignore[arg-type]
    return REPResult(
        n_components=res.n_components,
        total_weight=float("nan"),
        rounds=cluster.ledger.total_rounds - before,
        reroute_rounds=reroute_rounds,
        filtered_edges=kept,
    )


def rep_mst(cluster: KMachineCluster, seed: int = 0, **kw: object) -> REPResult:
    """MST under the REP model: the footnote-5 filter-and-convert algorithm.

    Requires a weighted graph; the local cycle-property filter keeps all
    global MST edges, so the RVP MST of the filtered graph is the MST of G.
    """
    if not cluster.graph.weighted:
        raise ValueError("rep_mst needs a weighted graph")
    before = cluster.ledger.total_rounds
    rvp, reroute_rounds, kept = _filter_and_reroute(cluster, seed, 0xE4)
    res = minimum_spanning_tree_distributed(rvp, seed=derive_seed(seed, 0xE6), **kw)  # type: ignore[arg-type]
    return REPResult(
        n_components=int(np.unique(res.labels).size),
        total_weight=res.total_weight,
        rounds=cluster.ledger.total_rounds - before,
        reroute_rounds=reroute_rounds,
        filtered_edges=kept,
    )
