"""The k-machine cluster façade: graph + partition + topology + ledger.

:class:`KMachineCluster` bundles everything an algorithm run needs and
precomputes the *incidence arrays* that both the sketching layer and the
baselines consume:

Each undirected edge {u, v} produces two incidences, one owned by each
endpoint.  For incidence i: ``inc_owner[i]`` is the owning vertex,
``inc_other[i]`` the opposite endpoint, ``inc_machine[i]`` the owner's home
machine, ``inc_slot[i]`` / ``inc_sign[i]`` the incidence-vector coordinates
(Section 2.3), ``inc_edge[i]`` the undirected edge id, ``inc_weight[i]``
its weight.  These arrays are machine-local information: machine M knows
exactly the incidences with ``inc_machine == M`` (its vertices plus their
incident edges, per the RVP model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.ledger import RoundLedger
from repro.cluster.partition import VertexPartition, random_vertex_partition
from repro.cluster.topology import ClusterTopology
from repro.graphs.graph import Graph
from repro.sketch.edgespace import incident_slots_and_signs

__all__ = ["KMachineCluster"]


@dataclass
class KMachineCluster:
    """A graph distributed over k machines, with accounting.

    Construct via :meth:`create`; algorithms charge communication to
    :attr:`ledger`.  Subroutines that run on a derived instance (a sampled
    subgraph inside min-cut, say) get one from :meth:`with_graph`, which
    charges the same ledger.
    """

    graph: Graph
    partition: VertexPartition
    topology: ClusterTopology
    ledger: RoundLedger
    # Incidence arrays (two per undirected edge); see module docstring.
    inc_owner: np.ndarray
    inc_other: np.ndarray
    inc_machine: np.ndarray
    inc_slot: np.ndarray
    inc_sign: np.ndarray
    inc_edge: np.ndarray

    @staticmethod
    def create(
        graph: Graph,
        k: int,
        seed: int,
        bandwidth_multiplier: int = 64,
        partition: VertexPartition | None = None,
        topology: ClusterTopology | None = None,
    ) -> "KMachineCluster":
        """Distribute ``graph`` over ``k`` machines under the RVP model.

        Parameters
        ----------
        graph:
            The input graph.
        k:
            Number of machines (>= 2).
        seed:
            Seed of the shared partition hash (and default for algorithms).
        bandwidth_multiplier:
            Scales the per-link O(polylog n) bandwidth.
        partition:
            Optional pre-built partition (e.g. adversarial, for tests); must
            have matching n and k.
        topology:
            Optional explicit topology (e.g. a pinned absolute bandwidth).
        """
        if partition is None:
            partition = random_vertex_partition(graph.n, k, seed)
        if topology is None:
            topology = ClusterTopology.for_problem(k, max(graph.n, 2), bandwidth_multiplier)
        if topology.k != k:
            raise ValueError("topology.k does not match k")
        return KMachineCluster._distribute(graph, partition, topology, RoundLedger(topology))

    @staticmethod
    def _distribute(
        graph: Graph, partition: VertexPartition, topology: ClusterTopology, ledger: RoundLedger
    ) -> "KMachineCluster":
        """Build the incidence arrays of ``graph`` homed by ``partition``."""
        if partition.n != graph.n or partition.k != topology.k:
            raise ValueError("partition does not match graph/k")
        owner = np.concatenate([graph.edges_u, graph.edges_v])
        other = np.concatenate([graph.edges_v, graph.edges_u])
        slots, signs = incident_slots_and_signs(graph.n, owner, other)
        eids = np.tile(np.arange(graph.m, dtype=np.int64), 2)
        return KMachineCluster(
            graph=graph,
            partition=partition,
            topology=topology,
            ledger=ledger,
            inc_owner=owner,
            inc_other=other,
            inc_machine=partition.home[owner],
            inc_slot=slots,
            inc_sign=signs,
            inc_edge=eids,
        )

    # -- convenience ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.graph.n

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.graph.m

    @property
    def k(self) -> int:
        """Number of machines."""
        return self.topology.k

    @property
    def inc_weight(self) -> np.ndarray:
        """Weights of the incidences' edges."""
        return self.inc_weight_of(slice(None))

    def inc_weight_of(self, inc: np.ndarray | slice) -> np.ndarray:
        """Weights of the edges of incidences ``inc`` (ids, mask or slice)."""
        return self.graph.weights[self.inc_edge[inc]]

    @property
    def n_incidences(self) -> int:
        """Number of incidences (2m)."""
        return int(self.inc_owner.size)

    def reset_ledger(self) -> None:
        """Replace the ledger with a fresh one (reuse the cluster across runs)."""
        self.ledger = RoundLedger(self.topology)

    def with_graph(
        self, graph: Graph, partition: VertexPartition | None = None
    ) -> "KMachineCluster":
        """The same machines, links and ledger, holding a derived graph.

        Min-cut's sampled subgraphs, the verification problems' masked
        graphs and double cover, and REP's rerouted edges all run on the
        input's k machines, so their traffic is the run's own: the derived
        instance charges this cluster's ledger, and with it the fault and
        epoch models the registry attached for the run (DESIGN.md §7-§8).
        ``partition`` homes a graph on another vertex set or hash (the
        2n-vertex double cover, REP's RVP); by default the graph keeps
        this cluster's vertices and partition.
        """
        return KMachineCluster._distribute(
            graph, self.partition if partition is None else partition, self.topology, self.ledger
        )
