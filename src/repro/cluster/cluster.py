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
    :attr:`ledger` and may call :meth:`fork_ledger` to run subroutines on a
    fresh ledger (e.g. repeated connectivity tests inside min-cut).
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
            Optional explicit topology (e.g. to run a derived instance —
            the bipartiteness double cover — on the original bandwidth).
        """
        if partition is None:
            partition = random_vertex_partition(graph.n, k, seed)
        if partition.n != graph.n or partition.k != k:
            raise ValueError("partition does not match graph/k")
        if topology is None:
            topology = ClusterTopology.for_problem(k, max(graph.n, 2), bandwidth_multiplier)
        if topology.k != k:
            raise ValueError("topology.k does not match k")
        owner = np.concatenate([graph.edges_u, graph.edges_v])
        other = np.concatenate([graph.edges_v, graph.edges_u])
        slots, signs = incident_slots_and_signs(graph.n, owner, other)
        eids = np.concatenate(
            [np.arange(graph.m, dtype=np.int64), np.arange(graph.m, dtype=np.int64)]
        )
        return KMachineCluster(
            graph=graph,
            partition=partition,
            topology=topology,
            ledger=RoundLedger(topology),
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

    def fork_ledger(self) -> RoundLedger:
        """A fresh ledger on the same topology (for sub-experiments)."""
        return RoundLedger(self.topology)

    def reset_ledger(self) -> None:
        """Replace the ledger with a fresh one (reuse the cluster across runs)."""
        self.ledger = RoundLedger(self.topology)

    def with_graph(self, graph: Graph) -> "KMachineCluster":
        """Same machines/partition/topology over a different graph on the same vertices.

        Used by verification problems that operate on subgraphs of G: the
        vertex partition (and hence machine layout) is unchanged, and so is
        the link bandwidth.  The new cluster gets a fresh ledger — which
        inherits this cluster's fault and epoch models, so derived
        instances run on the same hostile, churning platform as their
        parent (DESIGN.md §7-§8).
        """
        if graph.n != self.n:
            raise ValueError("vertex set must be unchanged")
        owner = np.concatenate([graph.edges_u, graph.edges_v])
        other = np.concatenate([graph.edges_v, graph.edges_u])
        slots, signs = incident_slots_and_signs(graph.n, owner, other)
        eids = np.concatenate(
            [np.arange(graph.m, dtype=np.int64), np.arange(graph.m, dtype=np.int64)]
        )
        ledger = RoundLedger(self.topology)
        if self.ledger.fault_model is not None:
            ledger.attach_faults(self.ledger.fault_model)
        if self.ledger.epoch_model is not None:
            ledger.attach_epochs(self.ledger.epoch_model)
        return KMachineCluster(
            graph=graph,
            partition=self.partition,
            topology=self.topology,
            ledger=ledger,
            inc_owner=owner,
            inc_other=other,
            inc_machine=self.partition.home[owner],
            inc_slot=slots,
            inc_sign=signs,
            inc_edge=eids,
        )

    def machine_load_summary(self) -> dict[str, float]:
        """Partition balance diagnostics (RVP: Theta~(n/k) vertices/machine whp)."""
        counts = self.partition.counts()
        inc_counts = np.bincount(self.inc_machine, minlength=self.k)
        return {
            "vertices_mean": float(counts.mean()),
            "vertices_max": float(counts.max()),
            "incidences_mean": float(inc_counts.mean()),
            "incidences_max": float(inc_counts.max()),
        }
