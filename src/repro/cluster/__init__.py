"""The k-machine model (Big Data model) simulator — Section 1.1 of the paper.

Layers:

* :mod:`repro.cluster.topology` — k machines, complete network, per-link
  O(polylog n)-bit bandwidth.
* :mod:`repro.cluster.partition` — random vertex partition (RVP) via shared
  hashing; random edge partition (REP) for the Section-1.3 comparison.
* :mod:`repro.cluster.ledger` — exact round/bit accounting per bulk step.
* :mod:`repro.cluster.comm` — bulk communication steps (load-matrix model)
  and the Section-2.2 dissemination primitives.
* :mod:`repro.cluster.cluster` — :class:`KMachineCluster`, the façade that
  algorithms program against.
* :mod:`repro.cluster.shared_random` — per-phase shared-randomness seeds
  with honestly charged distribution cost.
* :mod:`repro.cluster.engine` — exact per-round mailbox engine
  (the engines ablation and cross-validation of the bulk accounting).
"""

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep, broadcast_from_machine, disseminate_from_machine
from repro.cluster.engine import (
    Envelope,
    EngineResult,
    MachineProgram,
    RoundLimitExceeded,
    SyncEngine,
)
from repro.cluster.ledger import RoundLedger, StepRecord
from repro.cluster.partition import (
    PartitionConfig,
    VertexPartition,
    build_partition,
    random_edge_partition,
    random_vertex_partition,
)
from repro.cluster.shared_random import SharedRandomness
from repro.cluster.topology import ClusterTopology

__all__ = [
    "ClusterTopology",
    "CommStep",
    "Envelope",
    "EngineResult",
    "KMachineCluster",
    "MachineProgram",
    "PartitionConfig",
    "RoundLedger",
    "RoundLimitExceeded",
    "SharedRandomness",
    "StepRecord",
    "SyncEngine",
    "VertexPartition",
    "broadcast_from_machine",
    "build_partition",
    "disseminate_from_machine",
    "random_edge_partition",
    "random_vertex_partition",
]
