"""Scenario benchmarks: cost of hostile conditions, perf-gated like any other.

Three quick-tier grids pin down what the adversarial engine (DESIGN.md
§7-§8) costs and that it never costs correctness:

* ``scenario_fault_overhead`` — connectivity on G(n, 3n) under a seeded
  :class:`~repro.scenarios.faults.FaultPlan` of increasing intensity; the
  gated metrics include the injected ``fault_rounds`` and a ``correct``
  flag against the union-find reference, so a drift in either the fault
  realization or the answer fails CI.
* ``scenario_partition_skew`` — connectivity under each placement scheme
  in :data:`~repro.cluster.partition.PARTITION_SCHEMES`, on the random
  input *and* on structured vertex ids (grid / path), where the
  ``locality`` scheme's placement-structure correlation actually bites
  (on random ids it is near-balanced and near-uniform); gates the round
  degradation, the placement balance (``vertices_max`` /
  ``incidences_max``) and the placement-structure correlation
  (``cross_machine_edges``).
* ``scenario_churn_overhead`` — connectivity under the dynamic adversary
  (DESIGN.md §8): mid-run re-partitions and machine churn; gates the
  migration traffic (``migration_bits`` / ``migration_rounds``), the
  epoch count and correctness, so a drift in epoch realization fails CI.
"""

from __future__ import annotations

import numpy as np

from repro.bench.registry import register_benchmark
from repro.bench.runner import metrics_from_report
from repro.cluster.partition import PARTITION_SCHEMES, PartitionConfig, build_partition
from repro.corpus.families import sized_graph
from repro.graphs import reference as ref
from repro.runtime.config import ChurnPlan, ClusterConfig, FaultPlan, RunConfig
from repro.runtime.session import Session
from repro.scenarios.churn import ChurnEvent
from repro.util.rng import derive_seed

__all__: list[str] = []


def _input_graph(n: int, seed: int, kind: str = "gnm"):
    """The benchmark input: random G(n, 3n), or structured vertex ids.

    ``grid`` and ``path`` have row-major / sequential ids — the ingestion
    orders whose correlation with graph structure the ``locality`` scheme
    models (ROADMAP: its hostility only shows on structured ids).  Grid
    cells must request a perfect-square ``n`` so the recorded params name
    the graph actually built (the ``grid`` size rule rounds to the
    nearest square).
    """
    g = sized_graph(kind, n, derive_seed(seed, n, 0x5CE))
    if g.n != n:
        raise ValueError(f"{kind} cells need a perfect-square n, got {n}")
    return g


@register_benchmark(
    "scenario_fault_overhead",
    title="Scenario engine: round overhead of seeded link/machine faults",
    group="scenario",
    cells=[
        {"n": 2048, "k": 8, "drop": drop, "stall": stall}
        for drop, stall in ((0.0, 0.0), (0.05, 0.0), (0.1, 0.05), (0.2, 0.1))
    ],
    quick_cells=[
        {"n": 256, "k": 4, "drop": drop, "stall": stall}
        for drop, stall in ((0.0, 0.0), (0.1, 0.05))
    ],
    seed=7,
)
def _fault_overhead(cell: dict, seed: int) -> dict:
    n, k = int(cell["n"]), int(cell["k"])
    drop, stall = float(cell["drop"]), float(cell["stall"])
    g = _input_graph(n, seed)
    faults = None
    if drop > 0.0 or stall > 0.0:
        faults = FaultPlan(
            drop_prob=drop, dup_prob=drop / 5, stall_prob=stall, max_stall_rounds=2
        )
    config = RunConfig(seed=seed, cluster=ClusterConfig(k=k), faults=faults)
    report = Session(g, config=config).run("connectivity")
    faults_section = report.ledger.get("faults", {})
    return metrics_from_report(
        report,
        fault_rounds=int(faults_section.get("fault_rounds", 0)),
        fault_events=int(faults_section.get("n_events", 0)),
        correct=report.result["n_components"] == ref.count_components(g),
    )


#: The structured-input leg: uniform vs locality on grid/path vertex ids
#: (the placements whose correlation `locality` models; see ROADMAP).
_STRUCTURED_LEG = [
    {"graph": graph, "scheme": scheme}
    for graph in ("grid", "path")
    for scheme in ("uniform", "locality")
]


@register_benchmark(
    "scenario_partition_skew",
    title="Scenario engine: round degradation under skewed vertex placement",
    group="scenario",
    # Grid cells record the exact vertex count (45^2; 16^2 at quick tier),
    # so a cell is reproducible from its recorded params alone.
    cells=[{"n": 2048, "k": 8, "scheme": s, "graph": "gnm"} for s in PARTITION_SCHEMES]
    + [{"n": 2025 if leg["graph"] == "grid" else 2048, "k": 8, **leg} for leg in _STRUCTURED_LEG],
    quick_cells=[{"n": 256, "k": 4, "scheme": s, "graph": "gnm"} for s in PARTITION_SCHEMES]
    + [{"n": 256, "k": 4, **leg} for leg in _STRUCTURED_LEG],
    seed=7,
)
def _partition_skew(cell: dict, seed: int) -> dict:
    n, k, scheme = int(cell["n"]), int(cell["k"]), str(cell["scheme"])
    g = _input_graph(n, seed, kind=str(cell["graph"]))
    pconfig = PartitionConfig(scheme=scheme)
    config = RunConfig(
        seed=seed, cluster=ClusterConfig(k=k, partition=pconfig)
    )
    report = Session(g, config=config).run("connectivity")
    # Placement balance: the quantity the RVP lemmas bound for 'uniform'
    # and the skew schemes deliberately break.
    partition = build_partition(g, k, seed, pconfig)
    counts = partition.counts()
    inc = np.bincount(partition.home[g.edges_u], minlength=k) + np.bincount(
        partition.home[g.edges_v], minlength=k
    )
    # Placement-structure correlation: how many edges cross machines.  The
    # uniform RVP cuts ~(1 - 1/k) of the edges regardless of structure;
    # `locality` on structured ids keeps most edges machine-local — the
    # correlated-ingestion regime where hash-partition analyses break down.
    cross = int((partition.home[g.edges_u] != partition.home[g.edges_v]).sum())
    return metrics_from_report(
        report,
        vertices_max=int(counts.max()),
        incidences_max=int(inc.max()),
        cross_machine_edges=cross,
        correct=report.result["n_components"] == ref.count_components(g),
    )


#: Churn schedules of increasing hostility, shared by both tiers.
_CHURN_PLANS = {
    "clean": None,
    "rebalance": ChurnPlan(
        events=(ChurnEvent(5, "reshuffle"), ChurnEvent(15, "reshuffle"))
    ),
    "churn": ChurnPlan(
        events=(
            ChurnEvent(4, "remove", machine=1),
            ChurnEvent(9, "reshuffle"),
            ChurnEvent(14, "add", machine=1),
            ChurnEvent(18, "remove", machine=2),
        )
    ),
}


@register_benchmark(
    "scenario_churn_overhead",
    title="Scenario engine: migration cost of partition epochs and machine churn",
    group="scenario",
    cells=[{"n": 2048, "k": 8, "plan": p} for p in _CHURN_PLANS],
    quick_cells=[{"n": 256, "k": 4, "plan": p} for p in _CHURN_PLANS],
    seed=7,
)
def _churn_overhead(cell: dict, seed: int) -> dict:
    n, k, plan = int(cell["n"]), int(cell["k"]), str(cell["plan"])
    g = _input_graph(n, seed)
    config = RunConfig(seed=seed, cluster=ClusterConfig(k=k), churn=_CHURN_PLANS[plan])
    report = Session(g, config=config).run("connectivity")
    epochs = report.ledger.get("epochs", {})
    return metrics_from_report(
        report,
        n_epochs=int(epochs.get("n_epochs", 1)),
        migrated_vertices=int(epochs.get("migrated_vertices", 0)),
        migration_bits=int(epochs.get("migration_bits", 0)),
        migration_rounds=int(epochs.get("migration_rounds", 0)),
        correct=report.result["n_components"] == ref.count_components(g),
    )
