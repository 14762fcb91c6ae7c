"""repro — reproduction of *Fast Distributed Algorithms for Connectivity and
MST in Large Graphs* (Pandurangan, Robinson, Scquizzato; SPAA 2016).

The package implements the **k-machine model** (a.k.a. the Big Data model)
as an instrumented simulator, the paper's O~(n/k^2)-round algorithms for
connectivity / MST / approximate min-cut / graph verification, the
substrates they rely on (linear l0-sampling graph sketches, distributed
random ranking, randomized proxy routing), the baselines the paper compares
against analytically, and the Section-4 lower-bound simulations.

Quickstart — the unified runtime API
------------------------------------
Everything runnable lives behind one registry and one envelope:

>>> from repro import generators
>>> from repro.runtime import Session, RunConfig, ClusterConfig, list_algorithms
>>> sorted(list_algorithms())  # doctest: +NORMALIZE_WHITESPACE
['boruvka_nosketch', 'connectivity', 'connectivity_logdiam', 'flooding',
 'mincut', 'mst', 'mst_dynamic', 'referee', 'rep', 'verify']
>>> g = generators.gnm_random(n=1000, m=4000, seed=7)
>>> session = Session(g, config=RunConfig(seed=7, cluster=ClusterConfig(k=8)))
>>> report = session.run("connectivity")
>>> report.result["n_components"]
1

Each run returns a serializable :class:`~repro.runtime.report.RunReport`
(``report.to_json()`` round-trips losslessly) carrying the result, ledger
totals, phase stats, wall time, and full config provenance.  Seeds resolve
by documented precedence: per-run seed -> ``RunConfig.seed`` -> default.
Sweeps (``session.sweep(..., ks=(2, 4, 8), seeds=range(5))``) and a CLI
(``python -m repro run connectivity --n 200 --k 4``) sit on top.

Compatibility note: the original free functions remain fully supported —

>>> from repro import KMachineCluster, connected_components_distributed
>>> cluster = KMachineCluster.create(g, k=8, seed=7)
>>> connected_components_distributed(cluster, seed=7).n_components
1

they are the implementation the registry adapters call, and produce the
same answers for the same seeds as the Session path.

Benchmarks are first-class as well: every experiment grid registers in
:mod:`repro.bench` and runs into serializable ``BENCH_<name>.json``
envelopes that CI regression-gates (``python -m repro bench run --quick
--all``; see DESIGN.md section 6).

See ``examples/quickstart.py`` for a guided tour and ``DESIGN.md`` for the
system inventory and the runtime API / seed-precedence policy.
"""

from repro.graphs import Graph, GraphBuilder, generators, reference
from repro.cluster import ClusterTopology, KMachineCluster, RoundLedger
from repro.core import (
    ConnectivityResult,
    MinCutResult,
    MSTResult,
    connected_components_distributed,
    count_components_distributed,
    mincut_approx_distributed,
    minimum_spanning_tree_distributed,
    verify,
)
from repro.runtime import (
    ClusterConfig,
    RunConfig,
    RunReport,
    Session,
    SketchConfig,
    get_algorithm,
    list_algorithms,
    register_algorithm,
)

__version__ = "1.1.0"

__all__ = [
    "ClusterConfig",
    "ClusterTopology",
    "ConnectivityResult",
    "Graph",
    "GraphBuilder",
    "KMachineCluster",
    "MSTResult",
    "MinCutResult",
    "RoundLedger",
    "RunConfig",
    "RunReport",
    "Session",
    "SketchConfig",
    "connected_components_distributed",
    "count_components_distributed",
    "generators",
    "get_algorithm",
    "list_algorithms",
    "mincut_approx_distributed",
    "minimum_spanning_tree_distributed",
    "reference",
    "register_algorithm",
    "verify",
]
