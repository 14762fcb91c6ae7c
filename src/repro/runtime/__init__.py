"""repro.runtime — the canonical way to run anything in this repository.

One discoverable, config-driven entry point over the paper's four
algorithms and the analytic baselines:

* **registry** — ``@register_algorithm(name)``, :func:`list_algorithms`,
  :func:`get_algorithm`; every entry exposes the uniform
  ``run(cluster, config) -> RunReport`` interface.
* **typed configs** — :class:`SketchConfig`, :class:`ClusterConfig`,
  :class:`RunConfig`, with validation and the documented seed precedence
  (per-run seed -> config seed -> default; see DESIGN.md).
* **Session** — cluster construction/caching, single runs, and
  seed/k/n sweeps with an optional process pool.
* **RunReport** — the serializable envelope (result + ledger totals +
  phase stats + wall time + config provenance) with lossless
  ``to_json()``/``from_json()``.

Quickstart::

    >>> from repro import generators
    >>> from repro.runtime import Session, RunConfig, ClusterConfig
    >>> g = generators.gnm_random(n=1000, m=4000, seed=7)
    >>> session = Session(g, config=RunConfig(seed=7, cluster=ClusterConfig(k=8)))
    >>> report = session.run("connectivity")
    >>> report.result["n_components"], report.rounds       # doctest: +SKIP
    (1, 1234)
    >>> report2 = session.run("mincut", seed=11)           # per-run seed wins

The free functions (``connected_components_distributed`` & co.) are the
implementation the registry adapters call.  They take the same
:class:`SketchConfig` as ``sketch=``; it is the only way sketch parameters
reach them.
"""

from repro.runtime.config import (
    DEFAULT_SEED,
    ChurnPlan,
    ClusterConfig,
    ConfigError,
    FaultPlan,
    LogDiamConfig,
    PartitionConfig,
    RunConfig,
    SketchConfig,
    UpdatePlan,
    resolve_seed,
)
from repro.runtime.registry import (
    AlgorithmSpec,
    RunnerOutput,
    get_algorithm,
    list_algorithms,
    register_algorithm,
)
from repro.runtime.report import RunReport
from repro.runtime.session import Session

__all__ = [
    "DEFAULT_SEED",
    "AlgorithmSpec",
    "ChurnPlan",
    "ClusterConfig",
    "ConfigError",
    "FaultPlan",
    "LogDiamConfig",
    "PartitionConfig",
    "RunConfig",
    "RunReport",
    "RunnerOutput",
    "Session",
    "SketchConfig",
    "UpdatePlan",
    "get_algorithm",
    "list_algorithms",
    "register_algorithm",
    "resolve_seed",
]
