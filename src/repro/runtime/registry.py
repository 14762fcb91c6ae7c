"""The algorithm registry: one uniform ``run(cluster, config) -> RunReport``.

Every algorithm in the repository — the four paper algorithms
(connectivity, MST, min-cut, verification) and the analytic baselines
(flooding, referee, no-sketch Boruvka, REP) — registers an *adapter* under
a stable name via :func:`register_algorithm`.  An adapter maps the uniform
``(cluster, config, seed)`` calling convention onto the underlying free
function and returns a JSON-safe payload; the registry wraps it in the
:class:`~repro.runtime.report.RunReport` envelope with ledger accounting,
wall time, and config provenance.

Discoverability::

    >>> from repro.runtime import list_algorithms, get_algorithm
    >>> sorted(list_algorithms())        # doctest: +ELLIPSIS
    ['boruvka_nosketch', 'connectivity', ...]
    >>> get_algorithm("connectivity").run(cluster)   # doctest: +SKIP
    RunReport(...)

Built-in adapters live in :mod:`repro.runtime.algorithms`, imported lazily
on first registry access so that ``repro.core`` modules may import
:mod:`repro.runtime.config` without a cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.runtime.config import SECTIONS, ConfigError, RunConfig, resolve_seed
from repro.runtime.report import RunReport, jsonify, ledger_totals
from repro.scenarios.churn import EpochModel
from repro.scenarios.faults import FaultModel

__all__ = [
    "AlgorithmSpec",
    "GraphContext",
    "RunnerOutput",
    "get_algorithm",
    "list_algorithms",
    "register_algorithm",
    "run_algorithm",
]

_REGISTRY: dict[str, "AlgorithmSpec"] = {}

#: The optional config sections an algorithm reads unless registered otherwise.
DEFAULT_SECTIONS = ("faults", "churn")


@dataclass(frozen=True)
class GraphContext:
    """Lightweight run target for ``graph_only`` algorithms.

    Algorithms like the REP baseline scatter the input over their *own*
    internal machines, so building (and caching) a vertex-partitioned
    cluster for them would be pure waste; they only need the graph and k.
    Duck-compatible with the slice of :class:`KMachineCluster` the registry
    envelope reads (``graph`` / ``n`` / ``m`` / ``k``).
    """

    graph: object
    k: int

    @property
    def n(self) -> int:
        """Vertex count of the wrapped graph."""
        return self.graph.n  # type: ignore[attr-defined]

    @property
    def m(self) -> int:
        """Edge count of the wrapped graph."""
        return self.graph.m  # type: ignore[attr-defined]


@dataclass
class RunnerOutput:
    """What an adapter returns to the registry.

    Attributes
    ----------
    result:
        Algorithm-specific payload; must be JSON-safe after
        :func:`~repro.runtime.report.jsonify`.
    phase_stats:
        Per-phase diagnostics as plain dicts (may be empty).
    ledger:
        Optional override of the envelope's ledger section, for adapters
        (e.g. the REP baseline) whose algorithm builds its own internal
        cluster rather than charging the caller's ledger.
    """

    result: dict
    phase_stats: list = field(default_factory=list)
    ledger: dict | None = None


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registered algorithm: metadata plus the uniform run entry point.

    ``weights_rule`` is a predicate over ``RunConfig.params`` that says
    whether a run needs a weighted graph (constant for most algorithms;
    ``rep`` needs weights only with ``mst=true``).  Read it through
    :meth:`needs_weights`.

    ``sections`` names the optional config sections
    (:data:`~repro.runtime.config.SECTIONS`) the algorithm reads.  A run
    that sets any other one to a non-benign value fails with
    :class:`ConfigError`: an algorithm that silently ignored it would
    record provenance the run never used.
    """

    name: str
    summary: str
    kind: str  # 'paper' | 'baseline'
    weights_rule: Callable[[Mapping], bool]
    runner: Callable[..., RunnerOutput]
    graph_only: bool = False
    sections: tuple[str, ...] = DEFAULT_SECTIONS

    def needs_weights(self, params: Mapping | None = None) -> bool:
        """Whether a run with algorithm ``params`` needs a weighted graph."""
        return bool(self.weights_rule(params or {}))

    def run(
        self,
        cluster,
        config: RunConfig | None = None,
        *,
        seed: int | None = None,
    ) -> RunReport:
        """Run on ``cluster`` and wrap the outcome in a :class:`RunReport`.

        ``seed`` (per-run) takes precedence over ``config.seed`` which takes
        precedence over the package default — the documented contract.
        Ledger totals cover only the steps this run charged, so running on
        a cluster with prior history reports the run's own cost.  A
        ``graph_only`` algorithm also accepts a :class:`GraphContext`.
        """
        cfg = (config if config is not None else RunConfig()).validate()
        resolved = resolve_seed(seed, cfg.seed)
        for name in SECTIONS:
            section = getattr(cfg, name)
            if section is not None and not section.is_benign and name not in self.sections:
                readers = [spec.name for spec in _REGISTRY.values() if name in spec.sections]
                raise ConfigError(
                    f"algorithm {self.name!r} ignores the {name} config section "
                    f"(read by: {', '.join(sorted(readers))})"
                )
        if self.needs_weights(cfg.params) and not cluster.graph.weighted:
            raise ConfigError(
                f"algorithm {self.name!r} requires a weighted graph; "
                "apply generators.with_unique_weights() or supply weights"
            )
        own_ledger = getattr(cluster, "ledger", None)
        steps_before = len(own_ledger.steps) if own_ledger is not None else 0
        received_before = own_ledger.received_bits.copy() if own_ledger is not None else None
        # Every bulk step this run charges pays for the realized faults, and
        # epochs fire per the churn plan with migrations charged as real
        # bulk steps (through the fault model too), hashed from the
        # cluster's actual partition seed so the envelope replays them.
        # Graph-only adapters thread cfg.faults themselves.  The epoch
        # model is built first: it checks the schedule against k and
        # touches no ledger.
        faults = epochs = None
        if own_ledger is not None:
            if cfg.churn is not None:
                epochs = EpochModel(
                    cfg.churn, cluster.graph, cluster.partition, cfg.cluster.partition
                )
            if cfg.faults is not None:
                faults = FaultModel(cfg.faults, resolved)
                own_ledger.attach_faults(faults)
            if epochs is not None:
                own_ledger.attach_epochs(epochs)
        try:
            t0 = time.perf_counter()
            out = self.runner(cluster, cfg, resolved)
            wall = time.perf_counter() - t0
            if out.ledger is not None:
                ledger = out.ledger
            elif own_ledger is not None:
                ledger = ledger_totals(
                    own_ledger, steps_offset=steps_before, received_before=received_before
                )
            else:
                raise RuntimeError(
                    f"graph-only algorithm {self.name!r} must return ledger totals"
                )
        finally:
            if faults is not None:
                own_ledger.detach_faults()
            if epochs is not None:
                own_ledger.detach_epochs()
        return RunReport(
            algorithm=self.name,
            seed=resolved,
            config=cfg.to_dict(),
            graph={
                "n": int(cluster.n),
                "m": int(cluster.m),
                "k": int(cluster.k),
                "weighted": bool(cluster.graph.weighted),
            },
            result=jsonify(out.result),
            ledger=jsonify(ledger),
            phase_stats=jsonify(out.phase_stats),
            wall_time_s=wall,
        )


def register_algorithm(
    name: str,
    *,
    summary: str,
    kind: str = "paper",
    requires_weights: bool | Callable[[Mapping], bool] = False,
    graph_only: bool = False,
    sections: tuple[str, ...] = DEFAULT_SECTIONS,
) -> Callable[[Callable[..., RunnerOutput]], Callable[..., RunnerOutput]]:
    """Decorator: register ``fn(cluster, config, seed) -> RunnerOutput`` under ``name``.

    ``requires_weights`` is a bool, or a predicate over the run's params
    for an algorithm that needs weights only in some modes.
    ``graph_only`` marks algorithms that ignore the caller's cluster layout
    (they build their own machines internally, like the REP baseline); the
    Session then skips cluster construction and passes a
    :class:`GraphContext`, and the adapter must return ledger totals.
    ``sections`` names the optional config sections the algorithm reads
    (see :class:`AlgorithmSpec`).
    """
    if kind not in ("paper", "baseline"):
        raise ValueError(f"kind must be 'paper' or 'baseline', got {kind!r}")
    unknown = [name for name in sections if name not in SECTIONS]
    if unknown:
        raise ValueError(f"unknown config sections {unknown}; known: {list(SECTIONS)}")

    def decorate(fn: Callable[..., RunnerOutput]) -> Callable[..., RunnerOutput]:
        """Register ``fn`` under ``name`` and return it unchanged."""
        if name in _REGISTRY:
            raise ValueError(f"algorithm {name!r} is already registered")
        _REGISTRY[name] = AlgorithmSpec(
            name=name,
            summary=summary,
            kind=kind,
            weights_rule=(
                requires_weights if callable(requires_weights) else lambda params: requires_weights
            ),
            runner=fn,
            graph_only=graph_only,
            sections=tuple(sections),
        )
        return fn

    return decorate


def _ensure_builtins() -> None:
    """Import the built-in adapters exactly once (lazy, cycle-free)."""
    import repro.runtime.algorithms  # noqa: F401


def list_algorithms() -> list[str]:
    """Sorted names of every registered algorithm."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm; raise ``KeyError`` naming the options."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def run_algorithm(
    name: str,
    cluster,
    config: RunConfig | None = None,
    *,
    seed: int | None = None,
) -> RunReport:
    """Convenience: ``get_algorithm(name).run(cluster, config, seed=seed)``."""
    return get_algorithm(name).run(cluster, config, seed=seed)
