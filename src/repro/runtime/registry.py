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
from repro.runtime.report import RunReport, jsonify
from repro.scenarios.churn import EpochModel
from repro.scenarios.faults import FaultModel

__all__ = [
    "AlgorithmSpec",
    "RunnerOutput",
    "get_algorithm",
    "list_algorithms",
    "register_algorithm",
]

_REGISTRY: dict[str, "AlgorithmSpec"] = {}

#: The optional config sections an algorithm reads unless registered otherwise.
DEFAULT_SECTIONS = ("faults", "churn")


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

    The envelope's ledger section is not the adapter's to give: the
    registry reads it off the run's cluster, whose ledger every step of
    the run charges, derived instances' steps included.
    """

    result: dict
    phase_stats: list = field(default_factory=list)


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
        The run charges ``cluster``'s ledger and nothing else: derived
        instances (``KMachineCluster.with_graph``) share it, so the fault
        and epoch models attached here price every step of the run.
        Ledger totals cover only the steps this run charged, so running on
        a cluster with prior history reports the run's own cost.
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
        ledger = cluster.ledger
        steps_before = len(ledger.steps)
        received_before = ledger.received_bits
        # Every bulk step this run charges pays for the realized faults, and
        # epochs fire per the churn plan with migrations charged as real
        # bulk steps (through the fault model too), hashed from the
        # cluster's actual partition seed so the envelope replays them.
        # The epoch model is built first: it checks the schedule against k
        # and touches no ledger.
        faults = epochs = None
        if cfg.churn is not None:
            epochs = EpochModel(cfg.churn, cluster.graph, cluster.partition, cfg.cluster.partition)
        if cfg.faults is not None:
            faults = FaultModel(cfg.faults, resolved)
            ledger.attach_faults(faults)
        if epochs is not None:
            ledger.attach_epochs(epochs)
        try:
            t0 = time.perf_counter()
            out = self.runner(cluster, cfg, resolved)
            wall = time.perf_counter() - t0
            totals = ledger.totals(steps_offset=steps_before, received_before=received_before)
        finally:
            if faults is not None:
                ledger.detach_faults()
            if epochs is not None:
                ledger.detach_epochs()
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
            ledger=jsonify(totals),
            phase_stats=jsonify(out.phase_stats),
            wall_time_s=wall,
        )


def register_algorithm(
    name: str,
    *,
    summary: str,
    kind: str = "paper",
    requires_weights: bool | Callable[[Mapping], bool] = False,
    sections: tuple[str, ...] = DEFAULT_SECTIONS,
) -> Callable[[Callable[..., RunnerOutput]], Callable[..., RunnerOutput]]:
    """Decorator: register ``fn(cluster, config, seed) -> RunnerOutput`` under ``name``.

    ``requires_weights`` is a bool, or a predicate over the run's params
    for an algorithm that needs weights only in some modes.
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
