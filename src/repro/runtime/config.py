"""Typed run configuration with validation and the seed-precedence contract.

The paper's algorithms share one knob vocabulary — sketch repetitions, the
hash family, the phase budget, whether Section-2.2 shared-randomness
dissemination is charged — which used to be copy-pasted as keyword
arguments across ``core/connectivity.py``, ``core/mst.py``,
``core/mincut.py`` and ``core/verify.py``.  This module centralizes that
vocabulary as frozen dataclasses:

* :class:`SketchConfig` — the l0-sampling sketch parameters,
* :class:`ClusterConfig` — how the input graph is distributed,
* :class:`RunConfig` — everything one run needs, including the seed and
  algorithm-specific extras (``params``);
* :data:`SECTIONS` — the optional sections a run may set, declared once.

Seed precedence (highest -> lowest)
-----------------------------------
1. per-run seed — ``Session.run(..., seed=...)`` / ``spec.run(..., seed=...)``
2. config seed — ``RunConfig.seed``
3. default — ``DEFAULT_SEED`` (0)

:func:`resolve_seed` implements this order; every runtime entry point goes
through it, and the resolved value is recorded in the
:class:`~repro.runtime.report.RunReport` so a run is always replayable from
its own envelope.  (The pattern follows the determinism policies of
seeded-generator tooling: a run must be byte-reproducible from its recorded
configuration alone.)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

from repro.cluster.partition import PartitionConfig
from repro.scenarios.churn import ChurnPlan
from repro.scenarios.faults import FaultPlan
from repro.scenarios.updates import UpdatePlan
from repro.util.validation import ConfigError, check_int, decode

__all__ = [
    "DEFAULT_SEED",
    "OMITTED_WHEN_UNSET",
    "SECTIONS",
    "ChurnPlan",
    "ClusterConfig",
    "ConfigError",
    "FaultPlan",
    "LogDiamConfig",
    "PartitionConfig",
    "RunConfig",
    "SketchConfig",
    "UpdatePlan",
    "resolve_seed",
    "resolve_sketch",
]

#: Lowest-precedence seed, used when neither the call nor the config sets one.
DEFAULT_SEED = 0

#: Accepted sketch hash families (see DESIGN.md, substitution table).
HASH_FAMILIES = ("prf", "polynomial")


def resolve_seed(run_seed: int | None, config_seed: int | None) -> int:
    """Apply the documented precedence: per-run seed -> config seed -> default."""
    if run_seed is not None:
        return int(run_seed)
    if config_seed is not None:
        return int(config_seed)
    return DEFAULT_SEED


def resolve_sketch(
    sketch: "SketchConfig | None",
    repetitions: int | None,
    hash_family: str | None,
) -> tuple[int, str]:
    """Resolve sketch parameters for the legacy free functions.

    Explicit keyword arguments win over ``sketch``; ``sketch`` wins over the
    package defaults.  This is the shim that lets the core algorithms accept
    either calling style without duplicating defaults.
    """
    base = sketch if sketch is not None else SketchConfig()
    reps = base.repetitions if repetitions is None else int(repetitions)
    fam = base.hash_family if hash_family is None else hash_family
    if reps < 1:
        raise ConfigError(f"repetitions must be >= 1, got {reps}")
    if fam not in HASH_FAMILIES:
        raise ConfigError(f"hash_family must be one of {HASH_FAMILIES}, got {fam!r}")
    return reps, fam


@dataclass(frozen=True)
class SketchConfig:
    """Parameters of the l0-sampling linear sketches (Section 2.3).

    Attributes
    ----------
    repetitions:
        Independent sketch repetitions per (component, phase); each has a
        constant success probability, so the per-phase failure probability
        decays geometrically.
    hash_family:
        ``'polynomial'`` is the provable Theta(log n)-wise independent
        construction; ``'prf'`` the ablation-verified fast path.
    """

    repetitions: int = 6
    hash_family: str = "prf"

    def validate(self) -> "SketchConfig":
        """Raise :class:`ConfigError` on invalid fields; return self."""
        check_int("repetitions", self.repetitions, minimum=1)
        if self.hash_family not in HASH_FAMILIES:
            raise ConfigError(
                f"hash_family must be one of {HASH_FAMILIES}, got {self.hash_family!r}"
            )
        return self


@dataclass(frozen=True)
class LogDiamConfig:
    """Knobs of the neighborhood-doubling (log-diameter MPC) family.

    The sketch vocabulary above is meaningless to graph exponentiation,
    so its knobs get their own optional section rather than being
    shoehorned into ``SketchConfig``.  ``RunConfig.logdiam`` is ``None``
    for every sketch-based run, and only algorithms that read the section
    accept a non-benign one.  The default (both fields ``None``) is
    benign.

    Attributes
    ----------
    space_bound:
        Per-vertex ball bound ``s`` — the analogue of the MPC paper's
        per-machine space ``n^delta``.  ``None`` is unbounded (pure
        graph exponentiation, O(log D) doubling rounds).
    doubling_budget:
        Cap on doubling iterations.  ``None`` defers to
        ``RunConfig.max_phases``, and failing that runs to the ball
        fixpoint (guaranteed within n + 1 iterations by the flooding
        floor; see ``repro.core.logdiam``).
    """

    space_bound: int | None = None
    doubling_budget: int | None = None

    def validate(self) -> "LogDiamConfig":
        """Raise :class:`ConfigError` on invalid fields; return self."""
        check_int("space_bound", self.space_bound, minimum=1, optional=True)
        check_int("doubling_budget", self.doubling_budget, minimum=1, optional=True)
        return self

    @property
    def is_benign(self) -> bool:
        """True when both knobs are unset (the doubling defaults)."""
        return self.space_bound is None and self.doubling_budget is None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LogDiamConfig":
        """Build and validate from a mapping; unknown keys are rejected."""
        return decode(cls, data).validate()


#: The optional sections of a run: ``RunConfig`` field name -> section type.
#: Each type validates itself, decodes with ``from_dict`` and reports with
#: ``is_benign`` when it changes nothing.  ``RunConfig``, the algorithm
#: registry (``AlgorithmSpec.sections``) and the scenario registry iterate
#: this table rather than name a section.
SECTIONS: dict[str, type] = {
    "faults": FaultPlan,
    "churn": ChurnPlan,
    "updates": UpdatePlan,
    "logdiam": LogDiamConfig,
}

#: Sections whose ``RunConfig.to_dict`` key is omitted when unset, so the
#: envelopes of runs that never set them stay byte-identical to the world
#: before each section existed (DESIGN.md §11).  The others serialize
#: ``null``.
OMITTED_WHEN_UNSET = ("updates", "logdiam")


@dataclass(frozen=True)
class ClusterConfig:
    """How the input graph is distributed over the simulated machines.

    Attributes
    ----------
    k:
        Number of machines (>= 2).
    bandwidth_multiplier:
        Scales the per-link O(polylog n) bandwidth.
    bandwidth_bits:
        Pins the per-link bandwidth to an absolute value, overriding the
        polylog-of-n default — required when sweeping n with B held fixed
        (otherwise B = polylog(n) mixes a log^2 n factor into measured
        exponents; see ``bench_connectivity_scaling``).
    partition_seed:
        Seed of the shared vertex-partition hash.  ``None`` (default) means
        "use the run's resolved seed", which matches the historical idiom
        ``KMachineCluster.create(g, k, seed)`` + ``algorithm(cluster, seed)``.
    partition:
        Placement scheme (:class:`~repro.cluster.partition.PartitionConfig`);
        the default is the paper's uniform RVP, the skewed schemes are the
        scenario engine's hostile placements (DESIGN.md §7).
    """

    k: int = 8
    bandwidth_multiplier: int = 64
    bandwidth_bits: int | None = None
    partition_seed: int | None = None
    partition: PartitionConfig = field(default_factory=PartitionConfig)

    def validate(self) -> "ClusterConfig":
        """Raise :class:`ConfigError` on invalid fields; return self."""
        check_int("k", self.k, minimum=2)
        check_int("bandwidth_multiplier", self.bandwidth_multiplier, minimum=1)
        check_int("bandwidth_bits", self.bandwidth_bits, minimum=1, optional=True)
        check_int("partition_seed", self.partition_seed, optional=True)
        if not isinstance(self.partition, PartitionConfig):
            raise ConfigError(
                f"partition must be a PartitionConfig, got {type(self.partition).__name__}"
            )
        self.partition.validate()
        return self


@dataclass(frozen=True)
class RunConfig:
    """Everything one algorithm run needs, serializable for provenance.

    Attributes
    ----------
    seed:
        Config-level seed (middle precedence; see module docstring).
    sketch / cluster:
        The nested typed sections.
    max_phases:
        Phase budget override (``None``: the Lemma-7 default).
    charge_shared_randomness:
        Charge the per-phase Section-2.2 dissemination (disable only in
        ablations isolating other cost terms).
    faults:
        Optional :class:`~repro.scenarios.faults.FaultPlan`; when set,
        every bulk communication step of the run pays for seeded drops,
        duplicates, delays, stalls and throttling, and the report's ledger
        section grows a ``faults`` summary.  ``None`` is the clean network.
    churn:
        Optional :class:`~repro.scenarios.churn.ChurnPlan`; when set, the
        run lives through scheduled partition epochs (mid-run re-shuffles,
        machine removals and rejoins) with migration traffic charged as
        real bandwidth, and the report's ledger section grows an
        ``epochs`` summary.  ``None`` is the static partition.
    updates:
        Optional :class:`~repro.scenarios.updates.UpdatePlan`; when set,
        the input graph mutates mid-run: seeded batches of edge
        insertions/deletions are replayed against the maintained
        structure, each charged as a real ``update:batch:<i>`` bulk step
        (DESIGN.md §11).  Only update-capable algorithms (``mst_dynamic``)
        accept a non-benign plan.  ``None`` is the static input.
    logdiam:
        Optional :class:`LogDiamConfig`; the knob section of the
        neighborhood-doubling family (``connectivity_logdiam``).  Every
        other algorithm rejects a non-benign section with
        :class:`ConfigError` (DESIGN.md §12).
    params:
        Algorithm-specific extras, e.g. ``{"output": "strict"}`` for MST or
        ``{"problem": "st_connectivity", "s": 0, "t": 7}`` for verification.
        Must be JSON-serializable.
    """

    seed: int | None = None
    sketch: SketchConfig = field(default_factory=SketchConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    max_phases: int | None = None
    charge_shared_randomness: bool = True
    faults: FaultPlan | None = None
    churn: ChurnPlan | None = None
    updates: UpdatePlan | None = None
    logdiam: LogDiamConfig | None = None
    params: dict = field(default_factory=dict)

    def validate(self) -> "RunConfig":
        """Validate every section; raise :class:`ConfigError` on the first failure."""
        check_int("seed", self.seed, optional=True)
        check_int("max_phases", self.max_phases, minimum=1, optional=True)
        if not isinstance(self.charge_shared_randomness, bool):
            raise ConfigError(
                f"charge_shared_randomness must be a bool, got {self.charge_shared_randomness!r}"
            )
        if not isinstance(self.params, dict):
            raise ConfigError(f"params must be a dict, got {type(self.params).__name__}")
        for name, kind in SECTIONS.items():
            section = getattr(self, name)
            if section is None:
                continue
            if not isinstance(section, kind):
                raise ConfigError(
                    f"{name} must be of type {kind.__name__} or None, "
                    f"got {type(section).__name__}"
                )
            section.validate()
        self.sketch.validate()
        self.cluster.validate()
        return self

    # -- provenance -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain, JSON-serializable dict (nested sections included).

        The keys of :data:`OMITTED_WHEN_UNSET` are left out when unset.
        """
        d = asdict(self)
        for name in OMITTED_WHEN_UNSET:
            if d[name] is None:
                del d[name]
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        return decode(
            cls,
            data,
            sketch=lambda d: decode(SketchConfig, d),
            cluster=lambda d: decode(ClusterConfig, d, partition=PartitionConfig.from_dict),
            **{name: kind.from_dict for name, kind in SECTIONS.items()},
        ).validate()

    def with_overrides(self, **kwargs: Any) -> "RunConfig":
        """A copy with top-level fields replaced (``dataclasses.replace``)."""
        return replace(self, **kwargs)
