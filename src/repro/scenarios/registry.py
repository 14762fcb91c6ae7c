"""The scenario registry: named hostile conditions for any run.

A :class:`Scenario` bundles the adversarial axes the ROADMAP's
"as many scenarios as you can imagine" demands:

* a **graph family** — a sizeable family of
  :data:`repro.corpus.families.CORPUS_FAMILIES`, usually a worst-case
  one (or a benign ``gnm`` default for fault-only scenarios),
* a **partition scheme** — a :class:`~repro.cluster.partition.PartitionConfig`
  placement (uniform / powerlaw / locality / adversarial_heavy),
* a **fault plan** — a :class:`~repro.scenarios.faults.FaultPlan` for the
  network (or ``None`` for a clean one),
* a **churn plan** — a :class:`~repro.scenarios.churn.ChurnPlan` of
  partition epochs and machine churn (or ``None`` for a static cluster),
* an **update plan** — an :class:`~repro.scenarios.updates.UpdatePlan`
  of batched edge insertions/deletions for a maintained structure (or
  ``None`` for a static input; DESIGN.md §11).

Scenarios are pure *configuration*: :meth:`Scenario.apply` overlays the
specified axes onto any :class:`~repro.runtime.config.RunConfig`
(leaving everything else untouched), and :meth:`Scenario.make_graph`
builds the input at a requested size.  ``Session.run(...,
scenario=...)``, ``Session.sweep(..., scenario=...)`` and the CLI
(``repro run --scenario``, ``repro scenarios list``) all resolve names
through this registry; tests register ad-hoc scenarios the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.cluster.partition import PartitionConfig
from repro.corpus.inputs import resolve_input
from repro.graphs.graph import Graph
from repro.runtime.config import SECTIONS, RunConfig
from repro.scenarios.churn import ChurnEvent, ChurnPlan
from repro.scenarios.faults import FaultPlan
from repro.scenarios.updates import UpdateBatch, UpdatePlan

__all__ = ["Scenario", "get_scenario", "list_scenarios", "register_scenario"]

_REGISTRY: dict[str, "Scenario"] = {}


@dataclass(frozen=True)
class Scenario:
    """One named hostile condition (see module docstring).

    Attributes
    ----------
    name / summary:
        Registry name and a one-line description for listings.
    family:
        Graph-family axis: a sizeable
        :data:`~repro.corpus.families.CORPUS_FAMILIES` key, or ``None``
        when the scenario does not constrain the input —
        a family-less scenario (faults/skew only) runs on whatever graph
        the caller supplies, falling back to benign G(n, 3n) when asked
        to build one.
    partition:
        Vertex placement scheme applied to the run's cluster section.
    faults:
        Network fault plan applied to the run (``None`` = clean network).
    churn:
        Partition-epoch / machine-churn schedule applied to the run
        (``None`` = static partition; DESIGN.md §8).
    updates:
        Edge-update stream applied to the run (``None`` = static input;
        DESIGN.md §11).  Only update-capable algorithms (``mst_dynamic``)
        accept a scenario whose plan is non-benign.
    weighted:
        Attach unique edge weights to the input (required by MST runs;
        harmless elsewhere), so one scenario serves every algorithm.
    """

    name: str
    summary: str
    family: str | None = None
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    faults: FaultPlan | None = None
    churn: ChurnPlan | None = None
    updates: UpdatePlan | None = None
    weighted: bool = True

    def make_graph(self, n: int, seed: int = 0) -> Graph:
        """Build this scenario's input at (approximate) size ``n`` for run seed ``seed``.

        Resolved by :func:`~repro.corpus.inputs.resolve_input`, like every
        named input, so a served ``{scenario: name}`` gets the same graph.
        """
        return resolve_input(scenario=self, n=n, seed=seed)

    def sections(self) -> dict:
        """The config sections this scenario sets, by name (absent axes left out)."""
        return {
            name: getattr(self, name)
            for name in _SECTIONS
            if getattr(self, name) is not None
        }

    def to_dict(self) -> dict:
        """The full plan as JSON-ready data (``repro scenarios show``).

        Every axis serializes through its own ``to_dict`` round-trip form
        (:class:`PartitionConfig`, :class:`FaultPlan`, :class:`ChurnPlan`,
        :class:`UpdatePlan`), so a reproducibility report can reconstruct
        the exact hostile condition from this dump alone; absent axes are
        ``None``.
        """
        return {
            "name": self.name,
            "summary": self.summary,
            "family": self.family,
            "weighted": self.weighted,
            "partition": self.partition.to_dict(),
            **dict.fromkeys(_SECTIONS),
            **{name: plan.to_dict() for name, plan in self.sections().items()},
        }

    def apply(self, config: RunConfig) -> RunConfig:
        """Overlay this scenario's hostile axes onto ``config``.

        Only the axes the scenario actually specifies are overlaid: a
        scenario without a fault plan (``faults=None``) leaves the
        caller's ``config.faults`` in place, and a scenario with the
        default (uniform) partition leaves a caller-configured skew
        scheme alone — so ``run(..., config=RunConfig(faults=...),
        scenario="lollipop")`` composes the user's network with the
        scenario's graph instead of silently cleaning it.
        """
        partition = self.partition
        if partition == PartitionConfig():
            partition = config.cluster.partition
        cluster = replace(config.cluster, partition=partition)
        return config.with_overrides(cluster=cluster, **self.sections()).validate()


#: The optional config sections a scenario can carry: those of
#: :data:`~repro.runtime.config.SECTIONS` it has a field for (the
#: ``logdiam`` knobs tune an algorithm, not a hostile condition).
_SECTIONS = tuple(f.name for f in fields(Scenario) if f.name in SECTIONS)


def register_scenario(scenario: Scenario) -> Scenario:
    """Register ``scenario`` under its name; duplicate names are rejected."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    scenario.partition.validate()
    for plan in scenario.sections().values():
        plan.validate()
    _REGISTRY[scenario.name] = scenario
    return scenario


def list_scenarios() -> list[str]:
    """Sorted names of every registered scenario."""
    return sorted(_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name (instances pass through unchanged)."""
    if isinstance(name, Scenario):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


# --------------------------------------------------------------------------
# Built-in scenarios
# --------------------------------------------------------------------------

#: The ISSUE-3 acceptance envelope: drop <= 10%, stalls <= 2 rounds.
_STANDARD_FAULTS = FaultPlan(
    drop_prob=0.1, dup_prob=0.02, stall_prob=0.05, max_stall_rounds=2
)

#: The standard dynamic-input workload: a mixed batch, an adversarial
#: tree-edge deletion wave, and churn concentrated on one hot component.
_STANDARD_UPDATES = UpdatePlan(
    batches=(
        UpdateBatch(kind="mix", size=24, insert_fraction=0.5),
        UpdateBatch(kind="tree_delete", size=12),
        UpdateBatch(kind="hot_component", size=16, insert_fraction=0.75),
        UpdateBatch(kind="mix", size=24, insert_fraction=0.25),
    )
)

for _scenario in (
    # Fault axes on the benign input.
    Scenario(
        "faulty_links",
        "10% link drops + 2% duplication on G(n, 3n), uniform partition",
        faults=_STANDARD_FAULTS,
    ),
    Scenario(
        "stragglers",
        "machine stalls (p=0.2, up to 2 rounds) on G(n, 3n)",
        faults=FaultPlan(stall_prob=0.2, max_stall_rounds=2),
    ),
    Scenario(
        "throttled",
        "per-link bandwidth halved plus 1-3 round link delays",
        faults=FaultPlan(bandwidth_factor=0.5, delay_prob=0.2, max_delay_rounds=3),
    ),
    # Partition-skew axes on the benign input.
    Scenario(
        "skew_powerlaw",
        "power-law machine placement (alpha=1.5) on G(n, 3n)",
        partition=PartitionConfig(scheme="powerlaw", alpha=1.5),
    ),
    Scenario(
        "skew_locality",
        "contiguous-range placement with 5% noise on G(n, 3n)",
        partition=PartitionConfig(scheme="locality", noise=0.05),
    ),
    Scenario(
        "adversarial_placement",
        "top-5%-degree vertices all on machine 0, star-of-paths input",
        family="star_of_paths",
        partition=PartitionConfig(scheme="adversarial_heavy", heavy_fraction=0.05),
    ),
    # Worst-case graph families on the clean, uniform cluster.
    Scenario("lollipop", "clique with a long tail (diameter stress)", family="lollipop"),
    Scenario("barbell", "two cliques joined by a path", family="barbell"),
    Scenario(
        "expander_bridge",
        "two expanders joined by one bridge edge (min-cut stress)",
        family="expander_bridge",
    ),
    Scenario(
        "disjoint_cliques",
        "many dense components (multi-part sketching stress)",
        family="disjoint_cliques",
    ),
    Scenario(
        "star_of_paths",
        "high-degree hub with long arms (congestion + diameter)",
        family="star_of_paths",
    ),
    # Dynamic adversary: partition epochs and machine churn (DESIGN.md §8).
    Scenario(
        "rebalance_midrun",
        "two mid-run re-partitions (same scheme, epoch-indexed hash) with "
        "migration charged as real bandwidth",
        churn=ChurnPlan(
            events=(ChurnEvent(6, "reshuffle"), ChurnEvent(14, "reshuffle"))
        ),
    ),
    Scenario(
        "churn_storm",
        "machines leave and rejoin mid-run (graceful decommission + rebalancing "
        "rejoin) on the standard lossy network",
        churn=ChurnPlan(
            events=(
                ChurnEvent(4, "remove", machine=1),
                ChurnEvent(9, "reshuffle"),
                ChurnEvent(14, "add", machine=1),
                ChurnEvent(18, "remove", machine=2),
            )
        ),
        faults=_STANDARD_FAULTS,
    ),
    # Dynamic input: batched edge-update streams (DESIGN.md §11).
    Scenario(
        "update_storm",
        "batched edge updates on G(n, 3n): a mixed wave, adversarial "
        "tree-edge deletions, then hot-component churn (mst_dynamic)",
        updates=_STANDARD_UPDATES,
    ),
    Scenario(
        "live_graph",
        "the production live-graph condition: edge-update batches on the "
        "standard lossy network (mst_dynamic under faults)",
        updates=_STANDARD_UPDATES,
        faults=_STANDARD_FAULTS,
    ),
    # Everything at once.
    Scenario(
        "worst_case_storm",
        "lollipop input, power-law placement, lossy stalling network",
        family="lollipop",
        partition=PartitionConfig(scheme="powerlaw", alpha=1.5),
        faults=_STANDARD_FAULTS,
    ),
):
    register_scenario(_scenario)
