"""Adversarial scenario engine: faults, partition skew, worst-case inputs.

The subsystem that turns "does the algorithm still answer correctly, and
how do rounds degrade, under hostile conditions" into a registry-driven,
reproducible axis of every run (DESIGN.md §7):

* :mod:`repro.scenarios.faults` — typed, seeded fault plans
  (drop/duplicate/delay/stall/throttle) woven into the round ledger.
* :mod:`repro.scenarios.churn` — the dynamic adversary: typed schedules
  of partition epochs (mid-run re-shuffles, machine removals/rejoins)
  with migration traffic charged as real bandwidth (DESIGN.md §8).
* :mod:`repro.scenarios.updates` — the dynamic *input*: typed, seeded
  schedules of batched edge insertions/deletions replayed against a
  maintained connectivity/MST structure (DESIGN.md §11).
* :mod:`repro.scenarios.registry` — named scenarios combining a
  worst-case graph family, a partition-skew scheme, a fault plan, a
  churn plan and an update plan, consumed by the CLI (``repro run
  --scenario``, ``repro sweep --scenario``, ``repro scenarios list``) and
  the service (``RunRequest.scenario``) through
  :func:`repro.corpus.inputs.resolve_input` and :meth:`Scenario.apply`.

This ``__init__`` imports only the plan layers (faults, churn, updates)
eagerly: :mod:`repro.runtime.config` embeds :class:`FaultPlan`,
:class:`ChurnPlan` and :class:`UpdatePlan`, so importing the registry
here (which itself imports the runtime) would create a cycle.  Registry
names resolve lazily via module ``__getattr__``.
"""

from repro.scenarios.churn import ChurnEvent, ChurnPlan, EpochModel
from repro.scenarios.faults import FaultModel, FaultPlan, FaultRecord
from repro.scenarios.updates import UpdateBatch, UpdatePlan

__all__ = [
    "ChurnEvent",
    "ChurnPlan",
    "EpochModel",
    "FaultModel",
    "FaultPlan",
    "FaultRecord",
    "Scenario",
    "UpdateBatch",
    "UpdatePlan",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
]

_LAZY = ("Scenario", "get_scenario", "list_scenarios", "register_scenario")


def __getattr__(name: str):
    if name in _LAZY:
        from repro.scenarios import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
