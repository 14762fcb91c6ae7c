"""Dynamic adversary: partition epochs and machine churn for a k-machine run.

The paper's k-machine model (Section 1.1) fixes the random vertex
partition *before* the algorithm starts and keeps every machine alive for
the whole run.  Real deployments do neither: shard rebalancers re-hash
vertices mid-run, and machines leave (preemption, failure) and rejoin.
Klauck et al.'s lower bounds hinge on which machine holds which vertex,
and engineered MST systems (Sanders et al.) report redistribution cost
dominating end-to-end time — so a faithful stress axis must charge the
*migration traffic* of every re-partition as real bandwidth, not just
flip a table.

This module makes that a typed, deterministic axis of a run, mirroring
the fault layer (:mod:`repro.scenarios.faults`):

* :class:`ChurnPlan` — the frozen, JSON-round-trippable schedule of
  partition epochs: a sequence of :class:`ChurnEvent` entries
  (``reshuffle`` / ``remove`` / ``add``), each firing before a scheduled
  bulk communication step.  It lives on
  :class:`~repro.runtime.config.RunConfig` and is therefore part of every
  run's provenance.
* :class:`EpochModel` — one run's realized epoch schedule.  Attached to a
  :class:`~repro.cluster.ledger.RoundLedger` it (a) fires due events,
  charging each epoch's migration as a real bulk step, (b) remaps every
  subsequent load matrix onto the current epoch's machine layout, and
  (c) aggregates per-epoch load matrices surfaced as the ``epochs``
  section of ``RunReport.ledger`` (present only on churned runs, so
  clean envelopes stay byte-identical).

Epoch semantics under bulk accounting (DESIGN.md §8)
----------------------------------------------------
Epochs are a *platform* adversary: the simulated protocol is unchanged
(it still addresses traffic by the shared hash it was started with —
epoch 0), while the accounting layer reconciles that traffic with where
vertices actually live:

* **reshuffle** — every vertex re-hashes under the run's
  :class:`~repro.cluster.partition.PartitionConfig` scheme with the
  epoch-indexed shared-hash seed (``build_partition(..., epoch=e)``),
  restricted to the currently active machines.  Vertices whose home
  changes ship their state (``vertex_state_bits`` plus
  ``incidence_state_bits`` per incident edge) from old home to new home
  in one bulk migration step charged at real link bandwidth.
* **remove** — the machine decommissions gracefully: its vertices
  re-hash uniformly (epoch-seeded) over the surviving active machines and
  their state migrates off the departing machine before it leaves.  The
  survivors then carry all subsequent traffic.
* **add** — a previously removed machine rejoins; a balancing ~n/k'
  share of vertices (those the epoch-indexed hash assigns to it) migrates
  onto it.

After a boundary, each algorithm bulk step's k x k load matrix — which
the algorithm computed against epoch-0 homes — is **re-routed
proportionally**: epoch-0 shard i's traffic splits over the machines its
vertices (incidence-weighted) now live on.  Removals therefore
concentrate load on survivors (more rounds on the bottleneck link), while
a same-scheme reshuffle keeps the load statistically equivalent — the
dominant churn cost is the migration traffic itself, matching what
engineered systems measure.  Payloads are never lost: like faults, churn
costs rounds, never answers.

Determinism: the epoch schedule is a pure function of ``(plan, partition
seed, epoch index)`` — every machine can recompute every epoch's homes
locally (the model's shared-hash addressing requirement survives
re-partitioning), and two runs with the same (config, seed) replay the
identical epochs.  The byte-determinism contract of
:class:`~repro.runtime.report.RunReport` extends to churned runs.

The exact per-round mailbox engine (:class:`~repro.cluster.engine.SyncEngine`)
applies the same plan at message granularity instead (``at_step`` counts
engine rounds there): removed machines stop stepping and their arrivals
are deferred — re-homed to the mailbox of the rejoined machine — under
the existing fault-deferral semantics, and a reshuffle pauses every
machine for one migration barrier round; see there.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.util.rng import SeedStream, derive_seed
from repro.util.validation import ConfigError, check_int, decode, decode_all

__all__ = ["CHURN_KINDS", "ChurnEvent", "ChurnPlan", "EpochModel"]

#: Accepted churn event kinds (see module docstring).
CHURN_KINDS = ("reshuffle", "remove", "add")

#: Domain-separation tag for epoch randomness (keeps churn hashing
#: independent of the partition, fault and algorithm streams).
_CHURN_TAG = 0xC4E9


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled partition-epoch boundary.

    Attributes
    ----------
    at_step:
        The bulk communication step the event fires *before* (0-indexed;
        the mailbox engine counts its synchronous rounds instead).
        Events scheduled past the run's last step simply never fire.
    kind:
        One of :data:`CHURN_KINDS`.
    machine:
        The machine leaving (``remove``) or rejoining (``add``); must be
        ``None`` for ``reshuffle``.
    """

    at_step: int
    kind: str
    machine: int | None = None

    def validate(self) -> "ChurnEvent":
        """Raise :class:`ConfigError` on invalid fields; return self."""
        check_int("at_step", self.at_step, minimum=0)
        if self.kind not in CHURN_KINDS:
            raise ConfigError(f"kind must be one of {CHURN_KINDS}, got {self.kind!r}")
        if self.kind == "reshuffle":
            if self.machine is not None:
                raise ConfigError("reshuffle events must not name a machine")
        else:
            check_int(f"{self.kind} event machine", self.machine, minimum=0)
        return self


@dataclass(frozen=True)
class ChurnPlan:
    """Typed schedule of partition epochs and machine churn (see module docstring).

    The default plan schedules nothing, so ``RunConfig(churn=ChurnPlan())``
    is equivalent to ``churn=None`` except that the report then carries an
    explicit single-epoch ``epochs`` section.

    Attributes
    ----------
    events:
        The epoch boundaries, fired in ``at_step`` order (ties keep the
        given order).
    vertex_state_bits:
        Per-vertex migration payload (labels, sketch seeds, bookkeeping).
    incidence_state_bits:
        Per-incident-edge migration payload (endpoint ids + weight); a
        migrating vertex ships ``vertex_state_bits + degree *
        incidence_state_bits`` bits.
    seed:
        Epoch-hash override.  ``None`` (default) derives epoch hashing
        from the run's partition seed, so the epoch schedule is
        recomputable by every machine; pinning it holds the epoch
        placements fixed while sweeping partition seeds.
    """

    events: tuple[ChurnEvent, ...] = ()
    vertex_state_bits: int = 64
    incidence_state_bits: int = 64
    seed: int | None = None

    def validate(self) -> "ChurnPlan":
        """Raise :class:`ConfigError` on invalid fields; return self."""
        if not isinstance(self.events, tuple):
            raise ConfigError(
                f"events must be a tuple of ChurnEvent, got {type(self.events).__name__}"
            )
        for event in self.events:
            if not isinstance(event, ChurnEvent):
                raise ConfigError(
                    f"events must contain ChurnEvent entries, got {type(event).__name__}"
                )
            event.validate()
        for name in ("vertex_state_bits", "incidence_state_bits"):
            check_int(name, getattr(self, name), minimum=1)
        check_int("seed", self.seed, optional=True)
        return self

    @property
    def is_benign(self) -> bool:
        """True when the plan schedules no epoch boundaries."""
        return not self.events

    def to_dict(self) -> dict[str, Any]:
        """A plain, JSON-serializable dict (events as a list of dicts)."""
        d = asdict(self)
        d["events"] = [asdict(e) for e in self.events]
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChurnPlan":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        return decode(cls, data, events=lambda events: decode_all(ChurnEvent, events)).validate()


@dataclass
class EpochModel:
    """One run's realized partition epochs (deterministic in plan + seeds).

    Attach to a :class:`~repro.cluster.ledger.RoundLedger` via
    :meth:`~repro.cluster.ledger.RoundLedger.attach_epochs`; the ledger
    then calls :meth:`begin_step` before each algorithm bulk step (firing
    due events and charging their migrations), :meth:`remap` on the step's
    load matrix, and :meth:`note_step` after recording it.

    One model may be shared by several ledgers — derived sub-clusters
    (``KMachineCluster.with_graph``) inherit the parent's model exactly
    like the fault model, so the whole run lives on one churning platform.
    Epoch boundaries are keyed by the model's own monotone bulk-step
    counter, never by any single ledger's indices.

    Parameters
    ----------
    plan:
        The validated churn schedule.
    graph:
        The run's input graph (degrees price migrations; the reshuffle
        re-partition needs it).
    partition:
        The run's epoch-0 :class:`~repro.cluster.partition.VertexPartition`
        (homes and the shared-hash seed the epoch hashing derives from).
    partition_config:
        The placement scheme re-applied (epoch-indexed) by ``reshuffle``.
    """

    plan: ChurnPlan
    graph: object
    partition: object
    partition_config: object = None
    #: Realized epoch-boundary records (dicts, envelope-ready), in order.
    records: list = field(default_factory=list)

    def __post_init__(self) -> None:
        from repro.cluster.partition import PartitionConfig

        self.plan.validate()
        self.k = int(self.partition.k)  # type: ignore[attr-defined]
        self.home0 = np.asarray(self.partition.home, dtype=np.int64)  # type: ignore[attr-defined]
        self.home = self.home0.copy()
        self.degrees = np.asarray(self.graph.degree(), dtype=np.int64)  # type: ignore[attr-defined]
        self.active = np.ones(self.k, dtype=bool)
        self.epoch = 0
        if self.partition_config is None:
            self.partition_config = PartitionConfig()
        base = self.plan.seed if self.plan.seed is not None else self.partition.seed  # type: ignore[attr-defined]
        self._base_seed = int(base)
        self._step_counter = 0
        self._next_event = 0
        self._events = tuple(sorted(self.plan.events, key=lambda e: e.at_step))
        self._weights = None  # None == identity remap (epoch 0)
        self._epoch_rounds = [0]
        self._epoch_extra_bits = [0]
        self._epoch_load = [np.zeros((self.k, self.k), dtype=np.int64)]
        self._validate_schedule()

    def _validate_schedule(self) -> None:
        """Check the event sequence against this run's k machines."""
        active = np.ones(self.k, dtype=bool)
        for event in self._events:
            if event.kind == "reshuffle":
                continue
            m = int(event.machine)  # type: ignore[arg-type]
            if m >= self.k:
                raise ConfigError(
                    f"event names machine {m} but the run has k={self.k} machines"
                )
            if event.kind == "remove":
                if not active[m]:
                    raise ConfigError(f"machine {m} removed twice (step {event.at_step})")
                if int(active.sum()) <= 2:
                    raise ConfigError(
                        "removals must leave at least 2 active machines "
                        f"(step {event.at_step})"
                    )
                active[m] = False
            else:  # add
                if active[m]:
                    raise ConfigError(
                        f"machine {m} added while active (step {event.at_step})"
                    )
                active[m] = True

    # -- ledger hooks ---------------------------------------------------------

    def begin_step(self, charge: Callable[[str, np.ndarray, int], int]) -> None:
        """Fire every event due before the next algorithm bulk step.

        ``charge`` is the attached ledger's raw charging primitive
        (``(label, load, messages) -> rounds``); each fired event charges
        its migration through it, so migration traffic pays real bandwidth
        (and any attached fault model) like every other bulk step.  Only
        load-matrix steps advance the counter — externally priced
        ``charge_rounds`` fragments are citations, not platform traffic.
        """
        step = self._step_counter
        self._step_counter += 1
        while self._next_event < len(self._events) and (
            self._events[self._next_event].at_step <= step
        ):
            self._fire(self._events[self._next_event], charge, step)
            self._next_event += 1

    def remap(self, load: np.ndarray) -> np.ndarray:
        """Route an epoch-0-addressed load matrix onto the current layout.

        Epoch-0 shard i's traffic splits proportionally over the machines
        its vertices (incidence-weighted) currently live on:
        ``L'[a, b] = sum_ij L[i, j] * W[i, a] * W[j, b]`` with row-
        stochastic ``W``.  Identity (and exactly the input object) while
        the run is still in epoch 0, so unfired plans change nothing.
        """
        if self._weights is None:
            return load
        routed = self._weights.T @ (load.astype(np.float64) @ self._weights)
        # Ceil, not round: fractional splits must never under-charge a link.
        return np.ceil(routed - 1e-9).astype(np.int64)

    def note_step(self, off_load: np.ndarray, rounds: int) -> None:
        """Record one charged step's load/rounds in the current epoch."""
        self._epoch_load[self.epoch] += off_load
        self._epoch_rounds[self.epoch] += int(rounds)

    def note_rounds(self, rounds: int, total_bits: int = 0) -> None:
        """Attribute an externally priced (``charge_rounds``) step's cost.

        Cited constants carry no link-load matrix; their rounds (and any
        declared bits) still belong to the epoch they ran in, so the
        per-epoch summary partitions the run's totals exactly.
        """
        self._epoch_rounds[self.epoch] += int(rounds)
        self._epoch_extra_bits[self.epoch] += int(total_bits)

    # -- event realization ----------------------------------------------------

    def _active_ids(self) -> np.ndarray:
        return np.nonzero(self.active)[0].astype(np.int64)

    def _fire(self, event: ChurnEvent, charge, step: int) -> None:
        from repro.cluster.partition import build_partition

        new_epoch = self.epoch + 1
        old_home = self.home
        new_home = old_home.copy()
        if event.kind == "reshuffle":
            ids = self._active_ids()
            sub = build_partition(
                self.graph,
                int(ids.size),
                self._base_seed,
                self.partition_config,
                epoch=new_epoch,
            )
            new_home = ids[sub.home]
        elif event.kind == "remove":
            m = int(event.machine)  # type: ignore[arg-type]
            self.active[m] = False
            ids = self._active_ids()
            moved = np.nonzero(old_home == m)[0]
            stream = SeedStream(derive_seed(self._base_seed, _CHURN_TAG, new_epoch))
            new_home[moved] = ids[stream.keyed_choice(moved.astype(np.uint64), int(ids.size))]
        else:  # add
            m = int(event.machine)  # type: ignore[arg-type]
            self.active[m] = True
            ids = self._active_ids()
            pos = int(np.searchsorted(ids, m))
            stream = SeedStream(derive_seed(self._base_seed, _CHURN_TAG, new_epoch))
            choice = stream.keyed_choice(
                np.arange(self.home.size, dtype=np.uint64), int(ids.size)
            )
            new_home[choice == pos] = m

        moved = np.nonzero(new_home != old_home)[0]
        state_bits = (
            self.plan.vertex_state_bits
            + self.degrees[moved] * self.plan.incidence_state_bits
        )
        migration = np.zeros((self.k, self.k), dtype=np.int64)
        np.add.at(migration, (old_home[moved], new_home[moved]), state_bits)
        # The boundary happens first: the migration step itself is charged
        # (and per-epoch accounted) inside the new epoch.
        self.epoch = new_epoch
        self._epoch_rounds.append(0)
        self._epoch_extra_bits.append(0)
        self._epoch_load.append(np.zeros((self.k, self.k), dtype=np.int64))
        label = f"epoch:migrate:{event.kind}"
        rounds = charge(label, migration, int(moved.size))
        self.home = new_home
        self._recompute_weights()
        self.records.append(
            {
                "epoch": new_epoch,
                "kind": event.kind,
                "machine": event.machine,
                "start_step": step,
                "active_machines": int(self.active.sum()),
                "migrated_vertices": int(moved.size),
                "migration_bits": int(migration.sum()),
                "migration_rounds": int(rounds),
            }
        )

    def _recompute_weights(self) -> None:
        """Row-stochastic epoch-0-shard -> current-machine routing weights."""
        w = np.zeros((self.k, self.k), dtype=np.float64)
        np.add.at(w, (self.home0, self.home), (self.degrees + 1).astype(np.float64))
        row = w.sum(axis=1)
        empty = np.nonzero(row == 0.0)[0]
        if empty.size:
            fallback = int(self._active_ids()[0])
            for i in empty:
                w[i, i if self.active[i] else fallback] = 1.0
            row = w.sum(axis=1)
        self._weights = w / row[:, None]

    # -- reporting --------------------------------------------------------------

    def totals(self) -> dict[str, Any]:
        """Envelope-form epoch summary (the ``epochs`` ledger section).

        Per epoch: the rounds and load charged inside it (migration steps
        included) plus, for every epoch after the first, the boundary
        event that opened it.  The registry attaches a fresh model per
        run, so the summary spans exactly the run — including steps
        charged on derived sub-clusters sharing the model.
        """
        per_epoch = []
        for e in range(self.epoch + 1):
            load = self._epoch_load[e]
            entry: dict[str, Any] = {
                "epoch": e,
                "rounds": int(self._epoch_rounds[e]),
                "total_bits": int(load.sum()) + int(self._epoch_extra_bits[e]),
                "max_link_bits": int(load.max(initial=0)),
            }
            if e > 0:
                entry.update(self.records[e - 1])
            per_epoch.append(entry)
        return {
            "n_epochs": self.epoch + 1,
            "events_fired": len(self.records),
            "events_scheduled": len(self.plan.events),
            "active_machines": int(self.active.sum()),
            "migrated_vertices": sum(r["migrated_vertices"] for r in self.records),
            "migration_bits": sum(r["migration_bits"] for r in self.records),
            "migration_rounds": sum(r["migration_rounds"] for r in self.records),
            "per_epoch": per_epoch,
        }
