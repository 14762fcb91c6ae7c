"""Seeded fault injection for the k-machine simulation.

The paper's model assumes a fault-free synchronous network: every round,
every link delivers its B bits, every machine takes its step.  Klauck et
al. note (and every engineered reproduction rediscovers) that the measured
round counts are only credible if they survive hostile conditions — lossy
links, stragglers, throttled bandwidth.  This module makes those
conditions a typed, *deterministic* axis of a run:

* :class:`FaultPlan` — the frozen, JSON-round-trippable description of the
  hostile network (drop / duplication / delay probabilities, machine
  stalls, bandwidth throttling).  It lives on
  :class:`~repro.runtime.config.RunConfig` and is therefore part of every
  run's provenance.
* :class:`FaultModel` — one run's realized faults.  Given the plan and the
  run's resolved seed it derives a private SplitMix64-keyed stream, so two
  runs with the same (plan, seed) replay the *identical* fault schedule —
  the byte-determinism contract of :class:`~repro.runtime.report.RunReport`
  extends to faulted runs.

Fault semantics under bulk accounting
-------------------------------------
The algorithms charge communication through
:meth:`~repro.cluster.ledger.RoundLedger.charge_load_matrix`; links are
*reliable but lossy*: a dropped round-transmission is retransmitted, so
faults never corrupt payloads — they only cost extra rounds.  Per bulk
step with base cost ``R`` rounds on the bottleneck link:

* **throttle** — the effective per-link bandwidth is
  ``max(1, floor(B * bandwidth_factor))``; the base cost is recomputed
  against it (the extra rounds are attributed to the fault section).
* **drop** — each of the ``R`` scheduled round-transmissions independently
  fails with probability ``drop_prob`` and is retried; the extra rounds
  follow a negative-binomial law realized from the seeded stream.
* **duplication** — each scheduled round-payload is duplicated with
  probability ``dup_prob``; duplicates occupy real bandwidth (extra
  rounds), receivers discard them (payloads are unchanged).
* **delay** — with probability ``delay_prob`` the step's bottleneck link
  adds ``1..max_delay_rounds`` rounds of latency.
* **stall** — with probability ``stall_prob`` a seeded machine stalls for
  ``1..max_stall_rounds`` rounds; in a synchronous step everyone waits.

:meth:`~repro.cluster.ledger.RoundLedger.charge_rounds` steps (externally
priced rounds that add no link load) pass through unfaulted — their cost
is a citation, not a simulation.

The exact per-round mailbox engine (:class:`~repro.cluster.engine.SyncEngine`)
runs the clean network only: :class:`FaultModel` is the one place a plan
is applied.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.util.rng import derive_seed
from repro.util.validation import ConfigError, check_int, decode

__all__ = ["FaultModel", "FaultPlan", "FaultRecord"]

#: Domain-separation tag for fault randomness (keeps the fault stream
#: independent of the algorithm and partition streams sharing the seed).
_FAULT_TAG = 0xFA17


@dataclass(frozen=True)
class FaultPlan:
    """Typed description of a hostile network (see module docstring).

    All probabilities are per-event and in ``[0, 1)`` (a probability of 1
    would never make progress).  The default plan is fault-free, so
    ``RunConfig(faults=FaultPlan())`` is equivalent to ``faults=None``
    except that the report then carries an explicit (empty) fault section.

    Attributes
    ----------
    drop_prob:
        Probability a scheduled round-transmission on a link is lost and
        must be retransmitted.
    dup_prob:
        Probability a round-payload is duplicated (consuming bandwidth).
    delay_prob / max_delay_rounds:
        Probability a bulk step's bottleneck link suffers extra latency,
        and the (inclusive) cap on the extra rounds.
    stall_prob / max_stall_rounds:
        Probability a machine stalls during a bulk step, and the
        (inclusive) cap on the stall length.
    bandwidth_factor:
        Throttle: effective per-link bandwidth is
        ``max(1, floor(B * bandwidth_factor))``; must be in ``(0, 1]``.
    seed:
        Fault randomness override.  ``None`` (default) derives the fault
        stream from the run's resolved seed, so sweeping seeds also sweeps
        fault schedules; pinning it holds the schedule fixed across seeds.
    """

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    max_delay_rounds: int = 0
    stall_prob: float = 0.0
    max_stall_rounds: int = 0
    bandwidth_factor: float = 1.0
    seed: int | None = None

    def validate(self) -> "FaultPlan":
        """Raise :class:`ConfigError` on invalid fields; return self."""
        for name in ("drop_prob", "dup_prob", "delay_prob", "stall_prob"):
            p = getattr(self, name)
            if not isinstance(p, (int, float)) or not (0.0 <= float(p) < 1.0):
                raise ConfigError(f"{name} must be in [0, 1), got {p!r}")
        for name in ("max_delay_rounds", "max_stall_rounds"):
            check_int(name, getattr(self, name), minimum=0)
        if self.delay_prob > 0 and self.max_delay_rounds < 1:
            raise ConfigError("delay_prob > 0 requires max_delay_rounds >= 1")
        if self.stall_prob > 0 and self.max_stall_rounds < 1:
            raise ConfigError("stall_prob > 0 requires max_stall_rounds >= 1")
        bf = self.bandwidth_factor
        if not isinstance(bf, (int, float)) or not (0.0 < float(bf) <= 1.0):
            raise ConfigError(f"bandwidth_factor must be in (0, 1], got {bf!r}")
        check_int("seed", self.seed, optional=True)
        return self

    @property
    def is_benign(self) -> bool:
        """True when the plan injects nothing (the fault-free defaults)."""
        return (
            self.drop_prob == 0.0
            and self.dup_prob == 0.0
            and self.delay_prob == 0.0
            and self.stall_prob == 0.0
            and self.bandwidth_factor == 1.0
        )

    def to_dict(self) -> dict[str, Any]:
        """A plain, JSON-serializable dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        return decode(cls, data).validate()


@dataclass(frozen=True)
class FaultRecord:
    """Realized faults of one bulk communication step (all in rounds/bits)."""

    step: int
    label: str
    dropped_rounds: int = 0
    duplicate_rounds: int = 0
    delay_rounds: int = 0
    stall_rounds: int = 0
    throttle_rounds: int = 0
    stalled_machine: int = -1

    @property
    def extra_rounds(self) -> int:
        """Total extra rounds this record injected into its step."""
        return (
            self.dropped_rounds
            + self.duplicate_rounds
            + self.delay_rounds
            + self.stall_rounds
            + self.throttle_rounds
        )


@dataclass
class FaultModel:
    """One run's realized fault schedule (deterministic in plan + seed).

    Attach to a :class:`~repro.cluster.ledger.RoundLedger` via
    :meth:`~repro.cluster.ledger.RoundLedger.attach_faults`; the ledger
    then consults :meth:`effective_bandwidth` and :meth:`apply` on every
    bulk step and records the returned :class:`FaultRecord`.

    The registry attaches one model per run to the run's ledger.  The
    derived instances that min-cut, verification and REP run on
    (``KMachineCluster.with_graph``) charge that same ledger, so the whole
    run sees one hostile network.  Fault randomness is keyed by the
    model's own monotone step counter — the order of the run's bulk
    steps, which is deterministic for a fixed (algorithm, config, seed).
    """

    plan: FaultPlan
    run_seed: int
    events: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.plan.validate()
        base = self.plan.seed if self.plan.seed is not None else self.run_seed
        self._seed = derive_seed(base, _FAULT_TAG)
        self._step_counter = 0

    def effective_bandwidth(self, bandwidth_bits: int) -> int:
        """The throttled per-link bandwidth (at least 1 bit/round)."""
        return max(1, int(bandwidth_bits * self.plan.bandwidth_factor))

    def apply(
        self,
        label: str,
        base_rounds: int,
        throttle_rounds: int,
        k: int,
    ) -> FaultRecord | None:
        """Realize the faults of one bulk step.

        Parameters
        ----------
        label:
            Step label (recorded for diagnostics).
        base_rounds:
            Step cost under the *throttled* bandwidth (0 for empty steps).
        throttle_rounds:
            Rounds already added by throttling (base minus unthrottled).
        k:
            Number of machines (stall victims are drawn from it).

        Returns the realized :class:`FaultRecord` (also appended to
        :attr:`events`), or ``None`` when the step drew no faults at all.
        Empty steps (``base_rounds == 0``) move no traffic and fault-free;
        they still advance the step counter, keeping schedules aligned
        across runs that differ only in empty steps.
        """
        plan = self.plan
        step_index = self._step_counter
        self._step_counter += 1
        if base_rounds <= 0:
            return None
        rng = np.random.default_rng(derive_seed(self._seed, step_index))
        dropped = 0
        if plan.drop_prob > 0.0:
            # Failures before the base_rounds-th success; each retry may
            # itself fail, which negative_binomial accounts for exactly.
            dropped = int(rng.negative_binomial(base_rounds, 1.0 - plan.drop_prob))
        duplicated = 0
        if plan.dup_prob > 0.0:
            duplicated = int(rng.binomial(base_rounds, plan.dup_prob))
        delay = 0
        if plan.delay_prob > 0.0 and rng.random() < plan.delay_prob:
            delay = int(rng.integers(1, plan.max_delay_rounds + 1))
        stall = 0
        stalled_machine = -1
        if plan.stall_prob > 0.0 and rng.random() < plan.stall_prob:
            stall = int(rng.integers(1, plan.max_stall_rounds + 1))
            stalled_machine = int(rng.integers(0, k))
        if not (dropped or duplicated or delay or stall or throttle_rounds):
            return None
        record = FaultRecord(
            step=step_index,
            label=label,
            dropped_rounds=dropped,
            duplicate_rounds=duplicated,
            delay_rounds=delay,
            stall_rounds=stall,
            throttle_rounds=throttle_rounds,
            stalled_machine=stalled_machine,
        )
        self.events.append(record)
        return record

    def totals(self) -> dict[str, int]:
        """Envelope-form fault summary over every realized event.

        The registry attaches a fresh model per run, so "every event" is
        exactly the run's events, derived instances' steps included.
        """
        events = self.events
        return {
            "fault_rounds": sum(e.extra_rounds for e in events),
            "dropped_rounds": sum(e.dropped_rounds for e in events),
            "duplicate_rounds": sum(e.duplicate_rounds for e in events),
            "delay_rounds": sum(e.delay_rounds for e in events),
            "stall_rounds": sum(e.stall_rounds for e in events),
            "throttle_rounds": sum(e.throttle_rounds for e in events),
            "n_events": len(events),
        }
