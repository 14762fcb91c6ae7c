"""Round and bandwidth accounting for the k-machine simulation.

The paper's complexity measure is the number of synchronous rounds, where a
round lets every link carry B = O(polylog n) bits in each direction.  For a
bulk communication step that puts ``load[i, j]`` bits on the directed link
``i -> j``, an optimal schedule needs exactly

    rounds(step) = ceil(max_{i != j} load[i, j] / B)

rounds (links are independent; a link's traffic is serialized over rounds).
:class:`RoundLedger` records this quantity per step, together with total
traffic and per-machine send/receive volumes, so experiments can report
both round counts (Theorems 1-4) and congestion profiles (Lemma 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.util.bits import ceil_div

__all__ = ["RoundLedger", "StepRecord"]


@dataclass(frozen=True)
class StepRecord:
    """Accounting record of one bulk communication step.

    ``fault_rounds`` counts the rounds injected by an attached fault model
    (retransmissions, stalls, delays, throttling); they are *included* in
    ``rounds`` so every consumer of the total sees the degraded cost.
    ``epoch`` is the partition epoch the step ran in (0 unless an attached
    epoch model fired a churn event earlier in the run; migration steps
    carry the epoch they opened).
    """

    label: str
    rounds: int
    max_link_bits: int
    total_bits: int
    messages: int
    fault_rounds: int = 0
    epoch: int = 0


@dataclass
class RoundLedger:
    """Accumulates the cost of every communication step of an algorithm run.

    Attributes
    ----------
    topology:
        The cluster the ledger accounts for.
    steps:
        Chronological list of :class:`StepRecord`.
    load_total:
        Cumulative off-diagonal link traffic (``int64[k, k]``, row = sender);
        :attr:`sent_bits` and :attr:`received_bits` are its row and column
        sums.
    """

    topology: ClusterTopology
    steps: list[StepRecord] = field(default_factory=list)
    load_total: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Attached fault model (see repro.scenarios.faults.FaultModel), or None.
    fault_model: object = field(default=None, repr=False)
    #: Attached epoch model (see repro.scenarios.churn.EpochModel), or None.
    epoch_model: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        k = self.topology.k
        if self.load_total is None:
            self.load_total = np.zeros((k, k), dtype=np.int64)
        self._off_diagonal = ~np.eye(k, dtype=bool)

    # -- fault injection -----------------------------------------------------

    def attach_faults(self, model: object) -> None:
        """Attach a fault model; subsequent bulk steps run on the hostile network.

        ``model`` must provide ``effective_bandwidth(bits) -> int``,
        ``apply(label, base_rounds, throttle_rounds, k) -> record | None``
        (where a record has an ``extra_rounds`` int attribute), and
        ``totals() -> dict`` — see
        :class:`repro.scenarios.faults.FaultModel` (kept duck-typed so the
        cluster layer never imports the scenarios package).  Derived
        instances (``KMachineCluster.with_graph``) charge this same ledger,
        so every bulk step of the run draws from the one model.
        """
        self.fault_model = model

    def detach_faults(self) -> None:
        """Detach the fault model; later steps run on the clean network."""
        self.fault_model = None

    # -- partition epochs ----------------------------------------------------

    def attach_epochs(self, model: object) -> None:
        """Attach an epoch model; subsequent bulk steps live on a churning platform.

        ``model`` must provide ``begin_step(charge)`` (fires due churn
        events, charging their migrations through ``charge``),
        ``remap(load) -> load``, ``note_step(off, rounds)``, an ``epoch``
        int attribute and ``totals() -> dict`` — see
        :class:`repro.scenarios.churn.EpochModel` (duck-typed, like the
        fault model, so the cluster layer never imports the scenarios
        package).  As with the fault model, derived instances charge this
        same ledger, so every bulk step of the run, theirs included, is
        remapped and attributed to an epoch.
        """
        self.epoch_model = model

    def detach_epochs(self) -> None:
        """Detach the epoch model; later steps run on the static partition."""
        self.epoch_model = None

    # -- recording ----------------------------------------------------------

    def charge_load_matrix(self, label: str, load: np.ndarray, messages: int = 0) -> int:
        """Charge a bulk step described by a dense ``int64[k, k]`` bit-load matrix.

        Diagonal entries (machine-local delivery) are free, per the model.
        With an epoch model attached, due churn events fire first (each
        charging its migration as a real bulk step) and the load matrix is
        re-routed onto the current epoch's machine layout; with a fault
        model attached, the step additionally pays for the realized faults
        (throttling, retransmissions, duplicates, delays, stalls) — the
        injected rounds are recorded on the step.  Returns the number of
        rounds charged.
        """
        k = self.topology.k
        if load.shape != (k, k):
            raise ValueError(f"load matrix must be ({k}, {k}), got {load.shape}")
        if self.epoch_model is not None:
            self.epoch_model.begin_step(self._charge)  # type: ignore[attr-defined]
            load = self.epoch_model.remap(load)  # type: ignore[attr-defined]
        return self._charge(label, load, messages)

    def _charge(self, label: str, load: np.ndarray, messages: int = 0) -> int:
        """Record one bulk step (fault realization included, epochs resolved).

        The raw charging primitive ``charge_load_matrix`` and the epoch
        model's migration steps share; never consults the epoch model, so
        migrations cannot recurse into further churn events.
        """
        k = self.topology.k
        off = load * self._off_diagonal
        max_link = int(off.max(initial=0))
        total = int(off.sum())
        bandwidth = self.topology.bandwidth_bits
        rounds = ceil_div(max_link, bandwidth) if max_link else 0
        fault_rounds = 0
        if self.fault_model is not None:
            clean_rounds = rounds
            bandwidth = self.fault_model.effective_bandwidth(bandwidth)  # type: ignore[attr-defined]
            rounds = ceil_div(max_link, bandwidth) if max_link else 0
            record = self.fault_model.apply(  # type: ignore[attr-defined]
                label, rounds, rounds - clean_rounds, k
            )
            if record is not None:
                fault_rounds = int(record.extra_rounds)
                rounds = clean_rounds + fault_rounds
            else:
                rounds = clean_rounds
        self.load_total += off
        epoch = 0
        if self.epoch_model is not None:
            epoch = int(self.epoch_model.epoch)  # type: ignore[attr-defined]
            self.epoch_model.note_step(off, rounds)  # type: ignore[attr-defined]
        self.steps.append(
            StepRecord(
                label=label,
                rounds=rounds,
                max_link_bits=max_link,
                total_bits=total,
                messages=messages,
                fault_rounds=fault_rounds,
                epoch=epoch,
            )
        )
        return rounds

    def charge_rounds(self, label: str, rounds: int, total_bits: int = 0) -> int:
        """Charge a step whose round count is computed externally.

        The callers are flooding's one-round sync floor per all-local CC
        round, the extra relay rounds of
        :func:`~repro.cluster.comm.disseminate_from_machine`, and the
        referee baseline's zero-round ``referee:designated`` marker.  None
        of these adds link load, so they pass through un-faulted and
        un-remapped, but they are still *attributed* to the current
        partition epoch, so per-epoch rounds partition the run's total.
        """
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        epoch = 0
        if self.epoch_model is not None:
            epoch = int(self.epoch_model.epoch)  # type: ignore[attr-defined]
            self.epoch_model.note_rounds(rounds, total_bits)  # type: ignore[attr-defined]
        self.steps.append(
            StepRecord(
                label=label,
                rounds=rounds,
                max_link_bits=0,
                total_bits=total_bits,
                messages=0,
                epoch=epoch,
            )
        )
        return rounds

    # -- reporting ----------------------------------------------------------

    @property
    def sent_bits(self) -> np.ndarray:
        """Per-machine cumulative sent traffic (``int64[k]``) — with
        :attr:`received_bits`, the congestion profile used by the Lemma-1
        and ablation experiments."""
        return self.load_total.sum(axis=1)

    @property
    def received_bits(self) -> np.ndarray:
        """Per-machine cumulative received traffic (``int64[k]``)."""
        return self.load_total.sum(axis=0)

    @property
    def total_rounds(self) -> int:
        """Total rounds across all recorded steps."""
        return sum(s.rounds for s in self.steps)

    @property
    def total_bits(self) -> int:
        """Total bits shipped across all links."""
        return sum(s.total_bits for s in self.steps)

    @property
    def max_machine_received_bits(self) -> int:
        """Largest cumulative receive volume of any machine (congestion)."""
        return int(self.received_bits.max(initial=0))

    def totals(
        self, *, steps_offset: int = 0, received_before: np.ndarray | None = None
    ) -> dict:
        """Envelope-form summary consumed by :class:`repro.runtime.report.RunReport`.

        ``steps_offset`` / ``received_before`` restrict the summary to steps
        recorded after that point, so a run charged to a shared ledger can
        report only its own cost.  ``work_rounds`` strips the
        one-round-per-step floor (the additive "+polylog" of the O~
        notation) — the term the scaling benchmarks fit power laws to.
        """
        steps = self.steps[steps_offset:]
        received = self.received_bits
        if received_before is not None:
            received = received - received_before
        totals = {
            "rounds": int(sum(s.rounds for s in steps)),
            "work_rounds": int(sum(max(0, s.rounds - 1) for s in steps)),
            "total_bits": int(sum(s.total_bits for s in steps)),
            "max_machine_received_bits": int(received.max(initial=0)),
            "n_steps": len(steps),
            "breakdown": dict(sorted(self.breakdown(steps).items())),
        }
        # The fault section appears only on faulted runs, keeping clean-run
        # envelopes (and every committed BENCH_*.json baseline) unchanged.
        # It summarizes the *model's* events; the registry attaches a fresh
        # model per run.
        if self.fault_model is not None:
            totals["faults"] = dict(self.fault_model.totals())  # type: ignore[attr-defined]
        # Same contract for the epochs section: only churned runs carry it.
        if self.epoch_model is not None:
            totals["epochs"] = dict(self.epoch_model.totals())  # type: ignore[attr-defined]
        return totals

    def breakdown(self, steps: list[StepRecord] | None = None) -> dict[str, int]:
        """Rounds aggregated by step-label prefix (text before first ':').

        Step families follow the ``<family>:<detail>`` label convention:
        e.g. ``epoch:migrate:<kind>`` (churn migrations) groups under
        ``epoch``, and ``update:batch:<i>`` (dynamic edge-update batches,
        DESIGN.md §11) groups under ``update`` — so amortized update rounds
        are directly readable off a report's ledger breakdown.

        ``steps`` restricts the aggregation to a slice (used by
        :meth:`totals`); default is every recorded step.
        """
        agg: dict[str, int] = {}
        for s in self.steps if steps is None else steps:
            key = s.label.split(":", 1)[0]
            agg[key] = agg.get(key, 0) + int(s.rounds)
        return agg

    def cut_bits(self, group_a: np.ndarray) -> int:
        """Total bits that crossed the cut between ``group_a`` machines and the rest.

        The quantity the Section-4 lower bound argues about: a 2-party
        simulation of the protocol exchanges exactly the bits crossing the
        Alice/Bob machine partition.
        """
        mask = np.zeros(self.topology.k, dtype=bool)
        mask[np.asarray(group_a, dtype=np.int64)] = True
        a_to_b = int(self.load_total[mask][:, ~mask].sum())
        b_to_a = int(self.load_total[~mask][:, mask].sum())
        return a_to_b + b_to_a
