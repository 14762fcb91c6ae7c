"""Unit tests for the fault layer: plans, models, ledger and engine weaving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterTopology, RoundLedger, SyncEngine
from repro.cluster.engine import Envelope, RoundLimitExceeded
from repro.protocols.leader import LeaderElectionProgram
from repro.runtime.config import ConfigError
from repro.scenarios.faults import FaultModel, FaultPlan


class TestFaultPlan:
    def test_defaults_are_benign(self):
        plan = FaultPlan().validate()
        assert plan.is_benign

    def test_any_axis_breaks_benign(self):
        assert not FaultPlan(drop_prob=0.1).is_benign
        assert not FaultPlan(bandwidth_factor=0.5).is_benign
        assert not FaultPlan(stall_prob=0.1, max_stall_rounds=1).is_benign

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_prob": 1.0},
            {"drop_prob": -0.1},
            {"dup_prob": 2.0},
            {"bandwidth_factor": 0.0},
            {"bandwidth_factor": 1.5},
            {"max_stall_rounds": -1},
            {"stall_prob": 0.5},  # needs max_stall_rounds >= 1
            {"delay_prob": 0.5},  # needs max_delay_rounds >= 1
            {"seed": "nope"},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs).validate()

    def test_dict_round_trip(self):
        plan = FaultPlan(drop_prob=0.1, stall_prob=0.2, max_stall_rounds=2, seed=9)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="drop_rate"):
            FaultPlan.from_dict({"drop_rate": 0.1})


class TestFaultModel:
    def test_deterministic_step_sequence(self):
        plan = FaultPlan(drop_prob=0.3, stall_prob=0.2, max_stall_rounds=2)
        a = FaultModel(plan, run_seed=5)
        b = FaultModel(plan, run_seed=5)
        for _ in range(20):
            ra = a.apply("s", base_rounds=10, throttle_rounds=0, k=4)
            rb = b.apply("s", base_rounds=10, throttle_rounds=0, k=4)
            assert ra == rb
        assert a.totals() == b.totals()

    def test_plan_seed_overrides_run_seed(self):
        plan = FaultPlan(drop_prob=0.3, seed=77)
        a = FaultModel(plan, run_seed=1)
        b = FaultModel(plan, run_seed=2)
        assert a.apply("s", 50, 0, 4) == b.apply("s", 50, 0, 4)

    def test_empty_steps_are_fault_free_but_advance_schedule(self):
        plan = FaultPlan(drop_prob=0.5)
        model = FaultModel(plan, run_seed=0)
        assert model.apply("s", base_rounds=0, throttle_rounds=0, k=4) is None
        assert model.totals()["n_events"] == 0
        # An empty step consumes a schedule slot: the next busy step draws
        # what a fresh model's *second* step would have drawn.
        other = FaultModel(plan, run_seed=0)
        other.apply("pad", 0, 0, 4)
        assert model.apply("s", 30, 0, 4) == other.apply("s", 30, 0, 4)

    def test_throttle_bandwidth_floor(self):
        model = FaultModel(FaultPlan(bandwidth_factor=0.25), run_seed=0)
        assert model.effective_bandwidth(1000) == 250
        assert model.effective_bandwidth(2) == 1  # never below 1 bit/round

    def test_shared_model_spans_ledgers(self):
        # One model attached to two ledgers (the with_graph pattern used
        # by min-cut/verification) keeps one global, monotone schedule.
        model = FaultModel(FaultPlan(drop_prob=0.4), run_seed=3)
        topo = ClusterTopology(k=3, bandwidth_bits=8)
        parent, child = RoundLedger(topo), RoundLedger(topo)
        parent.attach_faults(model)
        child.attach_faults(model)
        load = np.zeros((3, 3), dtype=np.int64)
        load[0, 1] = 80
        for ledger in (parent, child, child, parent):
            ledger.charge_load_matrix("s", load)
        steps = [e.step for e in model.events]
        assert steps == sorted(steps)
        assert parent.totals()["faults"] == child.totals()["faults"] == model.totals()


class TestLedgerFaults:
    def _ledger(self):
        return RoundLedger(ClusterTopology(k=3, bandwidth_bits=8))

    def _load(self, bits):
        load = np.zeros((3, 3), dtype=np.int64)
        load[0, 1] = bits
        return load

    def test_throttle_inflates_rounds(self):
        clean = self._ledger()
        assert clean.charge_load_matrix("s", self._load(64)) == 8
        faulted = self._ledger()
        faulted.attach_faults(FaultModel(FaultPlan(bandwidth_factor=0.5), run_seed=0))
        assert faulted.charge_load_matrix("s", self._load(64)) == 16
        assert faulted.steps[-1].fault_rounds == 8
        assert faulted.totals()["faults"]["throttle_rounds"] == 8

    def test_drop_retransmissions_recorded(self):
        ledger = self._ledger()
        ledger.attach_faults(FaultModel(FaultPlan(drop_prob=0.3), run_seed=1))
        total = 0
        for _ in range(10):
            total += ledger.charge_load_matrix("s", self._load(80))
        faults = ledger.totals()["faults"]
        assert faults["dropped_rounds"] > 0
        assert total == 100 + faults["fault_rounds"]

    def test_detach_restores_clean_accounting(self):
        ledger = self._ledger()
        ledger.attach_faults(FaultModel(FaultPlan(bandwidth_factor=0.5), run_seed=0))
        ledger.detach_faults()
        assert ledger.charge_load_matrix("s", self._load(64)) == 8
        assert "faults" not in ledger.totals()

    def test_charge_rounds_passes_through_unfaulted(self):
        ledger = self._ledger()
        ledger.attach_faults(FaultModel(FaultPlan(drop_prob=0.9), run_seed=0))
        assert ledger.charge_rounds("cited", 3) == 3


class TestEngineFaults:
    PLAN = FaultPlan(
        drop_prob=0.3,
        dup_prob=0.1,
        delay_prob=0.2,
        max_delay_rounds=3,
        stall_prob=0.1,
        max_stall_rounds=2,
        bandwidth_factor=0.5,
    )

    def test_leader_election_survives_heavy_faults(self):
        topo = ClusterTopology(k=5, bandwidth_bits=256)
        clean = [LeaderElectionProgram(5, seed=9) for _ in range(5)]
        SyncEngine(topo).run(clean)
        faulty = [LeaderElectionProgram(5, seed=9) for _ in range(5)]
        result = SyncEngine(topo, faults=self.PLAN, fault_seed=4).run(faulty)
        assert result.terminated
        assert {p.leader for p in faulty} == {clean[0].leader}
        assert result.dropped_messages > 0
        assert result.stalled_rounds > 0

    def test_fault_schedule_is_deterministic(self):
        topo = ClusterTopology(k=5, bandwidth_bits=256)

        def run_once():
            programs = [LeaderElectionProgram(5, seed=9) for _ in range(5)]
            return SyncEngine(topo, faults=self.PLAN, fault_seed=4).run(programs)

        a, b = run_once(), run_once()
        assert (a.rounds, a.delivered_messages, a.delivered_bits) == (
            b.rounds,
            b.delivered_messages,
            b.delivered_bits,
        )
        assert (a.dropped_messages, a.duplicated_messages, a.delayed_messages) == (
            b.dropped_messages,
            b.duplicated_messages,
            b.delayed_messages,
        )

    def test_benign_plan_is_clean_path(self):
        topo = ClusterTopology(k=2, bandwidth_bits=64)
        engine = SyncEngine(topo, faults=FaultPlan(), fault_seed=3)
        assert engine.faults is None  # normalized away

    def test_drops_preserve_per_link_fifo_order(self):
        # The link layer aborts the round's window at the first drop and
        # retransmits from the failed message on, so a receiver never sees
        # messages from one sender out of order under a drop-only plan.
        class Sender:
            def __init__(self):
                self.sent = False

            def on_round(self, machine, round_no, inbox):
                if machine == 0 and not self.sent:
                    self.sent = True
                    return [Envelope(0, 1, 8, seq) for seq in range(20)]
                return []

            def is_done(self, machine):
                return True

        class Receiver(Sender):
            def __init__(self):
                super().__init__()
                self.seen = []

            def on_round(self, machine, round_no, inbox):
                self.seen.extend(env.payload for env in inbox)
                return super().on_round(machine, round_no, inbox)

        topo = ClusterTopology(k=2, bandwidth_bits=16)
        recv = Receiver()
        plan = FaultPlan(drop_prob=0.4)
        result = SyncEngine(topo, faults=plan, fault_seed=2).run([Sender(), recv])
        assert result.terminated
        assert result.dropped_messages > 0
        assert recv.seen == sorted(recv.seen) == list(range(20))

    def test_duplicates_consume_bandwidth_and_repeat(self):
        class Blast:
            def __init__(self):
                self.sent = False
                self.got = []

            def on_round(self, machine, round_no, inbox):
                self.got.extend(env.payload for env in inbox)
                if machine == 0 and not self.sent:
                    self.sent = True
                    return [Envelope(0, 1, 8, i) for i in range(10)]
                return []

            def is_done(self, machine):
                return True

        topo = ClusterTopology(k=2, bandwidth_bits=8)  # one message per round
        clean_recv = Blast()
        clean = SyncEngine(topo).run([Blast(), clean_recv])
        dup_recv = Blast()
        dup = SyncEngine(topo, faults=FaultPlan(dup_prob=0.5), fault_seed=1).run(
            [Blast(), dup_recv]
        )
        assert dup.duplicated_messages > 0
        # Each duplicate is a real transmission on a saturated link: more
        # rounds and more delivered bits than the clean run.
        assert dup.rounds > clean.rounds
        assert dup.delivered_bits > clean.delivered_bits
        # Every original payload arrives; extras are repeats, not inventions.
        assert set(dup_recv.got) == set(range(10))
        assert len(dup_recv.got) == 10 + dup.duplicated_messages

    def test_faulted_run_costs_more_rounds(self):
        topo = ClusterTopology(k=5, bandwidth_bits=64)
        clean = SyncEngine(topo).run([LeaderElectionProgram(5, seed=2) for _ in range(5)])
        plan = FaultPlan(drop_prob=0.4, bandwidth_factor=0.25)
        faulted = SyncEngine(topo, faults=plan, fault_seed=1).run(
            [LeaderElectionProgram(5, seed=2) for _ in range(5)]
        )
        assert faulted.rounds > clean.rounds


class TestRoundLimitExceeded:
    def test_fault_stalled_run_reports_cleanly(self):
        # The regression the ISSUE names: a run kept busy by faults must
        # surface a dedicated exception carrying the accounting so far,
        # not a silent partial result.
        class Echo:
            started = False

            def on_round(self, machine, round_no, inbox):
                if machine == 0 and not self.started:
                    self.started = True
                    return [Envelope(0, 1, 8, "hello")]
                return [Envelope(machine, env.src, 8, "echo") for env in inbox]

            def is_done(self, machine):
                return False

        topo = ClusterTopology(k=2, bandwidth_bits=8)
        plan = FaultPlan(stall_prob=0.5, max_stall_rounds=2, drop_prob=0.3)
        with pytest.raises(RoundLimitExceeded) as excinfo:
            SyncEngine(topo, faults=plan, fault_seed=0).run([Echo(), Echo()], max_rounds=40)
        exc = excinfo.value
        assert exc.max_rounds == 40
        assert exc.result.rounds == 40
        assert not exc.result.terminated
        assert exc.result.stalled_rounds > 0 or exc.result.dropped_messages > 0
        assert "max_rounds=40" in str(exc)
        assert "stalled" in str(exc)
