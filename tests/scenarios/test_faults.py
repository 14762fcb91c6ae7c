"""Unit tests for the fault layer: plans, models and ledger weaving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterTopology, RoundLedger
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

    def test_duplicates_never_exceed_the_scheduled_rounds(self):
        model = FaultModel(FaultPlan(dup_prob=0.5), run_seed=1)
        records = [model.apply("s", base_rounds=10, throttle_rounds=0, k=4) for _ in range(10)]
        assert all(r is not None and 1 <= r.duplicate_rounds <= 10 for r in records)
        assert all(r.extra_rounds == r.duplicate_rounds for r in records)

    def test_delays_stay_within_the_cap(self):
        model = FaultModel(FaultPlan(delay_prob=0.9, max_delay_rounds=3), run_seed=1)
        for _ in range(20):
            model.apply("s", base_rounds=10, throttle_rounds=0, k=4)
        delays = [e.delay_rounds for e in model.events]
        assert delays and all(1 <= d <= 3 for d in delays)
        assert model.totals()["delay_rounds"] == sum(delays)

    def test_stalls_name_a_machine_and_stay_within_the_cap(self):
        model = FaultModel(FaultPlan(stall_prob=0.9, max_stall_rounds=2), run_seed=1)
        for _ in range(20):
            model.apply("s", base_rounds=10, throttle_rounds=0, k=3)
        assert model.events
        assert all(1 <= e.stall_rounds <= 2 for e in model.events)
        assert all(0 <= e.stalled_machine < 3 for e in model.events)
        # Over this schedule every one of the three machines stalls at least once.
        assert {e.stalled_machine for e in model.events} == {0, 1, 2}


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

    def test_benign_model_charges_clean_rounds(self):
        clean = self._ledger()
        benign = self._ledger()
        benign.attach_faults(FaultModel(FaultPlan(), run_seed=3))
        for bits in (8, 64, 80):
            expected = clean.charge_load_matrix("s", self._load(bits))
            assert benign.charge_load_matrix("s", self._load(bits)) == expected
        assert all(step.fault_rounds == 0 for step in benign.steps)
        assert benign.totals()["faults"]["n_events"] == 0

    def test_every_axis_costs_rounds_reproducibly(self):
        plan = FaultPlan(
            drop_prob=0.3,
            dup_prob=0.1,
            delay_prob=0.2,
            max_delay_rounds=3,
            stall_prob=0.1,
            max_stall_rounds=2,
            bandwidth_factor=0.5,
        )

        def charged():
            ledger = self._ledger()
            ledger.attach_faults(FaultModel(plan, run_seed=4))
            rounds = [ledger.charge_load_matrix("s", self._load(80)) for _ in range(10)]
            return rounds, ledger.totals()["faults"]

        rounds, faults = charged()
        assert (rounds, faults) == charged()
        # Ten clean steps of 80 bits over an 8-bit link cost 100 rounds.
        assert sum(rounds) == 100 + faults["fault_rounds"]
        assert faults["throttle_rounds"] == 100
        assert faults["dropped_rounds"] > 0
